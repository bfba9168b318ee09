package exec

import (
	"fmt"
	"sync"
	"sync/atomic"

	"partadvisor/internal/cluster"
	"partadvisor/internal/costmodel"
	"partadvisor/internal/faults"
	"partadvisor/internal/hardware"
	"partadvisor/internal/partition"
	"partadvisor/internal/relation"
	"partadvisor/internal/schema"
	"partadvisor/internal/sqlparse"
	"partadvisor/internal/stats"
)

// Flavor selects the engine personality.
type Flavor int

const (
	// Disk models Postgres-XL: disk-bound scans, and the optimizer's cost
	// estimates are exposed (with their join-count-proportional error).
	Disk Flavor = iota
	// Memory models System-X: memory-bound scans so network costs dominate,
	// and — as in the paper — optimizer cost estimates are NOT accessible.
	Memory
)

// String names the flavor.
func (f Flavor) String() string {
	if f == Memory {
		return "memory"
	}
	return "disk"
}

// estimateNoiseSigma is the per-join log-error of exposed optimizer
// estimates (Disk flavor), calibrated so that estimates are usable on
// star-schema queries (2–4 joins) but badly misleading on 8-way TPC-DS
// joins, following Leis et al.
const estimateNoiseSigma = 0.7

// Engine is one deployed distributed database. Its stateful operations
// (Deploy, Exec, EstimateCost, Analyze, BulkLoad) are serialized by an
// internal mutex, so one engine can be shared by concurrent advisors; Exec
// documents the one execution path and what it holds the mutex for.
// Read-only accessors (Counters, TopologyView, TableFootprint,
// CurrentDesign, Explain, SimNow, Faults, ShardHeat, RepairStats,
// RepairLog, NodeStates) serve the atomically published engine view
// instead: they return immediately — with the state as of the last
// completed operation — even while a long batch is running.
type Engine struct {
	Schema *schema.Schema
	HW     hardware.Profile
	Flavor Flavor

	mu      sync.Mutex
	cluster *cluster.Cluster
	trueCat *stats.Catalog
	estCat  *stats.Catalog
	estim   *costmodel.NoisyModel

	// layout caches the immutable snapshot of the deployed placement for
	// the cluster's current revision; view is the lock-free published read
	// state (layout + counters + clock), refreshed at the end of every
	// stateful operation. scratches pools per-worker execution scratch
	// (arena + reusable executor buffers) across queries and batches.
	layout    *layoutSnap
	view      atomic.Pointer[engineView]
	scratches []*execScratch

	// heat is the cumulative per-shard access matrix (schema-table-order ×
	// node, flat), fed by the charged prefix of every deployed Exec; heatIdx
	// maps table name → row. See heat.go.
	heat    []int64
	heatIdx map[string]int

	// faults is the armed fault schedule (nil = perfect cluster) and
	// simNow the simulated clock it is evaluated against; see faults.go.
	faults *faults.Injector
	simNow float64
	// batchSeq numbers deployed Exec requests; it keys the positional
	// transient-failure derivation.
	batchSeq uint64

	// Self-healing state (see heal.go): when selfHeal is armed, the engine
	// watches the schedule for rejoin/heal events past lastHeal and repairs
	// nodes that missed the mutations recorded in pending.
	selfHeal  bool
	lastHeal  float64
	pending   []pendingMutation
	repairLog []RepairRecord

	// Counters for experiment accounting. They are updated under the
	// engine mutex; concurrent readers must use Counters() for a coherent
	// snapshot (direct field reads are only safe single-threaded).
	// Conservation invariant (audited by internal/chaos):
	// BytesMoved == DeployedBytes + RepairedBytes, always.
	QueriesExecuted int
	Repartitions    int
	BytesMoved      int64
	// DeployedBytes is the share of BytesMoved charged by Deploy;
	// RepairedBytes the share charged by self-healing repairs, with
	// Repairs counting executed node repairs.
	DeployedBytes int64
	RepairedBytes int64
	Repairs       int
}

// New builds an engine over materialized data. Tables without data are
// loaded empty.
func New(sch *schema.Schema, data map[string]*relation.Relation, hw hardware.Profile, flavor Flavor) *Engine {
	e := &Engine{Schema: sch, HW: hw, Flavor: flavor, cluster: cluster.New(hw.Nodes)}
	e.heat = make([]int64, len(sch.Tables)*hw.Nodes)
	e.heatIdx = make(map[string]int, len(sch.Tables))
	for i, t := range sch.Tables {
		e.heatIdx[t.Name] = i
	}
	for _, t := range sch.Tables {
		rel := data[t.Name]
		if rel == nil {
			rel = relation.New(t.Name, t.AttributeNames())
		}
		e.cluster.Load(t.Name, rel, t.RowWidth())
	}
	e.trueCat = BuildCatalog(sch, data)
	for _, t := range sch.Tables {
		if e.trueCat.Table(t.Name) == nil {
			e.trueCat.SetTable(t.Name, &stats.TableStats{Rows: 0, RowWidth: t.RowWidth(), Columns: map[string]*stats.ColumnStats{}})
		}
	}
	e.Analyze() // publishes the first view
	return e
}

// Cluster exposes the underlying cluster (tests, diagnostics). Callers that
// mutate it directly bump the cluster revision, which invalidates the
// engine's cached layout snapshot on the next operation.
func (e *Engine) Cluster() *cluster.Cluster { return e.cluster }

// TrueCatalog exposes the maintained true statistics.
func (e *Engine) TrueCatalog() *stats.Catalog { return e.trueCat }

// designOf converts a partitioning state's table design to the cluster form,
// carrying the hot-shard mitigation fields (salt, hot-split) through to the
// physical layout.
func designOf(st *partition.State, table string) cluster.Design {
	if key, ok := st.KeyOf(table); ok {
		td := st.Design(table)
		return cluster.Design{Key: key, Salt: td.Salt, HotSplit: td.HotSplit}
	}
	return cluster.Design{Replicated: true}
}

// Deploy applies the designs of the given tables (all schema tables when
// tables is nil) and returns the simulated repartitioning time: moved bytes
// over the interconnect plus a fixed per-changed-table overhead. The
// caller implements lazy repartitioning by passing only the tables the next
// queries touch.
func (e *Engine) Deploy(st *partition.State, tables []string) float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	defer e.publishLocked()
	if tables == nil {
		tables = e.Schema.TableNames()
	}
	e.healLocked()
	// Repartitioning moves data over the interconnect, so an active
	// bandwidth degradation slows it down.
	net := e.HW.NetBytesPerSec
	if e.faults != nil {
		net *= e.faults.NetFactor(e.simNow)
	}
	var seconds float64
	for _, name := range tables {
		want := designOf(st, name)
		if e.cluster.Design(name).Equal(want) {
			continue
		}
		bytes := e.cluster.Deploy(name, want)
		e.Repartitions++
		e.BytesMoved += bytes
		e.DeployedBytes += bytes
		e.recordMutationLocked(name)
		seconds += float64(bytes)/(float64(e.HW.Nodes)*net) + e.HW.RepartitionOverheadSec
	}
	e.simNow += seconds
	return seconds
}

// CurrentDesign returns the deployed design of a table, served lock-free
// from the published view (it never blocks behind a running batch).
func (e *Engine) CurrentDesign(table string) cluster.Design {
	return e.loadView().layout.table(table).design
}

// Counters returns a coherent snapshot of the accounting counters, served
// lock-free from the published view.
func (e *Engine) Counters() (queriesExecuted, repartitions int, bytesMoved int64) {
	v := e.loadView()
	return v.queries, v.repartitions, v.bytesMoved
}

// Topology is a coherent snapshot of cluster health at one simulated
// instant, for feasibility checks that must not race with engine mutations.
type Topology struct {
	// Now is the simulated clock the snapshot was taken at.
	Now float64
	// Nodes is the configured cluster size.
	Nodes int
	// Down[i] reports node i crashed, Unreachable[i] partition-isolated
	// from the coordinator side, Permanent[i] inside a crash window that
	// never closes (the node will not rejoin).
	Down, Unreachable, Permanent []bool
	// Live counts nodes neither down nor unreachable.
	Live int
}

// TopologyView snapshots node health from one published view (lock-free;
// coherent because each view is immutable). With no injector armed every
// node is live.
func (e *Engine) TopologyView() Topology {
	v := e.loadView()
	nodes := e.HW.Nodes
	tv := Topology{
		Now:         v.now,
		Nodes:       nodes,
		Down:        make([]bool, nodes),
		Unreachable: make([]bool, nodes),
		Permanent:   make([]bool, nodes),
	}
	if v.faults != nil {
		nodeStateAt(v.faults, nodes, v.now, tv.Down, tv.Unreachable)
		for n := 0; n < nodes; n++ {
			tv.Permanent[n] = v.faults.PermanentlyLost(n, v.now)
		}
	}
	for n := 0; n < nodes; n++ {
		if !tv.Down[n] && !tv.Unreachable[n] {
			tv.Live++
		}
	}
	return tv
}

// TableFootprint returns the table's true row count and base byte size (one
// copy, before replication) as of the published view, for deploy-size
// feasibility checks. Lock-free.
func (e *Engine) TableFootprint(table string) (rows, bytes int64) {
	t := e.loadView().layout.tables[table]
	if t == nil {
		return 0, 0
	}
	return t.rows, t.bytes
}

// Explain executes the query with plan tracing and returns the chosen
// operators (scan placements, join order and distribution strategies) —
// an EXPLAIN ANALYZE equivalent for the simulated engine.
// Explain is a pure diagnostic, not a measurement: it neither counts as an
// executed query, advances the simulated clock, consumes a batch number nor
// draws a transient failure. It runs lock-free against the published view
// (so it works even mid-batch, seeing the pre-batch state), including the
// fault state at the published clock — a failing step appends an ERROR line
// to the plan.
func (e *Engine) Explain(g *sqlparse.Graph) (plan []string, seconds float64) {
	v := e.loadView()
	var s execScratch // private stack scratch: Explain never touches the pool
	x := s.prepare(v.layout, g, 0, v.now, newFaultCtx(v.faults, e.HW.Nodes, v.now))
	x.trace = &plan
	seconds, _ = x.run()
	if x.err != nil {
		plan = append(plan, "ERROR: "+x.err.Error())
	}
	return plan, seconds
}

// EstimateCost exposes the optimizer's cost estimate for a hypothetical
// partitioning ("what-if" mode). It returns ok == false on the Memory
// flavor, mirroring System-X not exposing estimates (§7.1).
func (e *Engine) EstimateCost(st *partition.State, g *sqlparse.Graph) (float64, bool) {
	if e.Flavor == Memory {
		return 0, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.estim.QueryCost(st, g), true
}

// Analyze refreshes the optimizer's statistics from the true statistics
// (ANALYZE). Until called after bulk updates, estimates are stale. The new
// catalog pointer invalidates the cached layout snapshot, so queries after
// an Analyze plan with the fresh statistics.
func (e *Engine) Analyze() {
	e.mu.Lock()
	defer e.mu.Unlock()
	defer e.publishLocked()
	e.estCat = e.trueCat.Clone()
	e.estim = &costmodel.NoisyModel{
		Base:         costmodel.New(e.estCat, e.HW),
		SigmaPerJoin: estimateNoiseSigma,
	}
}

// BulkLoad appends rows to a table following its current design, updating
// true statistics but leaving optimizer statistics stale (paper Exp. 3a).
// The appended shards are built copy-on-write, so snapshot readers of the
// pre-load layout stay consistent. Loading into an unknown table is a
// caller error, reported rather than panicking so a bad CLI flag can't
// crash with a stack trace.
func (e *Engine) BulkLoad(table string, rows *relation.Relation) error {
	t := e.Schema.Table(table)
	if t == nil {
		return fmt.Errorf("exec: bulk load into unknown table %q", table)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	defer e.publishLocked()
	e.healLocked()
	e.cluster.Append(table, rows)
	e.recordMutationLocked(table)
	e.trueCat.SetTable(table, BuildTableStats(e.cluster.Base(table), t))
	return nil
}
