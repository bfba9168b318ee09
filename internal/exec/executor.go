package exec

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"partadvisor/internal/hardware"
	"partadvisor/internal/relation"
	"partadvisor/internal/sqlparse"
)

// intermediate column width in bytes (int64 columns).
const colWidth = 8

// dist is one distributed (intermediate) relation during execution.
type dist struct {
	mask    uint64               // bitmask over g.Refs
	shards  []*relation.Relation // per node; nil when replicated
	replica *relation.Relation   // full copy when replicated
	// partCols records the hash key: position i holds the set of
	// equivalent qualified column names the shards are hashed by. nil means
	// unknown placement (round-robin).
	partCols [][]string
	estRows  float64 // optimizer's cardinality estimate (drives strategy)
}

func (d *dist) replicated() bool { return d.replica != nil }

func (d *dist) numCols() int {
	if d.replicated() {
		return d.replica.NumCols()
	}
	return d.shards[0].NumCols()
}

func (d *dist) realRows() int {
	if d.replicated() {
		return d.replica.Rows()
	}
	n := 0
	for _, s := range d.shards {
		n += s.Rows()
	}
	return n
}

func (d *dist) estBytes() float64 { return d.estRows * float64(d.numCols()) * colWidth }

// jpred is a crossing join predicate normalized so that aCol belongs to the
// first operand.
type jpred struct {
	aCol, bCol string
	semi, anti bool
	outerA     bool // for semi/anti: the surviving (outer) side is a
}

// predsString renders join predicates for plan traces.
func predsString(preds []jpred) string {
	out := ""
	for i, p := range preds {
		if i > 0 {
			out += " AND "
		}
		out += p.aCol + "=" + p.bCol
	}
	return out
}

// executor runs one query against an immutable layout snapshot. It is
// embedded in an execScratch and recycled across queries: the maps and
// join buffers below are cleared (not reallocated) between runs, and all
// intermediate column storage comes from the scratch arena, which is
// rewound after every query. An executor therefore performs no engine
// access at all while running — batch workers share the snapshot
// lock-free.
type executor struct {
	lay   *layoutSnap
	g     *sqlparse.Graph
	limit float64
	// now is the simulated clock the query was submitted at (batch start
	// for batched queries) — failure timestamps are stamped with it.
	now float64
	// ar allocates intermediate column storage; invalidated by the
	// per-query arena reset.
	ar *relation.Arena

	time    float64
	aborted bool

	// fc is the fault state sampled at query start (nil = no faults) and
	// err the first injected failure hit (lost shard, no live replica).
	fc  *faultCtx
	err error

	aliasIdx map[string]int
	colTable map[string]string // qualified col -> base table
	colBase  map[string]string // qualified col -> base column
	items    []*dist
	// trace records the planned operators when non-nil (Engine.Explain).
	trace *[]string

	// joins holds the graph's join edges with alias positions resolved and
	// column names qualified once per query (prepare), and preds is the
	// buffer crossingPreds fills — both recycled across queries.
	joins []graphJoin
	preds []jpred

	// filters holds every alias's filters compiled once per query
	// (prepare), grouped by alias: g.Refs[i]'s are
	// filters[filterAt[i]:filterAt[i+1]]. Both are recycled.
	filters  []scanFilter
	filterAt []int

	// Recycled scan/shuffle buffers: the scan's selection vector (the
	// shuffle's assignment buffer), sized to the largest shard seen, and
	// per-target counters.
	rows32 []int32
	counts []int

	// The join kernel's recycled state (see buildTable, probeTable): bucket
	// heads and chains of the one live hash table, the inner relation it
	// was built on with its key columns, the probe side's key columns, the
	// matched (aRow, bRow) pairs of the current probe and the output column
	// names.
	buckets   []int32
	slots     []joinSlot
	shift     uint
	tableOf   *relation.Relation
	innerKeys [][]int64
	outerKeys [][]int64
	pairA     []int32
	pairB     []int32
	outCols   []string

	// heat accumulates this query's per-shard emitted-row counts (see
	// heat.go); recycled across queries, reset by prepare.
	heat []heatEntry
}

func (x *executor) charge(seconds float64) bool {
	x.time += seconds
	if x.limit > 0 && x.time >= x.limit {
		// The query is killed at the deadline (§4.2): the consumed time
		// never exceeds the limit.
		x.time = x.limit
		x.aborted = true
		return false
	}
	return true
}

// slowdown is the node's straggler multiplier for this query (1 without
// faults).
func (x *executor) slowdown(node int) float64 {
	if x.fc == nil {
		return 1
	}
	return x.fc.slow[node]
}

// maxLiveSlowdown is the straggler multiplier gating work every live node
// performs in parallel (the slowest survivor finishes last).
func (x *executor) maxLiveSlowdown() float64 {
	if x.fc == nil {
		return 1
	}
	f := 1.0
	for _, n := range x.fc.live {
		if s := x.fc.slow[n]; s > f {
			f = s
		}
	}
	return f
}

// fail records the first injected failure.
func (x *executor) fail(err error) {
	if x.err == nil {
		x.err = err
	}
	x.tracef("fault: %v", err)
}

// tracef records one plan step when tracing is enabled.
func (x *executor) tracef(format string, args ...interface{}) {
	if x.trace != nil {
		*x.trace = append(*x.trace, fmt.Sprintf(format, args...))
	}
}

// run executes scans then joins and returns (simulated seconds, aborted).
func (x *executor) run() (float64, bool) {
	x.time = x.lay.hw.QueryOverheadSec
	for ri := range x.g.Refs {
		d := x.scan(ri)
		if x.err != nil {
			// The scheduler aborts as soon as it discovers missing data.
			return x.time, false
		}
		x.items = append(x.items, d)
		if x.aborted {
			return x.time, true
		}
	}
	for len(x.items) > 1 {
		ai, bi := x.pickJoin()
		if ai < 0 {
			break // remaining items are cartesian components; nothing to join
		}
		joined := x.join(x.items[ai], x.items[bi])
		// Remove bi first (bi > ai is not guaranteed; handle both orders).
		if ai > bi {
			ai, bi = bi, ai
		}
		x.items[ai] = joined
		x.items = append(x.items[:bi], x.items[bi+1:]...)
		if x.aborted {
			return x.time, true
		}
	}
	return x.time, false
}

// neededCols returns the qualified columns the executor must materialize for
// an alias: its join columns plus the select-list/GROUP BY columns it
// contributes (so shuffled intermediates carry realistic payload widths),
// with one fallback column so row counts survive projection.
func (x *executor) neededCols(alias, table string) []string {
	set := make(map[string]bool)
	for _, j := range x.g.Joins {
		if j.LeftAlias == alias {
			set[j.LeftCol] = true
		}
		if j.RightAlias == alias {
			set[j.RightCol] = true
		}
	}
	for _, o := range x.g.Outputs {
		if o.Alias == alias {
			set[o.Column] = true
		}
	}
	if len(set) == 0 {
		set[x.lay.schema.MustTable(table).Attributes[0].Name] = true
	}
	cols := make([]string, 0, len(set))
	for c := range set {
		cols = append(cols, c)
	}
	sort.Strings(cols)
	return cols
}

// scan reads one alias (g.Refs[ri]): per-node filter + project, charging
// scan bandwidth on the stored bytes and CPU per scanned row. Filters run
// a column at a time over a selection vector of row ids, then only the
// needed columns of the surviving rows are gathered into exact-size arena
// storage under alias-qualified names; an unfiltered scan is zero-copy
// (the intermediate aliases the stored shard columns).
func (x *executor) scan(ri int) *dist {
	ref := x.g.Refs[ri]
	t := x.lay.table(ref.Table)
	hw := x.lay.hw
	baseCols := x.neededCols(ref.Alias, ref.Table)
	qcols := make([]string, len(baseCols))
	for i, c := range baseCols {
		q := ref.Alias + "." + c
		qcols[i] = q
		x.colTable[q] = ref.Table
		x.colBase[q] = c
	}
	filters := x.filtersOf(ri)
	apply := func(shard *relation.Relation) *relation.Relation {
		if len(filters) == 0 {
			// Zero-copy scan path: share the stored (possibly cached) shard
			// columns under qualified names — no row is copied.
			data := make([][]int64, len(baseCols))
			for i, c := range baseCols {
				data[i] = shard.Col(c)
			}
			return relation.FromColumns(ref.Alias, qcols, data)
		}
		// Only the needed columns of the selected rows are gathered, into
		// exact-size arena columns.
		sel := x.selectRows(shard, filters)
		data := make([][]int64, len(baseCols))
		for i, c := range baseCols {
			data[i] = x.gather(shard.Col(c), sel)
		}
		return relation.FromColumns(ref.Alias, qcols, data)
	}

	rowWidth := float64(t.rowWidth)
	d := &dist{mask: 1 << uint(ri), estRows: x.estScanRows(ri, ref.Table)}
	if t.replica != nil {
		// Every node scans its own full copy; with crashed nodes the
		// survivors carry on (replica-aware failover), gated by the
		// slowest surviving straggler.
		if x.fc != nil && len(x.fc.live) == 0 {
			x.fail(&UnavailableError{Table: ref.Table, Node: -1, Replicated: true})
			return d
		}
		replica := t.replica
		d.replica = apply(replica)
		bytes := float64(replica.Rows()) * rowWidth
		x.charge((bytes/hw.ScanBytesPerSec + float64(replica.Rows())/hw.CPUTuplesPerSec) * x.maxLiveSlowdown())
		// Every live node scans its own full copy, so a replicated scan
		// heats every survivor equally — by construction it cannot skew.
		if emitted := int64(d.replica.Rows()); emitted > 0 {
			if x.fc != nil {
				for _, n := range x.fc.live {
					x.addHeat(ref.Table, n, emitted)
				}
			} else {
				for n := 0; n < hw.Nodes; n++ {
					x.addHeat(ref.Table, n, emitted)
				}
			}
		}
		if x.fc != nil && len(x.fc.live) < len(x.fc.down) {
			x.tracef("scan %s as %s [replicated, %d rows, failover to %d/%d live nodes]",
				ref.Table, ref.Alias, replica.Rows(), len(x.fc.live), len(x.fc.down))
		} else {
			x.tracef("scan %s as %s [replicated, %d rows]", ref.Table, ref.Alias, replica.Rows())
		}
		return d
	}
	shards := t.shards
	d.shards = make([]*relation.Relation, len(shards))
	maxSec := 0.0
	for i, s := range shards {
		if x.fc != nil && s.Rows() > 0 {
			if x.fc.down[i] {
				// A non-empty hash shard died with its node: the query
				// cannot produce a correct answer.
				x.fail(&UnavailableError{Table: ref.Table, Node: i})
				return d
			}
			if x.fc.unreach[i] {
				// The shard is alive but across the partition: reading it
				// would need a cross-partition shuffle, which the engine
				// refuses. The query fails until the partition heals.
				x.fail(&PartitionError{Table: ref.Table, Node: i, At: x.now})
				return d
			}
		}
		d.shards[i] = apply(s)
		x.addHeat(ref.Table, i, int64(d.shards[i].Rows()))
		sec := (float64(s.Rows())*rowWidth/hw.ScanBytesPerSec + float64(s.Rows())/hw.CPUTuplesPerSec) * x.slowdown(i)
		if sec > maxSec {
			maxSec = sec
		}
	}
	x.charge(maxSec)
	x.tracef("scan %s as %s [%s, %d rows]", ref.Table, ref.Alias, t.design, d.realRows())
	// Salted and hot-split layouts spread equal key values across nodes, so
	// the shards are NOT hash-pure on the key: advertising partCols would let
	// the join planner zip shards as if co-partitioned and silently drop
	// matches. Only a plain hash layout carries its partitioning downstream.
	if design := t.design; len(design.Key) > 0 && design.Salt == 0 && !design.HotSplit {
		d.partCols = make([][]string, len(design.Key))
		for i, k := range design.Key {
			d.partCols[i] = []string{ref.Alias + "." + k}
		}
	}
	return d
}

// selectRows returns the ids of the shard's rows that pass every filter
// (len(filters) > 0), ascending, in the recycled selection vector (valid
// until the next scan or shuffle). The first filter writes the rows it
// keeps over the whole column; each later one compacts the vector in
// place, reading only its column's values at the surviving rows.
func (x *executor) selectRows(shard *relation.Relation, filters []scanFilter) []int32 {
	n := shard.Rows()
	if cap(x.rows32) < n {
		x.rows32 = make([]int32, n)
	}
	sel := x.rows32[:n]
	k := filters[0].first(shard.Col(filters[0].src.Column), sel)
	for i := 1; i < len(filters) && k > 0; i++ {
		k = filters[i].refine(shard.Col(filters[i].src.Column), sel[:k])
	}
	return sel[:k]
}

// gather copies the given rows of one column into an exact-size arena
// column.
func (x *executor) gather(src []int64, rows []int32) []int64 {
	dst := x.ar.Int64s(len(rows))
	for i, row := range rows {
		dst[i] = src[row]
	}
	return dst
}

// filtersOf returns g.Refs[ri]'s compiled filters.
func (x *executor) filtersOf(ri int) []scanFilter {
	return x.filters[x.filterAt[ri]:x.filterAt[ri+1]]
}

// estScanRows is the optimizer's (possibly stale) estimate of the filtered
// cardinality of g.Refs[ri], an alias of table.
func (x *executor) estScanRows(ri int, table string) float64 {
	cat := x.lay.estCat
	rows := float64(cat.Rows(table))
	for _, cf := range x.filtersOf(ri) {
		f := cf.src
		s := cat.Selectivity(table, f.Column, f.Op, f.Args)
		if f.Neg {
			s = 1 - s
		}
		rows *= s
	}
	return math.Max(rows, 1)
}

// graphJoin is one join edge of the query graph as the planner reads it:
// the two aliases as bits over g.Refs and the two columns qualified
// ("alias.col"). prepare builds them once per query, so the planner's
// pair enumeration concatenates no strings.
type graphJoin struct {
	lBit, rBit uint64
	lq, rq     string
	semi, anti bool
}

// crossingPreds returns the normalized join predicates between two
// intermediates (empty if unrelated). The result lives in a recycled
// buffer and is valid until the next call.
func (x *executor) crossingPreds(a, b *dist) []jpred {
	out := x.preds[:0]
	for i := range x.joins {
		j := &x.joins[i]
		switch {
		case a.mask&j.lBit != 0 && b.mask&j.rBit != 0:
			out = append(out, jpred{aCol: j.lq, bCol: j.rq, semi: j.semi, anti: j.anti, outerA: true})
		case b.mask&j.lBit != 0 && a.mask&j.rBit != 0:
			out = append(out, jpred{aCol: j.rq, bCol: j.lq, semi: j.semi, anti: j.anti, outerA: false})
		}
	}
	x.preds = out[:0]
	return out
}

// pickJoin chooses the next pair of intermediates: the joinable pair with
// the smallest estimated output (greedy optimizer driven by estimated
// statistics).
func (x *executor) pickJoin() (int, int) {
	bi, bj := -1, -1
	best := math.Inf(1)
	for i := 0; i < len(x.items); i++ {
		for j := i + 1; j < len(x.items); j++ {
			preds := x.crossingPreds(x.items[i], x.items[j])
			if len(preds) == 0 {
				continue
			}
			if est := x.estJoinRows(x.items[i], x.items[j], preds); est < best {
				best, bi, bj = est, i, j
			}
		}
	}
	return bi, bj
}

// estJoinRows is the optimizer's output estimate for a join.
func (x *executor) estJoinRows(a, b *dist, preds []jpred) float64 {
	rows := a.estRows * b.estRows
	for _, p := range preds {
		da := x.estDistinct(p.aCol, a.estRows)
		db := x.estDistinct(p.bCol, b.estRows)
		rows /= math.Max(math.Max(da, db), 1)
	}
	semi, anti, outerA := classifySemi(preds)
	switch {
	case anti:
		outer := a.estRows
		if !outerA {
			outer = b.estRows
		}
		rows = math.Max(outer-rows, 1)
	case semi:
		outer := a.estRows
		if !outerA {
			outer = b.estRows
		}
		rows = math.Min(rows, outer)
	}
	return math.Max(rows, 1)
}

func (x *executor) estDistinct(qcol string, sideRows float64) float64 {
	table, col := x.colTable[qcol], x.colBase[qcol]
	d := float64(x.lay.estCat.Distinct(table, col))
	return math.Min(d, math.Max(sideRows, 1))
}

// classifySemi reports whether the predicate set forms a semi/anti join with
// a consistent outer side.
func classifySemi(preds []jpred) (semi, anti, outerA bool) {
	allSemi := true
	anyAnti := false
	outerA = preds[0].outerA
	for _, p := range preds {
		if !p.semi && !p.anti {
			allSemi = false
		}
		if p.anti {
			anyAnti = true
		}
		if p.outerA != outerA {
			allSemi = false
		}
	}
	if !allSemi {
		return false, false, true
	}
	return true, anyAnti, outerA
}

// join executes one distributed join, choosing the cheapest strategy under
// *estimated* sizes and paying real costs.
func (x *executor) join(a, b *dist) *dist {
	preds := x.crossingPreds(a, b)
	hw := x.lay.hw
	n := float64(hw.Nodes)
	estOut := x.estJoinRows(a, b, preds)

	// Resolve semi/anti orientation: the executor's local join keeps "a" as
	// the outer side, so swap when the outer side is b.
	semi, anti, outerA := classifySemi(preds)
	if (semi || anti) && !outerA {
		a, b = b, a
		for i := range preds {
			preds[i].aCol, preds[i].bCol = preds[i].bCol, preds[i].aCol
			preds[i].outerA = true
		}
	}
	mode := modeInner
	if anti {
		mode = modeAnti
	} else if semi {
		mode = modeSemi
	}

	out := &dist{mask: a.mask | b.mask, estRows: estOut}

	switch {
	case a.replicated() && b.replicated():
		x.tracef("join %s [both-replicated, local]", predsString(preds))
		joined, cpuRows := x.hashJoin(a.replica, b.replica, preds, mode)
		x.charge(float64(cpuRows) / hw.CPUTuplesPerSec * x.maxLiveSlowdown())
		out.replica = joined
		return out
	case a.replicated() && mode != modeInner:
		// Semi/anti join with a replicated outer side: every node holds all
		// outer rows, so per-node independent joins would multiply-count
		// matches. Gather the inner side to every node and compute the
		// (identical) result once; it is replicated.
		x.tracef("join %s [semi/anti against replicated outer: gather inner]", predsString(preds))
		full, movedB, movedR := x.broadcast(b)
		x.chargeNet(movedB, movedR)
		joined, cpuRows := x.hashJoin(a.replica, full, preds, mode)
		x.charge(float64(cpuRows) / hw.CPUTuplesPerSec * x.maxLiveSlowdown())
		out.replica = joined
		return out
	case a.replicated() || b.replicated():
		x.tracef("join %s [one side replicated, local]", predsString(preds))
		// Local join against the replicated side on every node.
		if a.replicated() {
			x.joinShards(out, b.shards, a.replica, false, preds, mode)
			out.partCols = augmentPartCols(b.partCols, preds)
		} else {
			x.joinShards(out, a.shards, b.replica, true, preds, mode)
			out.partCols = augmentPartCols(a.partCols, preds)
		}
		return out
	}

	// Both sides partitioned. Candidate strategies by estimated bytes.
	if merged := colocatedPartCols(a, b, preds); merged != nil {
		x.tracef("join %s [co-located]", predsString(preds))
		x.localJoinShards(out, a.shards, b.shards, preds, mode)
		out.partCols = merged
		return out
	}
	aAligned := alignedKeys(a.partCols, preds, true)
	bAligned := alignedKeys(b.partCols, preds, false)

	type strategy struct {
		name string
		cost float64
	}
	cands := []strategy{
		{"broadcast-b", b.estBytes() * (n - 1)},
		{"broadcast-a", a.estBytes() * (n - 1)},
		{"shuffle-both", (a.estBytes() + b.estBytes()) * (n - 1) / n},
	}
	if aAligned != nil {
		cands = append(cands, strategy{"shuffle-b-to-a", b.estBytes() * (n - 1) / n})
	}
	if bAligned != nil {
		cands = append(cands, strategy{"shuffle-a-to-b", a.estBytes() * (n - 1) / n})
	}
	// Broadcasting the outer side of a semi/anti join would duplicate or
	// lose outer rows; disallow it.
	if mode != modeInner {
		filtered := cands[:0]
		for _, c := range cands {
			if c.name != "broadcast-a" {
				filtered = append(filtered, c)
			}
		}
		cands = filtered
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if c.cost < best.cost {
			best = c
		}
	}
	x.tracef("join %s [%s]", predsString(preds), best.name)

	switch best.name {
	case "broadcast-b":
		full, movedB, movedR := x.broadcast(b)
		x.chargeNet(movedB, movedR)
		x.joinShards(out, a.shards, full, true, preds, mode)
		out.partCols = augmentPartCols(a.partCols, preds)
	case "broadcast-a":
		full, movedB, movedR := x.broadcast(a)
		x.chargeNet(movedB, movedR)
		x.joinShards(out, b.shards, full, false, preds, mode)
		out.partCols = augmentPartCols(b.partCols, preds)
	case "shuffle-b-to-a":
		// The moving side must match the stationary side's existing
		// hash-mod-N placement, so crashed nodes stay in the mapping; the
		// stationary side provably holds no data there (a non-empty shard
		// on a crashed node fails the query at scan time), so rows routed
		// toward a dead node's empty bucket match nothing.
		keysB := pairedCols(a.partCols, preds, true)
		bShards, movedB, movedR := x.shuffle(b.shards, keysB, nil)
		x.chargeNet(movedB, movedR)
		x.localJoinShards(out, a.shards, bShards, preds, mode)
		out.partCols = augmentPartCols(a.partCols, preds)
	case "shuffle-a-to-b":
		keysA := pairedCols(b.partCols, preds, false)
		aShards, movedB, movedR := x.shuffle(a.shards, keysA, nil)
		x.chargeNet(movedB, movedR)
		x.localJoinShards(out, aShards, b.shards, preds, mode)
		out.partCols = augmentPartCols(b.partCols, preds)
	default: // shuffle-both
		sorted := append([]jpred(nil), preds...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].aCol < sorted[j].aCol })
		keysA := make([]string, len(sorted))
		keysB := make([]string, len(sorted))
		pc := make([][]string, len(sorted))
		for i, p := range sorted {
			keysA[i], keysB[i] = p.aCol, p.bCol
			pc[i] = []string{p.aCol, p.bCol}
		}
		// Re-hashing both sides is free to pick any placement, so with
		// crashed nodes the live nodes take over the full key range. The
		// live-node mapping differs from the base tables' hash-mod-N one,
		// so the output's placement is unknown to downstream joins.
		live := x.liveTargets()
		aShards, movedBytesA, movedRowsA := x.shuffle(a.shards, keysA, live)
		bShards, movedBytesB, movedRowsB := x.shuffle(b.shards, keysB, live)
		x.chargeNet(movedBytesA+movedBytesB, movedRowsA+movedRowsB)
		x.localJoinShards(out, aShards, bShards, preds, mode)
		if live == nil {
			out.partCols = pc
		}
	}
	return out
}

// liveTargets returns the shuffle target nodes when some nodes are down
// (nil when every node is live, preserving the exact hash-mod-N layout).
func (x *executor) liveTargets() []int {
	if x.fc == nil || len(x.fc.live) == len(x.fc.down) {
		return nil
	}
	return x.fc.live
}

// chargeNet books data movement: wire time plus per-tuple (de)serialization
// CPU — distributed engines rarely shuffle at wire speed. An active
// bandwidth degradation shrinks the effective interconnect speed.
func (x *executor) chargeNet(movedBytes, movedRows int64) {
	hw := x.lay.hw
	n := float64(hw.Nodes)
	net := hw.NetBytesPerSec
	if x.fc != nil {
		net *= x.fc.net
	}
	x.charge(float64(movedBytes)/(n*net) + float64(movedRows)/(n*hardware.SerializationSpeedup*hw.CPUTuplesPerSec))
}

// localJoinShards joins co-located shard pairs, charging the straggler
// (max-over-nodes) CPU time.
func (x *executor) localJoinShards(out *dist, aShards, bShards []*relation.Relation, preds []jpred, mode joinMode) {
	out.shards = make([]*relation.Relation, len(aShards))
	maxCPU := 0.0
	for i := range aShards {
		joined, cpuRows := x.hashJoin(aShards[i], bShards[i], preds, mode)
		out.shards[i] = joined
		maxCPU = math.Max(maxCPU, float64(cpuRows)/x.lay.hw.CPUTuplesPerSec*x.slowdown(i))
	}
	x.charge(maxCPU)
}

// joinShards joins every shard with one relation all nodes hold in full (a
// replica or a broadcast copy), charging the straggler CPU time. When the
// shared relation is the inner (build) side of every node's join, its table
// is built once and probed per shard; a shared outer probes a table built
// per shard.
func (x *executor) joinShards(out *dist, shards []*relation.Relation, all *relation.Relation, allIsInner bool, preds []jpred, mode joinMode) {
	out.shards = make([]*relation.Relation, len(shards))
	if allIsInner {
		x.buildTable(all, preds)
	}
	maxCPU := 0.0
	for i, shard := range shards {
		var joined *relation.Relation
		var cpuRows int
		if allIsInner {
			joined, cpuRows = x.probeTable(shard, all, preds, mode)
		} else {
			joined, cpuRows = x.hashJoin(all, shard, preds, mode)
		}
		out.shards[i] = joined
		maxCPU = math.Max(maxCPU, float64(cpuRows)/x.lay.hw.CPUTuplesPerSec*x.slowdown(i))
	}
	x.charge(maxCPU)
}

// broadcast concatenates all shards into a full copy shipped to every node
// (every live node when some are down). The concatenated columns are
// exact-size arena allocations filled with bulk copies.
func (x *executor) broadcast(d *dist) (full *relation.Relation, movedBytes, movedRows int64) {
	nc := d.shards[0].NumCols()
	total := 0
	for _, s := range d.shards {
		total += s.Rows()
	}
	data := make([][]int64, nc)
	for ci := 0; ci < nc; ci++ {
		dst := x.ar.Int64s(total)
		w := 0
		for _, s := range d.shards {
			w += copy(dst[w:], s.ColAt(ci))
		}
		data[ci] = dst
	}
	full = relation.FromColumns(d.shards[0].Name, d.shards[0].Columns(), data)
	receivers := int64(x.lay.hw.Nodes - 1)
	if x.fc != nil && len(x.fc.live) < len(x.fc.down) {
		receivers = int64(len(x.fc.live) - 1)
	}
	movedRows = int64(full.Rows()) * receivers
	movedBytes = movedRows * int64(full.NumCols()) * colWidth
	return full, movedBytes, movedRows
}

// shuffle rehashes shards by the given qualified columns, counting the bytes
// of rows that change node. A non-nil live set maps hash buckets onto
// those nodes only (crashed nodes receive nothing); nil preserves the
// hash-mod-N placement of deployed base tables.
//
// One hashing pass records each row's target (and the moved count); the
// target shards are then allocated at exact size from the arena and filled
// in a second scatter pass. Execution intermediates share one column
// order across shards (they come from the same scan/join construction),
// so columns are matched by position.
func (x *executor) shuffle(shards []*relation.Relation, cols []string, live []int) (out []*relation.Relation, movedBytes, movedRows int64) {
	n := len(shards)
	names := shards[0].Columns()
	nc := shards[0].NumCols()
	total := 0
	for _, s := range shards {
		total += s.Rows()
	}
	if cap(x.rows32) < total {
		x.rows32 = make([]int32, total)
	}
	asgn := x.rows32[:total]
	if cap(x.counts) < n {
		x.counts = make([]int, n)
	}
	counts := x.counts[:n]
	for i := range counts {
		counts[i] = 0
	}
	idxs := make([]int, len(cols))
	p := 0
	for node, shard := range shards {
		for i, c := range cols {
			idxs[i] = shard.ColIndex(c)
			if idxs[i] < 0 {
				panic(fmt.Sprintf("exec: shuffle column %q missing from %v", c, shard.Columns()))
			}
		}
		rows := shard.Rows()
		for row := 0; row < rows; row++ {
			var target int
			if live != nil {
				target = live[int(shard.HashRow(row, idxs)%uint64(len(live)))]
			} else {
				target = int(shard.HashRow(row, idxs) % uint64(n))
			}
			if target != node {
				movedRows++
			}
			asgn[p] = int32(target)
			p++
			counts[target]++
		}
	}
	datas := make([][][]int64, n)
	for t := 0; t < n; t++ {
		data := make([][]int64, nc)
		for ci := 0; ci < nc; ci++ {
			data[ci] = x.ar.Int64s(counts[t])
		}
		datas[t] = data
	}
	for i := range counts {
		counts[i] = 0 // reuse as write cursors
	}
	srcCols := make([][]int64, nc)
	p = 0
	for _, shard := range shards {
		for ci := 0; ci < nc; ci++ {
			srcCols[ci] = shard.ColAt(ci)
		}
		rows := shard.Rows()
		for row := 0; row < rows; row++ {
			t := int(asgn[p])
			p++
			w := counts[t]
			counts[t] = w + 1
			for ci := 0; ci < nc; ci++ {
				datas[t][ci][w] = srcCols[ci][row]
			}
		}
	}
	out = make([]*relation.Relation, n)
	for t := 0; t < n; t++ {
		out[t] = relation.FromColumns(shards[0].Name, names, datas[t])
	}
	return out, movedRows * int64(nc) * colWidth, movedRows
}

// colocatedPartCols reports whether a and b are already co-partitioned for
// the given predicates; when they are, it returns the merged hash-key
// position sets of the join result (nil otherwise).
func colocatedPartCols(a, b *dist, preds []jpred) [][]string {
	if a.partCols == nil || b.partCols == nil || len(a.partCols) != len(b.partCols) {
		return nil
	}
	merged := make([][]string, len(a.partCols))
	used := make([]bool, len(preds))
	for i := range a.partCols {
		found := false
		for pi, p := range preds {
			if used[pi] {
				continue
			}
			if containsStr(a.partCols[i], p.aCol) && containsStr(b.partCols[i], p.bCol) {
				used[pi] = true
				found = true
				merged[i] = dedupStrs(append(append(append([]string{}, a.partCols[i]...), b.partCols[i]...), p.aCol, p.bCol))
				break
			}
		}
		if !found {
			return nil
		}
	}
	return merged
}

// alignedKeys reports whether the given side's partitioning is exactly
// covered by join predicates (so only the other side must move). It returns
// the predicate permutation pairing positions, or nil.
func alignedKeys(partCols [][]string, preds []jpred, sideA bool) []int {
	if partCols == nil {
		return nil
	}
	perm := make([]int, len(partCols))
	used := make([]bool, len(preds))
	for i := range partCols {
		found := false
		for pi, p := range preds {
			if used[pi] {
				continue
			}
			col := p.aCol
			if !sideA {
				col = p.bCol
			}
			if containsStr(partCols[i], col) {
				used[pi] = true
				perm[i] = pi
				found = true
				break
			}
		}
		if !found {
			return nil
		}
	}
	return perm
}

// pairedCols returns, for each hash position of the aligned side (a when
// sideA, else b), the other side's column that must be hashed to co-locate
// with it.
func pairedCols(partCols [][]string, preds []jpred, sideA bool) []string {
	perm := alignedKeys(partCols, preds, sideA)
	out := make([]string, len(perm))
	for i, pi := range perm {
		if sideA {
			out[i] = preds[pi].bCol
		} else {
			out[i] = preds[pi].aCol
		}
	}
	return out
}

// augmentPartCols adds predicate-equivalent column names to existing hash
// positions so downstream joins can recognize co-location through either
// side's name.
func augmentPartCols(partCols [][]string, preds []jpred) [][]string {
	if partCols == nil {
		return nil
	}
	out := make([][]string, len(partCols))
	for i, set := range partCols {
		ns := append([]string{}, set...)
		for _, p := range preds {
			if containsStr(set, p.aCol) {
				ns = append(ns, p.bCol)
			}
			if containsStr(set, p.bCol) {
				ns = append(ns, p.aCol)
			}
		}
		out[i] = dedupStrs(ns)
	}
	return out
}

func containsStr(set []string, s string) bool {
	for _, v := range set {
		if v == s {
			return true
		}
	}
	return false
}

func dedupStrs(in []string) []string {
	seen := make(map[string]bool, len(in))
	out := in[:0]
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// joinMode selects inner / semi / anti hash-join semantics.
type joinMode int

const (
	modeInner joinMode = iota
	modeSemi           // keep outer rows with >= 1 match (first match's columns)
	modeAnti           // keep outer rows with no match (zero-filled inner columns)
)

// joinSlot is one inner row's entry in the join hash table: its (first) key
// value beside the link to the next row of the same bucket, so following a
// chain touches one cache line per row instead of two.
type joinSlot struct {
	key  int64
	next int32
}

// joinedName names every join output. Intermediates are anonymous: plan
// traces render predicates and strategies, never relation names.
const joinedName = "⋈"

// fibMul is 2^64/φ: multiplying by it and keeping the top bits
// (Fibonacci multiply-shift) spreads keys that differ only in their high
// or only in their low bits over all buckets with a single multiply.
const fibMul = 0x9E3779B97F4A7C15

// joinBucketsPerRow sizes the bucket array to at least this many buckets
// per inner row. Probes outnumber build rows ten to one on the design
// sweep and every inner row sharing a probe's bucket costs a cache miss
// to reject, so the table is kept sparse: most non-matching probes end
// at an empty bucket head.
const joinBucketsPerRow = 4

// foldKey mixes one more key column into a multi-column bucket hash.
func foldKey(h uint64, k int64) uint64 {
	return (bits.RotateLeft64(h, 29) ^ uint64(k)) * fibMul
}

// hashJoin joins two co-located relations: build on b, probe with a.
func (x *executor) hashJoin(a, b *relation.Relation, preds []jpred, mode joinMode) (*relation.Relation, int) {
	x.buildTable(b, preds)
	return x.probeTable(a, b, preds, mode)
}

// buildTable builds the executor's hash table on the inner relation b. The
// join loops that pair every shard with one shared inner (a replica, a
// broadcast copy) call it once and probeTable per shard.
//
// The table is a power-of-two bucket array with chained rows, recycled
// across joins and queries. Its bucket hash is private to this kernel —
// nothing but the chain a row lands on depends on it, and collisions are
// resolved by comparing keys — so it is as cheap as it can be, unlike the
// placement hash (relation.HashRow), which decides where rows live and is
// frozen. Rows are inserted in reverse so every chain, and hence the
// matches of one probe row, run in ascending b-row order.
func (x *executor) buildTable(b *relation.Relation, preds []jpred) {
	nb := b.Rows()
	logSize := uint(1)
	for 1<<logSize < joinBucketsPerRow*nb {
		logSize++
	}
	size := 1 << logSize
	if cap(x.buckets) < size {
		x.buckets = make([]int32, size)
	}
	buckets := x.buckets[:size]
	for i := range buckets {
		buckets[i] = -1
	}
	if cap(x.slots) < nb {
		x.slots = make([]joinSlot, nb)
	}
	slots := x.slots[:nb]
	shift := 64 - logSize
	keys := x.innerKeys[:0]
	for _, p := range preds {
		keys = append(keys, joinCol(b, p.bCol))
	}
	if len(keys) == 1 {
		key := keys[0]
		for row := nb - 1; row >= 0; row-- {
			h := uint64(key[row]) * fibMul >> shift
			slots[row] = joinSlot{key[row], buckets[h]}
			buckets[h] = int32(row)
		}
	} else {
		for row := nb - 1; row >= 0; row-- {
			h := uint64(keys[0][row]) * fibMul
			for _, key := range keys[1:] {
				h = foldKey(h, key[row])
			}
			h >>= shift
			slots[row] = joinSlot{keys[0][row], buckets[h]}
			buckets[h] = int32(row)
		}
	}
	x.innerKeys, x.shift, x.tableOf = keys, shift, b
}

// joinCol resolves one join key column.
func joinCol(r *relation.Relation, qcol string) []int64 {
	i := r.ColIndex(qcol)
	if i < 0 {
		panic(fmt.Sprintf("exec: join column %q missing from %v", qcol, r.Columns()))
	}
	return r.ColAt(i)
}

// probeTable probes the table built on b with every row of a and returns
// the joined relation (columns a…, b…; rows in a-row then b-row order) plus
// the number of processed tuples (build + probe + output) for CPU
// accounting.
//
// One pass over a records the matching (aRow, bRow) pairs in two recycled
// buffers — an anti join records only the unmatched aRows, it has no bRow —
// and every output column is then one exact-size arena allocation filled by
// a column-at-a-time gather (zeros for an anti join's inner columns).
// Nothing is allocated per row.
func (x *executor) probeTable(a, b *relation.Relation, preds []jpred, mode joinMode) (*relation.Relation, int) {
	if x.tableOf != b {
		panic("exec: probe of a hash table built on another relation")
	}
	buckets, slots, shift := x.buckets, x.slots, x.shift
	pairA, pairB := x.pairA[:0], x.pairB[:0]
	if len(preds) == 1 {
		for row, k := range joinCol(a, preds[0].aCol) {
			matched := false
			for br := buckets[uint64(k)*fibMul>>shift]; br >= 0; br = slots[br].next {
				if slots[br].key != k {
					continue
				}
				matched = true
				if mode == modeAnti {
					break
				}
				pairA, pairB = append(pairA, int32(row)), append(pairB, br)
				if mode == modeSemi {
					break
				}
			}
			if mode == modeAnti && !matched {
				pairA = append(pairA, int32(row))
			}
		}
	} else {
		aKeys := x.outerKeys[:0]
		for _, p := range preds {
			aKeys = append(aKeys, joinCol(a, p.aCol))
		}
		x.outerKeys = aKeys
		bKeys := x.innerKeys
		for row, k := range aKeys[0] {
			h := uint64(k) * fibMul
			for _, key := range aKeys[1:] {
				h = foldKey(h, key[row])
			}
			matched := false
		chain:
			for br := buckets[h>>shift]; br >= 0; br = slots[br].next {
				if slots[br].key != k {
					continue
				}
				for i, key := range aKeys[1:] {
					if key[row] != bKeys[i+1][br] {
						continue chain
					}
				}
				matched = true
				if mode == modeAnti {
					break
				}
				pairA, pairB = append(pairA, int32(row)), append(pairB, br)
				if mode == modeSemi {
					break
				}
			}
			if mode == modeAnti && !matched {
				pairA = append(pairA, int32(row))
			}
		}
	}
	x.pairA, x.pairB = pairA, pairB

	naCols := a.NumCols()
	outCols := append(append(x.outCols[:0], a.Columns()...), b.Columns()...)
	x.outCols = outCols
	data := make([][]int64, len(outCols))
	for ci := range data {
		switch {
		case ci < naCols:
			data[ci] = x.gather(a.ColAt(ci), pairA)
		case mode == modeAnti:
			data[ci] = x.ar.Int64s(len(pairA))
			clear(data[ci])
		default:
			data[ci] = x.gather(b.ColAt(ci-naCols), pairB)
		}
	}
	return relation.FromColumns(joinedName, outCols, data), a.Rows() + b.Rows() + len(pairA)
}
