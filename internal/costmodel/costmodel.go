// Package costmodel implements the paper's "simple yet generic network-
// centric cost model" (§2, §4.1): given a partitioning state, a query's join
// graph and table metadata (row counts, widths, distinct values), it
// enumerates join orders like an optimizer, picks the cheapest distributed
// join strategy per join (co-located, broadcast one side, repartition one
// side, symmetric repartitioning) and returns the estimated query time in
// seconds under a hardware profile.
//
// Estimates from this model are the rewards of the offline training phase.
// The same model, wrapped with deterministic estimation noise that grows
// with join count (NoisyModel), doubles as the inaccurate DBMS-internal
// optimizer estimate consumed by the Minimum-Optimizer baseline.
package costmodel

import (
	"math"
	"math/bits"
	"sync"

	"partadvisor/internal/hardware"
	"partadvisor/internal/partition"
	"partadvisor/internal/sqlparse"
	"partadvisor/internal/stats"
	"partadvisor/internal/workload"
)

// Model estimates query and workload costs for partitioning states. It is
// safe for concurrent use: planCost is a pure function of the (immutable)
// catalog and hardware profile, and the memo map below is guarded by a
// read-write mutex, so goroutines sharing one model need no lock of their
// own. Two goroutines racing on the same uncached (state, query) both
// compute the identical plan cost, so which one's store wins is
// unobservable.
type Model struct {
	Cat *stats.Catalog
	HW  hardware.Profile

	// cache memoizes per-query costs by the signature of the designs of
	// exactly the tables the query touches (the same idea as the paper's
	// Query Runtime Cache, applied to estimates).
	mu    sync.RWMutex
	cache map[*sqlparse.Graph]map[string]float64
}

// New returns a model over the given catalog and hardware profile.
func New(cat *stats.Catalog, hw hardware.Profile) *Model {
	return &Model{Cat: cat, HW: hw, cache: make(map[*sqlparse.Graph]map[string]float64)}
}

// ResetCache drops memoized costs. Call after the catalog changes.
func (m *Model) ResetCache() {
	m.mu.Lock()
	m.cache = make(map[*sqlparse.Graph]map[string]float64)
	m.mu.Unlock()
}

// QueryCost estimates the runtime of one query under the partitioning state.
func (m *Model) QueryCost(st *partition.State, g *sqlparse.Graph) float64 {
	sig := st.TableSignature(g.BaseTables())
	m.mu.RLock()
	if per := m.cache[g]; per != nil {
		if c, ok := per[sig]; ok {
			m.mu.RUnlock()
			return c
		}
	}
	m.mu.RUnlock()
	// Plan outside the lock: planCost is pure, so concurrent duplicate
	// computation yields bitwise-identical values.
	c := m.planCost(st, g)
	m.mu.Lock()
	per := m.cache[g]
	if per == nil {
		per = make(map[string]float64)
		m.cache[g] = per
	}
	per[sig] = c
	m.mu.Unlock()
	return c
}

// WorkloadCost estimates Σ_j f_j · cm(P, q_j) over the workload mix —
// the (negated) reward of the offline phase.
func (m *Model) WorkloadCost(st *partition.State, wl *workload.Workload, freq workload.FreqVector) float64 {
	total := 0.0
	for i, q := range wl.Queries {
		if i >= len(freq) || freq[i] == 0 {
			continue
		}
		total += freq[i] * q.Weight * m.QueryCost(st, q.Graph)
	}
	return total
}

// property constants: the "interesting partitioning" of an intermediate
// result. Non-negative values are join-attribute equivalence classes.
const (
	propNone       = -1 // partitioned, but not on any join class
	propReplicated = -2 // full copy on every node
)

// rel is one planned relation (base alias or intermediate).
type rel struct {
	rows  float64
	width float64 // bytes per row
	// props maps property -> cheapest cost achieving it.
	props map[int]float64
}

// planCost runs the join-order enumeration.
func (m *Model) planCost(st *partition.State, g *sqlparse.Graph) float64 {
	q := m.analyze(st, g)
	var total float64
	for _, comp := range q.components() {
		var r *rel
		if bits.OnesCount64(comp) <= maxDPAliases {
			r = q.dpPlan(comp)
		} else {
			r = q.greedyPlan(comp)
		}
		total += minCost(r.props)
	}
	return total + m.HW.QueryOverheadSec
}

const maxDPAliases = 12

// serializationSpeedup: tuples (de)serialize this many times faster than
// they are processed by a hash join.
const serializationSpeedup = 4

func minCost(props map[int]float64) float64 {
	best := math.Inf(1)
	for _, c := range props {
		if c < best {
			best = c
		}
	}
	if math.IsInf(best, 1) {
		return 0
	}
	return best
}

// qctx is the per-query planning context.
type qctx struct {
	m       *Model
	aliases []aliasInfo
	classes map[colRef]int // (alias, col) -> equivalence class
	nClass  int
	edges   []edgeInfo
	// classDistinct[class] = min adjusted distinct over member columns.
	classDistinct []float64
	// adj[i] = bitmask of aliases joined to alias i.
	adj []uint64
	// subset cardinality memo
	cardMemo map[uint64]float64
}

type colRef struct {
	alias string
	col   string
}

type aliasInfo struct {
	alias string
	table string
	// baseRows/bytes before filters (scan volume), rows after filters.
	baseRows  float64
	baseBytes float64
	rows      float64
	width     float64
	// scanCost, prop: derived from the partitioning design.
	scanCost float64
	prop     int
}

type edgeInfo struct {
	l, r  int // alias indices
	class int
	semi  bool
}

// analyze resolves base cardinalities, filter selectivities, join classes
// and per-alias scan costs + properties for the given state.
func (m *Model) analyze(st *partition.State, g *sqlparse.Graph) *qctx {
	q := &qctx{m: m, classes: make(map[colRef]int), cardMemo: make(map[uint64]float64)}
	idx := make(map[string]int, len(g.Refs))
	for _, ref := range g.Refs {
		idx[ref.Alias] = len(q.aliases)
		q.aliases = append(q.aliases, aliasInfo{alias: ref.Alias, table: ref.Table})
	}
	// Join-attribute equivalence classes via union-find.
	parent := make([]int, 0, 2*len(g.Joins))
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	colID := make(map[colRef]int)
	id := func(c colRef) int {
		if i, ok := colID[c]; ok {
			return i
		}
		i := len(parent)
		parent = append(parent, i)
		colID[c] = i
		return i
	}
	for _, j := range g.Joins {
		a := id(colRef{j.LeftAlias, j.LeftCol})
		b := id(colRef{j.RightAlias, j.RightCol})
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	rootClass := make(map[int]int)
	for c, i := range colID {
		r := find(i)
		cl, ok := rootClass[r]
		if !ok {
			cl = q.nClass
			rootClass[r] = cl
			q.nClass++
		}
		q.classes[c] = cl
	}
	// Per-alias rows, widths, scan cost, property.
	cat := m.Cat
	for i := range q.aliases {
		ai := &q.aliases[i]
		ts := cat.Table(ai.table)
		rows := float64(cat.Rows(ai.table))
		if rows < 1 {
			rows = 1
		}
		width := 64.0
		if ts != nil && ts.RowWidth > 0 {
			width = float64(ts.RowWidth)
		}
		ai.baseRows = rows
		ai.baseBytes = rows * width
		sel := 1.0
		for _, f := range g.FiltersFor(ai.alias) {
			s := cat.Selectivity(ai.table, f.Column, f.Op, f.Args)
			if f.Neg {
				s = 1 - s
			}
			sel *= s
		}
		ai.rows = math.Max(1, rows*sel)
		ai.width = width
		m.scanLeaf(st, ai)
		if ai.prop != propReplicated {
			if key, ok := st.KeyOf(ai.table); ok && len(key) == 1 {
				if cl, ok := q.classes[colRef{ai.alias, key[0]}]; ok {
					ai.prop = cl
				}
			}
		}
	}
	// Edges + adjacency.
	q.adj = make([]uint64, len(q.aliases))
	for _, j := range g.Joins {
		l, r := idx[j.LeftAlias], idx[j.RightAlias]
		cl := q.classes[colRef{j.LeftAlias, j.LeftCol}]
		q.edges = append(q.edges, edgeInfo{l: l, r: r, class: cl, semi: j.Semi || j.Anti})
		q.adj[l] |= 1 << uint(r)
		q.adj[r] |= 1 << uint(l)
	}
	// Class distinct values (adjusted by filters: distinct <= rows).
	q.classDistinct = make([]float64, q.nClass)
	for i := range q.classDistinct {
		q.classDistinct[i] = math.Inf(1)
	}
	for c, cl := range q.classes {
		ai := q.aliases[idx[c.alias]]
		d := math.Min(float64(cat.Distinct(ai.table, c.col)), ai.rows)
		if d < 1 {
			d = 1
		}
		if d < q.classDistinct[cl] {
			q.classDistinct[cl] = d
		}
	}
	return q
}

// scanLeaf fills the scan cost and output property of a base alias under
// the current design.
func (m *Model) scanLeaf(st *partition.State, ai *aliasInfo) {
	hw := m.HW
	d := st.Design(ai.table)
	if d.Replicated {
		// Every node holds and scans the full table; the scan is not
		// distributed (the crux of the paper's Exp. 5 trade-off).
		ai.scanCost = ai.baseBytes / hw.ScanBytesPerSec
		ai.prop = propReplicated
		return
	}
	key, _ := st.KeyOf(ai.table)
	neff := m.parallelism(ai.table, key)
	ai.scanCost = ai.baseBytes / hw.ScanBytesPerSec / neff
	ai.prop = propNone
}

// parallelism estimates the effective parallel speedup of work distributed
// by hashing the given key: limited by the node count, the key's distinct
// values (few values -> coarse shards) and value skew (heavy values ->
// stragglers). Compound keys spread well and carry no skew penalty — this
// is what makes the TPC-CH compound warehouse+district key attractive on
// the in-memory engine (paper §7.2).
func (m *Model) parallelism(table string, key partition.Key) float64 {
	n := float64(m.HW.Nodes)
	if len(key) == 0 {
		return n
	}
	// The simple cost model knows only metadata: the distinct count of the
	// partitioning key bounds the shard granularity (this is what makes the
	// compound warehouse+district key attractive, §7.2), but value-frequency
	// skew — which requires observing the data — is invisible offline. The
	// online phase measures it on the real (sampled) database instead.
	var distinct float64
	if len(key) == 1 {
		distinct = float64(m.Cat.Distinct(table, key[0]))
	} else {
		distinct = 1
		for _, a := range key {
			distinct *= float64(m.Cat.Distinct(table, a))
			if distinct > 1e12 {
				break
			}
		}
	}
	return effectiveParallelism(n, distinct, 1)
}

// effectiveParallelism combines node count, distinct count and skew into the
// usable parallel speedup in [1, n].
func effectiveParallelism(n, distinct, skew float64) float64 {
	if distinct < 1 {
		distinct = 1
	}
	imbalance := 1.0
	if distinct < 8*n {
		perNode := distinct / n
		imbalance = math.Ceil(perNode) / math.Max(perNode, 1e-9)
		if distinct < n {
			imbalance = n / distinct
		}
	}
	eff := n / (imbalance * skew)
	if eff < 1 {
		return 1
	}
	if eff > n {
		return n
	}
	return eff
}

// components returns the connected components of the alias join graph as
// bitmasks (cartesian components are combined by the caller).
func (q *qctx) components() []uint64 {
	n := len(q.aliases)
	seen := make([]bool, n)
	var out []uint64
	for i := 0; i < n; i++ {
		if seen[i] {
			continue
		}
		var mask uint64
		stack := []int{i}
		seen[i] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			mask |= 1 << uint(v)
			for u := 0; u < n; u++ {
				if !seen[u] && q.adj[v]&(1<<uint(u)) != 0 {
					seen[u] = true
					stack = append(stack, u)
				}
			}
		}
		out = append(out, mask)
	}
	return out
}

// cardinality estimates |⋈ S| with the textbook independence model:
// product of filtered base cardinalities times 1/max-distinct per join edge
// inside S (counting each class-pair once per edge).
func (q *qctx) cardinality(mask uint64) float64 {
	if r, ok := q.cardMemo[mask]; ok {
		return r
	}
	rows := 1.0
	for i := range q.aliases {
		if mask&(1<<uint(i)) != 0 {
			rows *= q.aliases[i].rows
		}
	}
	for _, e := range q.edges {
		if mask&(1<<uint(e.l)) != 0 && mask&(1<<uint(e.r)) != 0 {
			d := q.classDistinct[e.class]
			if d > 1 {
				rows /= d
			}
		}
	}
	if rows < 1 {
		rows = 1
	}
	q.cardMemo[mask] = rows
	return rows
}

// width estimates the output row width of a subset (semijoined aliases do
// not contribute columns; the approximation of summing all members is kept
// for simplicity and documented in DESIGN.md).
func (q *qctx) subsetWidth(mask uint64) float64 {
	w := 0.0
	for i := range q.aliases {
		if mask&(1<<uint(i)) != 0 {
			w += q.aliases[i].width
		}
	}
	return w
}

// leafRel builds the rel for a single alias.
func (q *qctx) leafRel(i int) *rel {
	ai := q.aliases[i]
	return &rel{
		rows:  ai.rows,
		width: ai.width,
		props: map[int]float64{ai.prop: ai.scanCost},
	}
}

// connected reports whether the subset is connected in the join graph.
func (q *qctx) connected(mask uint64) bool {
	start := uint(bits.TrailingZeros64(mask))
	var seen uint64 = 1 << start
	stack := []uint{start}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		next := q.adj[v] & mask &^ seen
		for next != 0 {
			u := uint(bits.TrailingZeros64(next))
			next &^= 1 << u
			seen |= 1 << u
			stack = append(stack, u)
		}
	}
	return seen == mask
}

// connectingClasses returns the distinct join classes of edges crossing
// between the two subsets, and whether any crossing edge is a semijoin.
func (q *qctx) connectingClasses(m1, m2 uint64) (classes []int, any bool, semi bool) {
	seen := make(map[int]bool)
	for _, e := range q.edges {
		lIn1 := m1&(1<<uint(e.l)) != 0
		rIn1 := m1&(1<<uint(e.r)) != 0
		lIn2 := m2&(1<<uint(e.l)) != 0
		rIn2 := m2&(1<<uint(e.r)) != 0
		if (lIn1 && rIn2) || (lIn2 && rIn1) {
			any = true
			if e.semi {
				semi = true
			}
			if !seen[e.class] {
				seen[e.class] = true
				classes = append(classes, e.class)
			}
		}
	}
	return classes, any, semi
}
