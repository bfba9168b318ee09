package costmodel

import (
	"math"
	"math/bits"

	"partadvisor/internal/sqlparse"
	"partadvisor/internal/stats"
)

// skeleton is everything about planning one query that depends on the
// catalog and not on the partitioning design: filtered alias cardinalities
// and widths, join-attribute equivalence classes, and the join-order search
// space — per connected component, the connected subsets in dependency
// order, each with its valid (left, right, connecting classes) splits and its
// estimated cardinality and width. Pricing a design (price) fills in the
// aliases' scan costs and properties and runs the DP over this structure.
//
// A skeleton is immutable once built and shared by every goroutine pricing
// the query on the same Model.
type skeleton struct {
	// tables are the query's distinct base tables, sorted: the memo key is
	// the design signature of exactly these.
	tables  []string
	aliases []planAlias
	nClass  int
	// nodes[i] for i < len(aliases) is the leaf scanning alias i; the join
	// nodes follow, each after every node it splits into.
	nodes   []planNode
	splits  []planSplit
	classes []int32 // connecting classes of the splits, slabbed
	// roots are the nodes planning each connected component, in component
	// order; their cheapest costs add up to the query's cost.
	roots []int32
}

// planAlias is one table reference of the query.
type planAlias struct {
	table string
	// baseBytes is the scan volume before filters; rows and width describe
	// the filtered output.
	baseBytes float64
	rows      float64
	width     float64
	// joinCols are the alias's join columns and their classes.
	joinCols []joinCol
}

type joinCol struct {
	col   string
	class int
}

// classOf returns the join class of one of the alias's columns.
func (a *planAlias) classOf(col string) (int, bool) {
	for _, jc := range a.joinCols {
		if jc.col == col {
			return jc.class, true
		}
	}
	return 0, false
}

// planNode is a planned relation: a leaf alias or a connected subset of
// aliases reached by any of its splits.
type planNode struct {
	rows  float64
	width float64 // bytes per row
	// splitLo, splitHi delimit the node's splits in skeleton.splits; a
	// leaf has none.
	splitLo, splitHi int32
}

// planSplit joins two planned nodes; the order of left and right is the
// order the join is costed in.
type planSplit struct {
	left, right      int32
	classLo, classHi int32 // connecting classes in skeleton.classes
}

// colRef names one column of one alias.
type colRef struct {
	alias string
	col   string
}

type edgeInfo struct {
	l, r  int // alias indices
	class int
}

// skeletonBuilder holds the analysis a skeleton is built from.
type skeletonBuilder struct {
	sk            *skeleton
	edges         []edgeInfo
	classDistinct []float64 // per class: min adjusted distinct over members
	adj           []uint64  // adj[i]: bitmask of aliases joined to alias i
}

// maxDPAliases is the largest component the DP plans; larger ones are
// planned greedily.
const maxDPAliases = 12

// buildSkeleton analyses a query over the catalog: base cardinalities,
// filter selectivities, join classes, components, and per component the
// DP's search space (or, above dpLimit aliases, the greedy join order).
func buildSkeleton(cat *stats.Catalog, g *sqlparse.Graph, dpLimit int) *skeleton {
	sk := &skeleton{tables: g.BaseTables()}
	b := &skeletonBuilder{sk: sk}
	idx := make(map[string]int, len(g.Refs))
	for _, ref := range g.Refs {
		idx[ref.Alias] = len(sk.aliases)
		sk.aliases = append(sk.aliases, planAlias{table: ref.Table})
	}
	// Join-attribute equivalence classes via union-find, numbered in order
	// of first appearance.
	var parent []int
	var cols []colRef
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
		cols = append(cols, c)
		colID[c] = i
		return i
	}
	for _, j := range g.Joins {
		a := id(colRef{j.LeftAlias, j.LeftCol})
		c := id(colRef{j.RightAlias, j.RightCol})
		ra, rc := find(a), find(c)
		if ra != rc {
			parent[ra] = rc
		}
	}
	classOfRoot := make(map[int]int)
	colClass := make([]int, len(cols))
	for i, c := range cols {
		r := find(i)
		cl, ok := classOfRoot[r]
		if !ok {
			cl = sk.nClass
			classOfRoot[r] = cl
			sk.nClass++
		}
		colClass[i] = cl
		ai := &sk.aliases[idx[c.alias]]
		ai.joinCols = append(ai.joinCols, joinCol{col: c.col, class: cl})
	}
	// Per-alias rows and widths.
	for i := range sk.aliases {
		ai := &sk.aliases[i]
		ts := cat.Table(ai.table)
		rows := float64(cat.Rows(ai.table))
		if rows < 1 {
			rows = 1
		}
		width := 64.0
		if ts != nil && ts.RowWidth > 0 {
			width = float64(ts.RowWidth)
		}
		ai.baseBytes = rows * width
		sel := 1.0
		for _, f := range g.FiltersFor(g.Refs[i].Alias) {
			s := cat.Selectivity(ai.table, f.Column, f.Op, f.Args)
			if f.Neg {
				s = 1 - s
			}
			sel *= s
		}
		ai.rows = math.Max(1, rows*sel)
		ai.width = width
		sk.nodes = append(sk.nodes, planNode{rows: ai.rows, width: ai.width})
	}
	// Edges + adjacency.
	b.adj = make([]uint64, len(sk.aliases))
	for _, j := range g.Joins {
		l, r := idx[j.LeftAlias], idx[j.RightAlias]
		b.edges = append(b.edges, edgeInfo{l: l, r: r, class: colClass[colID[colRef{j.LeftAlias, j.LeftCol}]]})
		b.adj[l] |= 1 << uint(r)
		b.adj[r] |= 1 << uint(l)
	}
	// Class distinct values (adjusted by filters: distinct <= rows).
	b.classDistinct = make([]float64, sk.nClass)
	for i := range b.classDistinct {
		b.classDistinct[i] = math.Inf(1)
	}
	for i, c := range cols {
		ai := &sk.aliases[idx[c.alias]]
		d := math.Min(float64(cat.Distinct(ai.table, c.col)), ai.rows)
		if d < 1 {
			d = 1
		}
		if d < b.classDistinct[colClass[i]] {
			b.classDistinct[colClass[i]] = d
		}
	}
	for _, comp := range b.components() {
		var root int32
		if bits.OnesCount64(comp) <= dpLimit {
			root = b.dp(comp)
		} else {
			root = b.greedy(comp)
		}
		sk.roots = append(sk.roots, root)
	}
	return sk
}

// components returns the connected components of the alias join graph as
// bitmasks (cartesian components are combined by summing their costs).
func (b *skeletonBuilder) components() []uint64 {
	n := len(b.sk.aliases)
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
				if !seen[u] && b.adj[v]&(1<<uint(u)) != 0 {
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
func (b *skeletonBuilder) cardinality(mask uint64) float64 {
	rows := 1.0
	for i := range b.sk.aliases {
		if mask&(1<<uint(i)) != 0 {
			rows *= b.sk.aliases[i].rows
		}
	}
	for _, e := range b.edges {
		if mask&(1<<uint(e.l)) != 0 && mask&(1<<uint(e.r)) != 0 {
			d := b.classDistinct[e.class]
			if d > 1 {
				rows /= d
			}
		}
	}
	if rows < 1 {
		rows = 1
	}
	return rows
}

// width estimates the output row width of a subset (semijoined aliases do
// not contribute columns; the approximation of summing all members is kept
// for simplicity and documented in DESIGN.md).
func (b *skeletonBuilder) width(mask uint64) float64 {
	w := 0.0
	for i := range b.sk.aliases {
		if mask&(1<<uint(i)) != 0 {
			w += b.sk.aliases[i].width
		}
	}
	return w
}

// connected reports whether the subset is connected in the join graph.
func (b *skeletonBuilder) connected(mask uint64) bool {
	start := uint(bits.TrailingZeros64(mask))
	var seen uint64 = 1 << start
	stack := []uint{start}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		next := b.adj[v] & mask &^ seen
		for next != 0 {
			u := uint(bits.TrailingZeros64(next))
			next &^= 1 << u
			seen |= 1 << u
			stack = append(stack, u)
		}
	}
	return seen == mask
}

// addSplit records the join of nodes n1 (aliases m1) and n2 (aliases m2)
// with the distinct classes of the edges crossing between them.
func (b *skeletonBuilder) addSplit(n1, n2 int32, m1, m2 uint64) {
	sk := b.sk
	lo := int32(len(sk.classes))
	for _, e := range b.edges {
		if !e.crosses(m1, m2) {
			continue
		}
		dup := false
		for _, c := range sk.classes[lo:] {
			if int(c) == e.class {
				dup = true
				break
			}
		}
		if !dup {
			sk.classes = append(sk.classes, int32(e.class))
		}
	}
	sk.splits = append(sk.splits, planSplit{left: n1, right: n2, classLo: lo, classHi: int32(len(sk.classes))})
}

// crosses reports whether the edge joins an alias of m1 to one of m2.
func (e edgeInfo) crosses(m1, m2 uint64) bool {
	l, r := uint64(1)<<uint(e.l), uint64(1)<<uint(e.r)
	return (m1&l != 0 && m2&r != 0) || (m2&l != 0 && m1&r != 0)
}

// addNode appends a join node over the aliases of mask whose splits are
// skeleton.splits[lo:].
func (b *skeletonBuilder) addNode(mask uint64, lo int32) int32 {
	sk := b.sk
	sk.nodes = append(sk.nodes, planNode{
		rows:    b.cardinality(mask),
		width:   b.width(mask),
		splitLo: lo,
		splitHi: int32(len(sk.splits)),
	})
	return int32(len(sk.nodes) - 1)
}

// dp lays out dynamic programming over the connected subsets of a
// component (a compact DPccp variant): subsets in increasing popcount, each
// with every split into two connected halves, the half holding the lowest
// alias first. The union of two connected halves is connected only through
// an edge between them, and every connected subset of two or more aliases
// has such a split (cut a leaf off a spanning tree), so every subset reaches
// a node. It returns the component's node.
func (b *skeletonBuilder) dp(comp uint64) int32 {
	node := make(map[uint64]int32)
	for rem := comp; rem != 0; rem &= rem - 1 {
		i := bits.TrailingZeros64(rem)
		node[1<<uint(i)] = int32(i)
	}
	for size := 2; size <= bits.OnesCount64(comp); size++ {
		for mask := comp; mask != 0; mask = (mask - 1) & comp {
			if bits.OnesCount64(mask) != size || !b.connected(mask) {
				continue
			}
			lo := int32(len(b.sk.splits))
			low := mask & -mask
			for s1 := (mask - 1) & mask; s1 != 0; s1 = (s1 - 1) & mask {
				if s1&low == 0 {
					continue
				}
				s2 := mask &^ s1
				n1, ok1 := node[s1]
				n2, ok2 := node[s2]
				if ok1 && ok2 {
					b.addSplit(n1, n2, s1, s2)
				}
			}
			node[mask] = b.addNode(mask, lo)
		}
	}
	return node[comp]
}

// greedy lays out the join order that joins the pair of joinable relations
// with the smallest estimated output first — the plan for components too
// large for the DP. The order depends on cardinalities alone, so it is fixed
// per query. It returns the component's node.
func (b *skeletonBuilder) greedy(comp uint64) int32 {
	type item struct {
		mask uint64
		node int32
	}
	var items []item
	for rem := comp; rem != 0; rem &= rem - 1 {
		i := bits.TrailingZeros64(rem)
		items = append(items, item{mask: 1 << uint(i), node: int32(i)})
	}
	for len(items) > 1 {
		// The items partition a connected component, so some pair is
		// joined by an edge.
		bi, bj := -1, -1
		bestRows := math.Inf(1)
		for i := 0; i < len(items); i++ {
			for j := i + 1; j < len(items); j++ {
				if !b.joined(items[i].mask, items[j].mask) {
					continue
				}
				if r := b.cardinality(items[i].mask | items[j].mask); bi < 0 || r < bestRows {
					bestRows, bi, bj = r, i, j
				}
			}
		}
		lo := int32(len(b.sk.splits))
		mask := items[bi].mask | items[bj].mask
		b.addSplit(items[bi].node, items[bj].node, items[bi].mask, items[bj].mask)
		items[bi] = item{mask: mask, node: b.addNode(mask, lo)}
		items = append(items[:bj], items[bj+1:]...)
	}
	return items[0].node
}

// joined reports whether any join edge connects the two alias sets.
func (b *skeletonBuilder) joined(m1, m2 uint64) bool {
	for _, e := range b.edges {
		if e.crosses(m1, m2) {
			return true
		}
	}
	return false
}
