// Package relation provides the in-memory columnar table representation of
// the execution engine. All values are int64 (strings are dictionary-encoded
// via package valenc, dates as yyyymmdd integers) — a common simplification
// in analytical-engine prototypes that keeps scans, hashing and joins simple
// and fast.
package relation

import (
	"fmt"
	"math/rand"
)

// colIndexLinearMax is the column count up to which name lookups scan the
// slice directly instead of consulting (and therefore building) the idx map.
// Query intermediates are narrow, so most relations never pay a map at all.
const colIndexLinearMax = 8

// Relation is a named set of equal-length int64 columns.
type Relation struct {
	Name string
	cols []string
	// idx caches name→index for wide relations; narrow ones (the common
	// case for query intermediates) resolve names by linear scan instead,
	// so New never allocates a map for them (see lookup).
	idx  map[string]int
	data [][]int64
}

// New creates an empty relation with the given columns.
func New(name string, cols []string) *Relation {
	r := &Relation{Name: name, cols: append([]string(nil), cols...)}
	if len(cols) <= colIndexLinearMax {
		for i, c := range cols {
			for j := i + 1; j < len(cols); j++ {
				if cols[j] == c {
					panic(fmt.Sprintf("relation %s: duplicate column %q", name, c))
				}
			}
		}
	} else {
		r.idx = make(map[string]int, len(cols))
		for i, c := range cols {
			if _, dup := r.idx[c]; dup {
				panic(fmt.Sprintf("relation %s: duplicate column %q", name, c))
			}
			r.idx[c] = i
		}
	}
	r.data = make([][]int64, len(cols))
	return r
}

// lookup resolves a column name to its position. Narrow relations use a
// linear scan (faster than a map, and New never allocates one); wide ones
// are served from the idx map built at construction.
func (r *Relation) lookup(name string) (int, bool) {
	if r.idx != nil {
		i, ok := r.idx[name]
		return i, ok
	}
	for i, c := range r.cols {
		if c == name {
			return i, true
		}
	}
	return -1, false
}

// Columns returns the column names in order.
func (r *Relation) Columns() []string { return r.cols }

// NumCols returns the number of columns.
func (r *Relation) NumCols() int { return len(r.cols) }

// Rows returns the number of rows.
func (r *Relation) Rows() int {
	if len(r.data) == 0 {
		return 0
	}
	return len(r.data[0])
}

// DataBytes returns the resident size of the column storage in bytes —
// the unit the cluster's shard cache budgets in.
func (r *Relation) DataBytes() int64 {
	return int64(r.Rows()) * int64(len(r.cols)) * 8
}

// Col returns the storage of the named column (shared, do not resize).
func (r *Relation) Col(name string) []int64 {
	i, ok := r.lookup(name)
	if !ok {
		panic(fmt.Sprintf("relation %s: no column %q (have %v)", r.Name, name, r.cols))
	}
	return r.data[i]
}

// HasCol reports whether the column exists.
func (r *Relation) HasCol(name string) bool {
	_, ok := r.lookup(name)
	return ok
}

// ColIndex returns the position of the column, or -1.
func (r *Relation) ColIndex(name string) int {
	if i, ok := r.lookup(name); ok {
		return i
	}
	return -1
}

// AppendRow appends one row (len must equal NumCols).
func (r *Relation) AppendRow(vals ...int64) {
	if len(vals) != len(r.cols) {
		panic(fmt.Sprintf("relation %s: AppendRow got %d values, want %d", r.Name, len(vals), len(r.cols)))
	}
	for i, v := range vals {
		r.data[i] = append(r.data[i], v)
	}
}

// AppendFrom appends row i of src (which must share this relation's column
// set, matched by name).
func (r *Relation) AppendFrom(src *Relation, row int) {
	for ci, c := range r.cols {
		r.data[ci] = append(r.data[ci], src.Col(c)[row])
	}
}

// Grow pre-allocates capacity for n additional rows.
func (r *Relation) Grow(n int) {
	for i := range r.data {
		if cap(r.data[i])-len(r.data[i]) < n {
			nd := make([]int64, len(r.data[i]), len(r.data[i])+n)
			copy(nd, r.data[i])
			r.data[i] = nd
		}
	}
}

// Filter returns the rows (as a new relation) for which keep returns true.
func (r *Relation) Filter(keep func(row int) bool) *Relation {
	out := New(r.Name, r.cols)
	n := r.Rows()
	for row := 0; row < n; row++ {
		if keep(row) {
			for ci := range r.cols {
				out.data[ci] = append(out.data[ci], r.data[ci][row])
			}
		}
	}
	return out
}

// Sample returns a deterministic Bernoulli sample of the rows at the given
// rate, guaranteeing at least minRows rows when the relation has that many
// (the paper's online phase requires a minimum table size after sampling,
// §4.2).
func (r *Relation) Sample(rate float64, minRows int, rng *rand.Rand) *Relation {
	n := r.Rows()
	out := r.Filter(func(int) bool { return rng.Float64() < rate })
	if out.Rows() >= minRows || out.Rows() == n {
		return out
	}
	// Top up deterministically with a prefix of the remaining rows.
	need := minRows
	if need > n {
		need = n
	}
	out2 := New(r.Name, r.cols)
	step := n / need
	if step < 1 {
		step = 1
	}
	for row := 0; row < n && out2.Rows() < need; row += step {
		out2.AppendFrom(r, row)
	}
	return out2
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvInt64 folds one int64 value into an FNV-1a state, byte by byte (fully
// unrolled: this is the innermost loop of hashing, shuffling and
// repartitioning).
func fnvInt64(h, v uint64) uint64 {
	h = (h ^ (v & 0xff)) * fnvPrime64
	h = (h ^ ((v >> 8) & 0xff)) * fnvPrime64
	h = (h ^ ((v >> 16) & 0xff)) * fnvPrime64
	h = (h ^ ((v >> 24) & 0xff)) * fnvPrime64
	h = (h ^ ((v >> 32) & 0xff)) * fnvPrime64
	h = (h ^ ((v >> 40) & 0xff)) * fnvPrime64
	h = (h ^ ((v >> 48) & 0xff)) * fnvPrime64
	h = (h ^ (v >> 56)) * fnvPrime64
	return h
}

// HashRow hashes the given key columns of one row (FNV-1a over the raw
// int64 bytes). Used to assign rows to cluster nodes. Single-column keys —
// the overwhelmingly common case — take a branch-free fast path.
func (r *Relation) HashRow(row int, keyCols []int) uint64 {
	if len(keyCols) == 1 {
		return fnvInt64(fnvOffset64, uint64(r.data[keyCols[0]][row]))
	}
	h := uint64(fnvOffset64)
	for _, ci := range keyCols {
		h = fnvInt64(h, uint64(r.data[ci][row]))
	}
	return h
}

// HashAssign computes the per-row hash bucket (mod n) of every row for the
// given key columns in one pass. Reused by SplitByHash and by the cluster's
// moved-bytes accounting; the single-column fast path hashes straight down
// one column slice.
func (r *Relation) HashAssign(keyCols []int, n int) []int32 {
	rows := r.Rows()
	nodes := make([]int32, rows)
	if len(keyCols) == 1 {
		col := r.data[keyCols[0]]
		for row, v := range col {
			nodes[row] = int32(fnvInt64(fnvOffset64, uint64(v)) % uint64(n))
		}
		return nodes
	}
	for row := 0; row < rows; row++ {
		nodes[row] = int32(r.HashRow(row, keyCols) % uint64(n))
	}
	return nodes
}

// SplitByHash hash-partitions the relation into n shards by the given key
// columns: one hashing pass assigns rows to nodes, then each column is
// scattered with exact-capacity shard columns (no append-regrowth in the
// hot repartitioning path).
func (r *Relation) SplitByHash(keyCols []string, n int) []*Relation {
	idxs := make([]int, len(keyCols))
	for i, c := range keyCols {
		idxs[i] = r.ColIndex(c)
		if idxs[i] < 0 {
			panic(fmt.Sprintf("relation %s: no key column %q", r.Name, c))
		}
	}
	nodes := r.HashAssign(idxs, n)
	return r.scatter(nodes, n)
}

// scatter builds n shards from a per-row node assignment.
func (r *Relation) scatter(nodes []int32, n int) []*Relation {
	counts := make([]int, n)
	for _, node := range nodes {
		counts[node]++
	}
	shards := make([]*Relation, n)
	for i := range shards {
		shards[i] = New(r.Name, r.cols)
		for ci := range shards[i].data {
			shards[i].data[ci] = make([]int64, 0, counts[i])
		}
	}
	for ci := range r.cols {
		src := r.data[ci]
		for row, v := range src {
			sh := shards[nodes[row]]
			sh.data[ci] = append(sh.data[ci], v)
		}
	}
	return shards
}

// SplitByAssign builds n shards from an explicit per-row node assignment
// (len(nodes) == Rows(), each entry in [0, n)) — the escape hatch for
// placements plain hashing cannot express: salted keys, hot-key splits.
func (r *Relation) SplitByAssign(nodes []int32, n int) []*Relation {
	if len(nodes) != r.Rows() {
		panic(fmt.Sprintf("relation %s: assignment length %d != %d rows", r.Name, len(nodes), r.Rows()))
	}
	return r.scatter(nodes, n)
}

// SplitRoundRobin splits the relation into n equal shards (the layout of
// freshly bulk-loaded rows before any explicit partitioning).
func (r *Relation) SplitRoundRobin(n int) []*Relation {
	nodes := make([]int32, r.Rows())
	for row := range nodes {
		nodes[row] = int32(row % n)
	}
	return r.scatter(nodes, n)
}

// Concat appends all rows of src (same columns by name).
func (r *Relation) Concat(src *Relation) {
	for ci, c := range r.cols {
		r.data[ci] = append(r.data[ci], src.Col(c)...)
	}
}

// Clone deep-copies the relation.
func (r *Relation) Clone() *Relation {
	c := New(r.Name, r.cols)
	for i := range r.data {
		c.data[i] = append([]int64(nil), r.data[i]...)
	}
	return c
}
