// Package workload models OLAP workloads as the paper does (§3.2): a fixed
// set of representative queries plus a frequency vector s(Q) = (f1, ..., fm)
// describing the current workload mix. Frequencies are normalized so the
// most frequent query has f = 1 (the paper's example encodes "q2 occurs
// twice as often as q1" as (0.5, 1)).
//
// Of the paper's two workload-evolution mechanisms the package implements
// reserved slots for completely new queries, which enable incremental
// training without rebuilding the state encoding. Selectivity buckets (one
// template's parameterizations mapped to bucket slots) are not implemented.
package workload

import (
	"fmt"
	"math/rand"

	"partadvisor/internal/schema"
	"partadvisor/internal/sqlparse"
)

// Query is one representative workload query: its SQL text and the analyzed
// join graph the advisor and the engines operate on.
type Query struct {
	// Name identifies the query (e.g. "Q1.1").
	Name string
	// SQL is the original query text.
	SQL string
	// Graph is the flattened join graph + filters.
	Graph *sqlparse.Graph
	// Weight is an optional intrinsic weight multiplied into frequencies
	// (defaults to 1).
	Weight float64
}

// Tables returns the sorted base tables of the query.
func (q *Query) Tables() []string { return q.Graph.BaseTables() }

// Workload is a set of representative queries plus optional reserved slots
// for queries that are unknown at training time.
type Workload struct {
	// Name identifies the workload (e.g. "ssb").
	Name string
	// Queries lists the representative queries; their order defines the
	// layout of frequency vectors.
	Queries []*Query
	// Reserved is the number of extra frequency-vector slots kept at zero
	// until a new query arrives (paper §3.2).
	Reserved int
}

// Parse builds a workload by parsing and analyzing named SQL queries against
// a schema. It fails on the first malformed query.
func Parse(name string, sch *schema.Schema, queries map[string]string, order []string, reserved int) (*Workload, error) {
	w := &Workload{Name: name, Reserved: reserved}
	for _, qn := range order {
		sql, ok := queries[qn]
		if !ok {
			return nil, fmt.Errorf("workload %s: query %q listed in order but not defined", name, qn)
		}
		g, err := sqlparse.ParseAndAnalyze(sql, sch)
		if err != nil {
			return nil, fmt.Errorf("workload %s, query %s: %w", name, qn, err)
		}
		w.Queries = append(w.Queries, &Query{Name: qn, SQL: sql, Graph: g, Weight: 1})
	}
	return w, nil
}

// MustParse is Parse that panics on error; benchmark workloads are static
// program data.
func MustParse(name string, sch *schema.Schema, queries map[string]string, order []string, reserved int) *Workload {
	w, err := Parse(name, sch, queries, order, reserved)
	if err != nil {
		panic(err)
	}
	return w
}

// Size returns the length of the workload's frequency vector: one slot per
// query plus the reserved slots.
func (w *Workload) Size() int { return len(w.Queries) + w.Reserved }

// Graphs returns the queries' join graphs in workload order — the form the
// engine executes as one batch.
func (w *Workload) Graphs() []*sqlparse.Graph {
	gs := make([]*sqlparse.Graph, len(w.Queries))
	for i, q := range w.Queries {
		gs[i] = q.Graph
	}
	return gs
}

// Query returns the query with the given name, or nil.
func (w *Workload) Query(name string) *Query {
	for _, q := range w.Queries {
		if q.Name == name {
			return q
		}
	}
	return nil
}

// QueryIndex returns the frequency-vector slot of the named query, or -1.
func (w *Workload) QueryIndex(name string) int {
	for i, q := range w.Queries {
		if q.Name == name {
			return i
		}
	}
	return -1
}

// AddQuery registers a new query in the first reserved slot (paper §3.2 /
// §5, incremental training). It returns the slot index, or an error when no
// reserved slots remain.
func (w *Workload) AddQuery(q *Query) (int, error) {
	if w.Reserved <= 0 {
		return -1, fmt.Errorf("workload %s: no reserved slots left for new query %s", w.Name, q.Name)
	}
	if q.Weight == 0 {
		q.Weight = 1
	}
	w.Queries = append(w.Queries, q)
	w.Reserved--
	return len(w.Queries) - 1, nil
}

// Subset returns a new workload containing only the named queries (used by
// the incremental-training experiment, which removes queries first). The
// removed count is added to the reserved slots so that the frequency-vector
// size stays constant.
func (w *Workload) Subset(names []string) (*Workload, error) {
	sub := &Workload{Name: w.Name, Reserved: w.Reserved}
	for _, n := range names {
		q := w.Query(n)
		if q == nil {
			return nil, fmt.Errorf("workload %s: no query %q", w.Name, n)
		}
		sub.Queries = append(sub.Queries, q)
	}
	sub.Reserved += len(w.Queries) - len(sub.Queries)
	return sub, nil
}

// JoinEdges returns the canonical union of join edges over all queries,
// merged with any extra edge sets (typically the schema's foreign keys).
func (w *Workload) JoinEdges(extra ...[]schema.JoinEdge) []schema.JoinEdge {
	sets := make([][]schema.JoinEdge, 0, len(w.Queries)+len(extra))
	for _, q := range w.Queries {
		sets = append(sets, q.Graph.JoinEdges())
	}
	sets = append(sets, extra...)
	return schema.MergeEdges(sets...)
}

// FreqVector is a workload mix: one normalized frequency per query slot.
type FreqVector []float64

// Normalize scales the vector so its maximum entry is 1 (matching the
// paper's encoding). A zero vector stays zero.
func (f FreqVector) Normalize() FreqVector {
	maxV := 0.0
	for _, v := range f {
		if v > maxV {
			maxV = v
		}
	}
	if maxV == 0 {
		return f
	}
	out := make(FreqVector, len(f))
	for i, v := range f {
		out[i] = v / maxV
	}
	return out
}

// Clone copies the vector.
func (f FreqVector) Clone() FreqVector {
	out := make(FreqVector, len(f))
	copy(out, f)
	return out
}

// UniformFreq returns the mix where every known query occurs equally often
// (reserved slots stay 0).
func (w *Workload) UniformFreq() FreqVector {
	f := make(FreqVector, w.Size())
	for i := range w.Queries {
		f[i] = 1
	}
	return f
}

// ExtremeFreq returns the paper's §5 reference mix where query slot i is
// over-represented (f_i = high) and all other known queries occur with
// f = low. It is used to discover reference partitionings for the committee
// of subspace experts.
func (w *Workload) ExtremeFreq(i int, low, high float64) FreqVector {
	f := make(FreqVector, w.Size())
	for j := range w.Queries {
		f[j] = low
	}
	f[i] = high
	return f.Normalize()
}

// SampleUniform draws a random mix with each known query's frequency uniform
// in (0, 1], normalized. This is the paper's "cluster A" sampler.
func (w *Workload) SampleUniform(rng *rand.Rand) FreqVector {
	f := make(FreqVector, w.Size())
	for i := range w.Queries {
		f[i] = rng.Float64()
	}
	return f.Normalize()
}

// SampleBiased draws a random mix where queries touching all of the given
// tables are boosted by the given factor — the paper's "cluster B" sampler
// ("queries joining the Stock and the Item tables are more likely").
func (w *Workload) SampleBiased(rng *rand.Rand, tables []string, boost float64) FreqVector {
	f := make(FreqVector, w.Size())
	for i, q := range w.Queries {
		f[i] = rng.Float64()
		if touchesAll(q, tables) {
			f[i] *= boost
		}
	}
	return f.Normalize()
}

func touchesAll(q *Query, tables []string) bool {
	have := make(map[string]bool)
	for _, t := range q.Tables() {
		have[t] = true
	}
	for _, t := range tables {
		if !have[t] {
			return false
		}
	}
	return true
}
