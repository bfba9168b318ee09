// Package partition models the partitioning design space of the paper (§3.2):
// every table is either replicated to all nodes or hash-partitioned by one of
// its candidate keys, and co-partitioning of join partners is made explicit
// through edges. The package defines the state representation, the action
// space (partition / replicate / (de)activate an edge) with conflict-free
// edge activation, state transitions, and the binary feature encodings fed
// into the Q-network.
package partition

import (
	"strings"

	"partadvisor/internal/schema"
)

// Key is an ordered list of attribute names a table can be hash-partitioned
// by. Most keys are single attributes; compound keys (e.g. warehouse-id +
// district-id in TPC-CH) mitigate skew from low-cardinality attributes.
type Key []string

// String renders the key as "a" or "(a,b)".
func (k Key) String() string {
	if len(k) == 1 {
		return k[0]
	}
	return "(" + strings.Join(k, ",") + ")"
}

// Equal reports whether two keys name the same attributes in order.
func (k Key) Equal(o Key) bool {
	if len(k) != len(o) {
		return false
	}
	for i := range k {
		if k[i] != o[i] {
			return false
		}
	}
	return true
}

// TableSpace is the per-table slice of the design space: the candidate
// partitioning keys in a fixed order. Keys[0] is the default (primary key
// where available) used in the initial state s0.
type TableSpace struct {
	Name string
	Keys []Key
}

// KeyIndex returns the index of the given key, or -1.
func (ts *TableSpace) KeyIndex(k Key) int {
	for i, c := range ts.Keys {
		if c.Equal(k) {
			return i
		}
	}
	return -1
}

// singleKeyIndex returns the index of the single-attribute key [attr], or -1.
func (ts *TableSpace) singleKeyIndex(attr string) int {
	for i, c := range ts.Keys {
		if len(c) == 1 && c[0] == attr {
			return i
		}
	}
	return -1
}

// Options configures design-space construction.
type Options struct {
	// KeyFilter, if non-nil, rejects candidate keys. The TPC-CH evaluation
	// of the paper restricts the space so tables "cannot be partitioned by
	// warehouse-id only"; that restriction is expressed here.
	KeyFilter func(table string, key Key) bool
	// DisableEdges removes all co-partitioning edges (and thus all edge
	// actions) from the space — the ablation of the paper's claim that
	// explicit edges reduce exploration of sub-optimal partitionings.
	DisableEdges bool
	// EnableMitigations adds the hot-shard mitigation actions (key salting,
	// hot-key split) per table, two mitigation bits per table block to the
	// state encoding, and two extra kind slots to the action features. Off
	// by default: spaces built without it keep byte-identical encodings,
	// action lists and feature lengths.
	EnableMitigations bool
}

// SaltFactor is the bucket spread the salt mitigation action applies.
const SaltFactor = 4

// Space is the full partitioning design space for one schema + workload: the
// per-table candidate keys, the co-partitioning edges, and the globally
// indexed action list. It is immutable after construction, so feature
// indices are stable across training and inference.
type Space struct {
	Schema *schema.Schema
	Tables []TableSpace
	Edges  []schema.JoinEdge

	tableIdx map[string]int
	actions  []Action
	// encoding offsets
	tableOffsets []int // offset of table i's block in the state vector
	stateLen     int
	// hot-shard mitigation support (Options.EnableMitigations)
	mitigations bool
}

// NewSpace builds the design space. Candidate keys per table are, in order:
// the first primary-key attribute, every attribute appearing on the table's
// side of a join edge, and the table's declared compound keys — all subject
// to opts.KeyFilter. Edges are kept only when both endpoint attributes
// survived as single-attribute candidate keys (otherwise activating the edge
// could never be consistent).
func NewSpace(sch *schema.Schema, workloadEdges []schema.JoinEdge, opts Options) *Space {
	sp := &Space{
		Schema:      sch,
		tableIdx:    make(map[string]int, len(sch.Tables)),
		mitigations: opts.EnableMitigations,
	}
	allEdges := schema.MergeEdges(sch.ForeignKeyEdges(), workloadEdges)

	accept := func(table string, k Key) bool {
		return opts.KeyFilter == nil || opts.KeyFilter(table, k)
	}

	for _, t := range sch.Tables {
		ts := TableSpace{Name: t.Name}
		add := func(k Key) {
			if ts.KeyIndex(k) < 0 && accept(t.Name, k) {
				ts.Keys = append(ts.Keys, k)
			}
		}
		if len(t.PrimaryKey) > 0 {
			add(Key{t.PrimaryKey[0]})
		}
		// Join attributes in schema attribute order for determinism.
		joinAttrs := make(map[string]bool)
		for _, e := range allEdges {
			if a, ok := e.AttrFor(t.Name); ok {
				joinAttrs[a] = true
			}
			// Self-edges never happen (JoinEdges excludes them), but a
			// table can appear on both sides of different edges.
			if e.Table1 == t.Name && e.Table2 == t.Name {
				joinAttrs[e.Attr2] = true
			}
		}
		for _, a := range t.Attributes {
			if joinAttrs[a.Name] {
				add(Key{a.Name})
			}
		}
		for _, ck := range t.CompoundKeys {
			add(Key(ck))
		}
		if len(ts.Keys) == 0 {
			// A table must have at least one key to be partitionable; fall
			// back to its first attribute even under a filter.
			ts.Keys = append(ts.Keys, Key{t.Attributes[0].Name})
		}
		sp.tableIdx[t.Name] = len(sp.Tables)
		sp.Tables = append(sp.Tables, ts)
	}

	if !opts.DisableEdges {
		for _, e := range allEdges {
			i1, ok1 := sp.tableIdx[e.Table1]
			i2, ok2 := sp.tableIdx[e.Table2]
			if !ok1 || !ok2 || e.Table1 == e.Table2 {
				continue
			}
			if sp.Tables[i1].singleKeyIndex(e.Attr1) < 0 || sp.Tables[i2].singleKeyIndex(e.Attr2) < 0 {
				continue
			}
			sp.Edges = append(sp.Edges, e)
		}
	}

	sp.buildActions()
	sp.buildOffsets()
	return sp
}

// TableIndex returns the index of the named table in the space, or -1.
func (sp *Space) TableIndex(name string) int {
	if i, ok := sp.tableIdx[name]; ok {
		return i
	}
	return -1
}

// EdgesFor returns the indices of edges incident to the given table index.
func (sp *Space) EdgesFor(table int) []int {
	name := sp.Tables[table].Name
	var out []int
	for i, e := range sp.Edges {
		if e.Touches(name) {
			out = append(out, i)
		}
	}
	return out
}

func (sp *Space) buildOffsets() {
	sp.tableOffsets = make([]int, len(sp.Tables))
	off := 0
	for i, ts := range sp.Tables {
		sp.tableOffsets[i] = off
		off += 1 + len(ts.Keys) // replicated bit + key one-hot
		if sp.mitigations {
			off += 2 // salted bit + hot-split bit
		}
	}
	sp.stateLen = off + len(sp.Edges)
}

// StateLen returns the length of the binary partitioning-state encoding
// (table blocks plus edge bits, excluding workload frequencies).
func (sp *Space) StateLen() int { return sp.stateLen }

// Mitigations reports whether the space includes the hot-shard mitigation
// actions (Options.EnableMitigations).
func (sp *Space) Mitigations() bool { return sp.mitigations }
