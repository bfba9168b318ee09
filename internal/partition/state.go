package partition

import (
	"fmt"
	"strings"
)

// TableDesign is the physical design of one table: replicated to every node,
// or hash-partitioned by the candidate key with the given index, optionally
// with a hot-shard mitigation applied on top of the hash layout.
type TableDesign struct {
	Replicated bool
	// Key indexes into the table's TableSpace.Keys; it is meaningful only
	// when Replicated is false.
	Key int
	// Salt > 0 spreads each key's rows across Salt adjacent hash buckets —
	// the key-salting mitigation for hot shards. Only meaningful for
	// hash-partitioned tables, and only present in spaces built with
	// Options.EnableMitigations.
	Salt int
	// HotSplit splits the hottest key value of the partitioning column
	// round-robin across all nodes while the rest hash normally — the
	// hot-key-split mitigation. Same availability rules as Salt.
	HotSplit bool
}

// State is one point of the design space: a physical design per table plus
// the activation bits of the co-partitioning edges. States are immutable;
// Apply returns a modified copy.
type State struct {
	space  *Space
	Tables []TableDesign
	Edges  []bool
}

// InitialState returns s0: every table hash-partitioned by its default key
// (Keys[0], the primary key where available), no table replicated, no edge
// active. Training episodes and inference both start here (paper §4.1, §6).
func (sp *Space) InitialState() *State {
	st := &State{space: sp, Tables: make([]TableDesign, len(sp.Tables)), Edges: make([]bool, len(sp.Edges))}
	for i := range st.Tables {
		st.Tables[i] = TableDesign{Replicated: false, Key: 0}
	}
	return st
}

// Space returns the design space the state belongs to.
func (s *State) Space() *Space { return s.space }

// Clone deep-copies the state.
func (s *State) Clone() *State {
	t := make([]TableDesign, len(s.Tables))
	copy(t, s.Tables)
	e := make([]bool, len(s.Edges))
	copy(e, s.Edges)
	return &State{space: s.space, Tables: t, Edges: e}
}

// Design returns the design of the named table.
func (s *State) Design(table string) TableDesign {
	i := s.space.TableIndex(table)
	if i < 0 {
		panic(fmt.Sprintf("partition: unknown table %q", table))
	}
	return s.Tables[i]
}

// KeyOf returns the partitioning key of the named table and false when the
// table is replicated.
func (s *State) KeyOf(table string) (Key, bool) {
	i := s.space.TableIndex(table)
	if i < 0 {
		panic(fmt.Sprintf("partition: unknown table %q", table))
	}
	d := s.Tables[i]
	if d.Replicated {
		return nil, false
	}
	return s.space.Tables[i].Keys[d.Key], true
}

// SameLayout reports whether two states deploy identically (edge bits are
// bookkeeping for the agent and do not affect the physical layout).
func (s *State) SameLayout(o *State) bool {
	if len(s.Tables) != len(o.Tables) {
		return false
	}
	for i := range s.Tables {
		if s.Tables[i] != o.Tables[i] {
			return false
		}
	}
	return true
}

// Signature returns a canonical string of the physical layout, the key of
// the online trainer's partitioning-level caches.
func (s *State) Signature() string {
	var b strings.Builder
	for i, d := range s.Tables {
		if i > 0 {
			b.WriteByte('|')
		}
		s.writeTableSig(&b, i, d)
	}
	return b.String()
}

// TableSignature returns the canonical sub-signature covering only the given
// tables. The paper's Query Runtime Cache (§4.2) keys each query's runtime
// by the state combination of exactly the tables the query touches.
func (s *State) TableSignature(tables []string) string {
	var b strings.Builder
	b.Grow(32 * len(tables))
	for _, name := range tables {
		i := s.space.TableIndex(name)
		if i < 0 {
			panic(fmt.Sprintf("partition: unknown table %q", name))
		}
		if b.Len() > 0 {
			b.WriteByte('|')
		}
		s.writeTableSig(&b, i, s.Tables[i])
	}
	return b.String()
}

// writeTableSig appends the signature of table i's design to b.
func (s *State) writeTableSig(b *strings.Builder, i int, d TableDesign) {
	b.WriteString(s.space.Tables[i].Name)
	if d.Replicated {
		b.WriteString("=R")
		return
	}
	b.WriteString("=H(")
	if key := s.space.Tables[i].Keys[d.Key]; len(key) == 1 {
		b.WriteString(key[0])
	} else {
		b.WriteString(key.String())
	}
	b.WriteByte(')')
	if d.Salt > 0 {
		fmt.Fprintf(b, "+S%d", d.Salt)
	}
	if d.HotSplit {
		b.WriteString("+HS")
	}
}

// DiffTables returns the names of tables whose physical design differs
// between the two states — the tables lazy repartitioning must touch.
func (s *State) DiffTables(o *State) []string {
	var out []string
	for i := range s.Tables {
		if s.Tables[i] != o.Tables[i] {
			out = append(out, s.space.Tables[i].Name)
		}
	}
	return out
}

// Encode writes the binary feature encoding of the paper's Figure 2 into
// dst: per table the bit vector (replicated, key one-hot...), then the edge
// bits. dst must have length space.StateLen().
func (s *State) Encode(dst []float64) {
	if len(dst) != s.space.stateLen {
		panic(fmt.Sprintf("partition: Encode dst length %d, want %d", len(dst), s.space.stateLen))
	}
	for i := range dst {
		dst[i] = 0
	}
	for i, d := range s.Tables {
		off := s.space.tableOffsets[i]
		if d.Replicated {
			dst[off] = 1
		} else {
			dst[off+1+d.Key] = 1
			if s.space.mitigations {
				// Two trailing mitigation bits per table block (salted,
				// hot-split) — present only in mitigation-enabled spaces so
				// existing encodings stay byte-identical.
				mit := off + 1 + len(s.space.Tables[i].Keys)
				if d.Salt > 0 {
					dst[mit] = 1
				}
				if d.HotSplit {
					dst[mit+1] = 1
				}
			}
		}
	}
	base := s.space.stateLen - len(s.Edges)
	for i, on := range s.Edges {
		if on {
			dst[base+i] = 1
		}
	}
}

// CheckInvariants verifies the edge-consistency invariant: every active edge
// implies its endpoints are hash-partitioned by the edge attributes. It is
// used by tests and property checks.
func (s *State) CheckInvariants() error {
	for i, on := range s.Edges {
		if !on {
			continue
		}
		e := s.space.Edges[i]
		for _, end := range []struct{ table, attr string }{
			{e.Table1, e.Attr1}, {e.Table2, e.Attr2},
		} {
			k, ok := s.KeyOf(end.table)
			if !ok {
				return fmt.Errorf("edge %d (%s) active but table %s is replicated", i, e, end.table)
			}
			if !(len(k) == 1 && k[0] == end.attr) {
				return fmt.Errorf("edge %d (%s) active but table %s is partitioned by %s", i, e, end.table, k)
			}
			d := s.Tables[s.space.TableIndex(end.table)]
			if d.Salt > 0 || d.HotSplit {
				return fmt.Errorf("edge %d (%s) active but table %s has a hot-shard mitigation (salt=%d hotSplit=%v)",
					i, e, end.table, d.Salt, d.HotSplit)
			}
		}
	}
	return nil
}

// String renders the state for logs and experiment output.
func (s *State) String() string {
	var b strings.Builder
	for i, d := range s.Tables {
		if i > 0 {
			b.WriteString(", ")
		}
		name := s.space.Tables[i].Name
		if d.Replicated {
			fmt.Fprintf(&b, "%s: REPLICATE", name)
		} else {
			fmt.Fprintf(&b, "%s: HASH%s", name, keyParen(s.space.Tables[i].Keys[d.Key]))
			if d.Salt > 0 {
				fmt.Fprintf(&b, "+SALT(%d)", d.Salt)
			}
			if d.HotSplit {
				b.WriteString("+HOTSPLIT")
			}
		}
	}
	var act []string
	for i, on := range s.Edges {
		if on {
			act = append(act, fmt.Sprintf("e%d", i))
		}
	}
	if len(act) > 0 {
		fmt.Fprintf(&b, " [edges %s]", strings.Join(act, ","))
	}
	return b.String()
}

func keyParen(k Key) string {
	return "(" + strings.Join(k, ",") + ")"
}
