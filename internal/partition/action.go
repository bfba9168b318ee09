package partition

import (
	"fmt"
	"math/rand"
)

// ActionKind enumerates the action types of the paper (§3.2): partition a
// table by an attribute, replicate a table, or (de)activate a
// co-partitioning edge.
type ActionKind uint8

const (
	ActPartition ActionKind = iota
	ActReplicate
	ActActivateEdge
	ActDeactivateEdge
	// Hot-shard mitigation actions, present only in spaces built with
	// Options.EnableMitigations. They come after the base kinds so base
	// spaces keep identical kind indices and feature widths.
	ActSaltKey
	ActHotSplit
	numActionKinds
)

// numBaseActionKinds is the kind one-hot width of spaces without
// mitigations — the historical width, preserved for encoding stability.
const numBaseActionKinds = ActDeactivateEdge + 1

// String names the action kind.
func (k ActionKind) String() string {
	switch k {
	case ActPartition:
		return "partition"
	case ActReplicate:
		return "replicate"
	case ActActivateEdge:
		return "activate-edge"
	case ActDeactivateEdge:
		return "deactivate-edge"
	case ActSaltKey:
		return "salt-key"
	case ActHotSplit:
		return "hot-split"
	}
	return fmt.Sprintf("ActionKind(%d)", uint8(k))
}

// Action is one atomic design change. Table/Key index into the space's
// tables and their candidate keys; Edge indexes into the space's edge list.
type Action struct {
	Kind  ActionKind
	Table int // for ActPartition / ActReplicate
	Key   int // for ActPartition
	Edge  int // for ActActivateEdge / ActDeactivateEdge
}

// buildActions enumerates the global, fixed action list. Indices into this
// list are the output heads of the multi-head Q-network, so the enumeration
// order must be deterministic: per table the replicate action then one
// partition action per candidate key, followed by activate/deactivate pairs
// per edge.
func (sp *Space) buildActions() {
	sp.actions = sp.actions[:0]
	for ti, ts := range sp.Tables {
		sp.actions = append(sp.actions, Action{Kind: ActReplicate, Table: ti})
		for ki := range ts.Keys {
			sp.actions = append(sp.actions, Action{Kind: ActPartition, Table: ti, Key: ki})
		}
	}
	for ei := range sp.Edges {
		sp.actions = append(sp.actions, Action{Kind: ActActivateEdge, Edge: ei})
		sp.actions = append(sp.actions, Action{Kind: ActDeactivateEdge, Edge: ei})
	}
	if sp.mitigations {
		// Mitigation actions are appended after the base enumeration so the
		// base prefix matches a mitigation-free space over the same schema.
		for ti := range sp.Tables {
			sp.actions = append(sp.actions, Action{Kind: ActSaltKey, Table: ti})
			sp.actions = append(sp.actions, Action{Kind: ActHotSplit, Table: ti})
		}
	}
}

// Actions returns the global action list (do not mutate).
func (sp *Space) Actions() []Action { return sp.actions }

// NumActions returns the size of the global action list.
func (sp *Space) NumActions() int { return len(sp.actions) }

// ActionString renders an action with table/key/edge names resolved.
func (sp *Space) ActionString(a Action) string {
	switch a.Kind {
	case ActPartition:
		return fmt.Sprintf("partition %s by %s", sp.Tables[a.Table].Name, sp.Tables[a.Table].Keys[a.Key])
	case ActReplicate:
		return fmt.Sprintf("replicate %s", sp.Tables[a.Table].Name)
	case ActActivateEdge:
		return fmt.Sprintf("activate edge %s", sp.Edges[a.Edge])
	case ActDeactivateEdge:
		return fmt.Sprintf("deactivate edge %s", sp.Edges[a.Edge])
	case ActSaltKey:
		return fmt.Sprintf("salt %s (x%d)", sp.Tables[a.Table].Name, SaltFactor)
	case ActHotSplit:
		return fmt.Sprintf("hot-split %s", sp.Tables[a.Table].Name)
	}
	return a.Kind.String()
}

// Valid reports whether the action is applicable in the given state.
// No-op actions (re-partitioning by the current key, re-replicating) are
// invalid so that the agent cannot stall; edge activation requires the
// conflict-free condition of the paper: no other active edge may force a
// different partitioning attribute on either endpoint.
func (sp *Space) Valid(s *State, a Action) bool {
	switch a.Kind {
	case ActPartition:
		d := s.Tables[a.Table]
		// Re-partitioning by the current key is a no-op unless it clears an
		// applied mitigation (the agent's way to undo a salt/hot-split).
		return d.Replicated || d.Key != a.Key || d.Salt > 0 || d.HotSplit
	case ActReplicate:
		return !s.Tables[a.Table].Replicated
	case ActSaltKey:
		d := s.Tables[a.Table]
		return !d.Replicated && d.Salt == 0
	case ActHotSplit:
		d := s.Tables[a.Table]
		return !d.Replicated && !d.HotSplit
	case ActActivateEdge:
		if s.Edges[a.Edge] {
			return false
		}
		e := sp.Edges[a.Edge]
		for _, end := range [2]struct{ table, attr string }{
			{e.Table1, e.Attr1}, {e.Table2, e.Attr2},
		} {
			for oi, on := range s.Edges {
				if !on || oi == a.Edge {
					continue
				}
				if oa, ok := sp.Edges[oi].AttrFor(end.table); ok && oa != end.attr {
					return false
				}
			}
		}
		return true
	case ActDeactivateEdge:
		return s.Edges[a.Edge]
	}
	return false
}

// ValidActions returns the indices (into Actions()) of all actions valid in
// the state. It reuses buf when large enough.
func (sp *Space) ValidActions(s *State, buf []int) []int {
	out := buf[:0]
	for i, a := range sp.actions {
		if sp.Valid(s, a) {
			out = append(out, i)
		}
	}
	return out
}

// Apply returns the successor state of applying the action; it panics when
// the action is invalid (callers must check Valid or use ValidActions).
// Consistency is restored automatically:
//
//   - partitioning a table deactivates incident edges that would now require
//     a different attribute on that table (and clears any mitigation),
//   - replicating a table deactivates all incident edges,
//   - activating an edge re-partitions both endpoints by the edge attributes
//     (clearing their mitigations),
//   - salting or hot-splitting a table deactivates all incident edges: rows
//     sharing a key value no longer co-locate, so co-partitioned local joins
//     are off the table until the mitigation is cleared.
func (sp *Space) Apply(s *State, a Action) *State {
	if !sp.Valid(s, a) {
		panic(fmt.Sprintf("partition: applying invalid action %s to state %s", sp.ActionString(a), s))
	}
	n := s.Clone()
	switch a.Kind {
	case ActPartition:
		n.Tables[a.Table] = TableDesign{Replicated: false, Key: a.Key}
		key := sp.Tables[a.Table].Keys[a.Key]
		name := sp.Tables[a.Table].Name
		for _, ei := range sp.EdgesFor(a.Table) {
			if !n.Edges[ei] {
				continue
			}
			attr, _ := sp.Edges[ei].AttrFor(name)
			if !(len(key) == 1 && key[0] == attr) {
				n.Edges[ei] = false
			}
		}
	case ActReplicate:
		n.Tables[a.Table] = TableDesign{Replicated: true, Key: -1}
		for _, ei := range sp.EdgesFor(a.Table) {
			n.Edges[ei] = false
		}
	case ActActivateEdge:
		e := sp.Edges[a.Edge]
		n.Edges[a.Edge] = true
		for _, end := range [2]struct{ table, attr string }{
			{e.Table1, e.Attr1}, {e.Table2, e.Attr2},
		} {
			ti := sp.TableIndex(end.table)
			ki := sp.Tables[ti].singleKeyIndex(end.attr)
			n.Tables[ti] = TableDesign{Replicated: false, Key: ki}
		}
	case ActDeactivateEdge:
		n.Edges[a.Edge] = false
	case ActSaltKey:
		n.Tables[a.Table].Salt = SaltFactor
		for _, ei := range sp.EdgesFor(a.Table) {
			n.Edges[ei] = false
		}
	case ActHotSplit:
		n.Tables[a.Table].HotSplit = true
		for _, ei := range sp.EdgesFor(a.Table) {
			n.Edges[ei] = false
		}
	}
	return n
}

// RandomValidAction draws a uniformly random valid action index.
func (sp *Space) RandomValidAction(s *State, rng *rand.Rand, buf []int) int {
	valid := sp.ValidActions(s, buf)
	if len(valid) == 0 {
		panic("partition: state has no valid actions")
	}
	return valid[rng.Intn(len(valid))]
}

// kindSlots is the width of the action-kind one-hot: the two mitigation
// kinds only occupy feature slots in spaces that can emit them, so base
// spaces keep their historical feature length.
func (sp *Space) kindSlots() int {
	if sp.mitigations {
		return int(numActionKinds)
	}
	return int(numBaseActionKinds)
}

// ActionFeatureLen returns the length of the one-hot action feature vector
// used by the paper-faithful scalar Q(s,a) head: kind ⊕ table ⊕ flattened
// key slot ⊕ edge.
func (sp *Space) ActionFeatureLen() int {
	keySlots := 0
	for _, ts := range sp.Tables {
		keySlots += len(ts.Keys)
	}
	return sp.kindSlots() + len(sp.Tables) + keySlots + len(sp.Edges)
}

// EncodeAction writes the one-hot action features into dst (length
// ActionFeatureLen()).
func (sp *Space) EncodeAction(a Action, dst []float64) {
	if len(dst) != sp.ActionFeatureLen() {
		panic(fmt.Sprintf("partition: EncodeAction dst length %d, want %d", len(dst), sp.ActionFeatureLen()))
	}
	for i := range dst {
		dst[i] = 0
	}
	dst[int(a.Kind)] = 1
	tblBase := sp.kindSlots()
	keyBase := tblBase + len(sp.Tables)
	keySlots := 0
	for _, ts := range sp.Tables {
		keySlots += len(ts.Keys)
	}
	edgeBase := keyBase + keySlots
	switch a.Kind {
	case ActPartition:
		dst[tblBase+a.Table] = 1
		off := 0
		for i := 0; i < a.Table; i++ {
			off += len(sp.Tables[i].Keys)
		}
		dst[keyBase+off+a.Key] = 1
	case ActReplicate, ActSaltKey, ActHotSplit:
		dst[tblBase+a.Table] = 1
	case ActActivateEdge, ActDeactivateEdge:
		dst[edgeBase+a.Edge] = 1
	}
}
