package partition

import (
	"math/rand"
	"strings"
	"testing"
)

func mitSpace() *Space {
	return NewSpace(ssbMini(), nil, Options{EnableMitigations: true})
}

// Enabling mitigations appends exactly two actions per table after the base
// enumeration and widens each table's encoding block by two bits, leaving
// the base prefix identical to a mitigation-free space.
func TestMitigationSpaceShape(t *testing.T) {
	base := miniSpace()
	sp := mitSpace()
	if !sp.Mitigations() || base.Mitigations() {
		t.Fatalf("Mitigations flag: base=%v mit=%v", base.Mitigations(), sp.Mitigations())
	}
	if got, want := sp.NumActions(), base.NumActions()+2*len(sp.Tables); got != want {
		t.Fatalf("NumActions = %d, want %d", got, want)
	}
	for i, a := range base.Actions() {
		if sp.Actions()[i] != a {
			t.Fatalf("action %d differs: %+v vs base %+v", i, sp.Actions()[i], a)
		}
	}
	for i := base.NumActions(); i < sp.NumActions(); i++ {
		k := sp.Actions()[i].Kind
		if k != ActSaltKey && k != ActHotSplit {
			t.Fatalf("appended action %d has kind %s", i, k)
		}
	}
	if got, want := sp.StateLen(), base.StateLen()+2*len(sp.Tables); got != want {
		t.Fatalf("StateLen = %d, want %d", got, want)
	}
	if got, want := sp.ActionFeatureLen(), base.ActionFeatureLen()+2; got != want {
		t.Fatalf("ActionFeatureLen = %d, want %d", got, want)
	}
}

func TestMitigationValidApply(t *testing.T) {
	sp := mitSpace()
	lo := sp.TableIndex("lineorder")
	s := sp.InitialState()

	salt := Action{Kind: ActSaltKey, Table: lo}
	split := Action{Kind: ActHotSplit, Table: lo}
	if !sp.Valid(s, salt) || !sp.Valid(s, split) {
		t.Fatalf("mitigations invalid on hash-partitioned table")
	}

	s = sp.Apply(s, salt)
	if d := s.Tables[lo]; d.Salt != SaltFactor || d.HotSplit {
		t.Fatalf("after salt: %+v", d)
	}
	if sp.Valid(s, salt) {
		t.Fatalf("re-salting already-salted table is valid")
	}
	s = sp.Apply(s, split)
	if d := s.Tables[lo]; d.Salt != SaltFactor || !d.HotSplit {
		t.Fatalf("after salt+split: %+v", d)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}

	// Re-partitioning by the current key is the undo: normally a no-op (and
	// invalid), it becomes valid and clears both mitigations.
	clear := Action{Kind: ActPartition, Table: lo, Key: s.Tables[lo].Key}
	if !sp.Valid(s, clear) {
		t.Fatalf("clearing re-partition invalid on mitigated table")
	}
	s = sp.Apply(s, clear)
	if d := s.Tables[lo]; d.Salt != 0 || d.HotSplit {
		t.Fatalf("mitigations survived re-partition: %+v", d)
	}
	if sp.Valid(s, clear) {
		t.Fatalf("same-key re-partition valid without a mitigation to clear")
	}

	// Replicated tables cannot be salted or split.
	s = sp.Apply(s, Action{Kind: ActReplicate, Table: lo})
	if sp.Valid(s, salt) || sp.Valid(s, split) {
		t.Fatalf("mitigation valid on replicated table")
	}
}

// Salting or splitting an edge endpoint breaks co-location, so Apply must
// deactivate incident edges; activating an edge clears the endpoint
// mitigations again.
func TestMitigationEdgeConsistency(t *testing.T) {
	sp := mitSpace()
	lo := sp.TableIndex("lineorder")
	e1 := edgeIndex(t, sp, "customer")

	s := sp.Apply(sp.InitialState(), Action{Kind: ActActivateEdge, Edge: e1})
	s = sp.Apply(s, Action{Kind: ActSaltKey, Table: lo})
	if s.Edges[e1] {
		t.Fatalf("edge survived salting its endpoint")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}

	s = sp.Apply(s, Action{Kind: ActActivateEdge, Edge: e1})
	if d := s.Tables[lo]; d.Salt != 0 || d.HotSplit {
		t.Fatalf("edge activation kept mitigation: %+v", d)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}

	// A hand-built inconsistent state (active edge + salted endpoint) must
	// fail the invariant check.
	bad := s.Clone()
	bad.Tables[lo].Salt = 2
	if err := bad.CheckInvariants(); err == nil {
		t.Fatalf("invariants accepted active edge with salted endpoint")
	}
}

func TestMitigationEncodingAndSignature(t *testing.T) {
	sp := mitSpace()
	lo := sp.TableIndex("lineorder")
	s := sp.Apply(sp.InitialState(), Action{Kind: ActSaltKey, Table: lo})
	s = sp.Apply(s, Action{Kind: ActHotSplit, Table: lo})

	enc := encoded(s)
	mit := sp.tableOffsets[lo] + 1 + len(sp.Tables[lo].Keys)
	if enc[mit] != 1 || enc[mit+1] != 1 {
		t.Fatalf("mitigation bits not set: %v", enc[:sp.tableOffsets[lo+1]])
	}
	plain := encoded(sp.InitialState())
	if plain[mit] != 0 || plain[mit+1] != 0 {
		t.Fatalf("mitigation bits set on plain state")
	}

	sig := s.Signature()
	if !strings.Contains(sig, "+S4") || !strings.Contains(sig, "+HS") {
		t.Fatalf("signature misses mitigation markers: %s", sig)
	}
	if got := s.String(); !strings.Contains(got, "+SALT(4)") || !strings.Contains(got, "+HOTSPLIT") {
		t.Fatalf("String misses mitigation markers: %s", got)
	}

	// Action features: mitigation actions one-hot their kind and table.
	dst := make([]float64, sp.ActionFeatureLen())
	sp.EncodeAction(Action{Kind: ActHotSplit, Table: lo}, dst)
	if dst[int(ActHotSplit)] != 1 || dst[int(numActionKinds)+lo] != 1 {
		t.Fatalf("hot-split action features wrong: %v", dst)
	}
	if got := sp.ActionString(Action{Kind: ActSaltKey, Table: lo}); got != "salt lineorder (x4)" {
		t.Fatalf("ActionString = %q", got)
	}
}

// The full valid-action walk must keep invariants through mitigation actions
// too (mirrors the base random-walk property test).
func TestMitigationRandomWalkInvariants(t *testing.T) {
	sp := mitSpace()
	s := sp.InitialState()
	rng := rand.New(rand.NewSource(7))
	var buf []int
	sawSalt, sawSplit := false, false
	for step := 0; step < 300; step++ {
		ai := sp.RandomValidAction(s, rng, buf)
		a := sp.Actions()[ai]
		sawSalt = sawSalt || a.Kind == ActSaltKey
		sawSplit = sawSplit || a.Kind == ActHotSplit
		s = sp.Apply(s, a)
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("step %d (%s): %v", step, sp.ActionString(a), err)
		}
	}
	if !sawSalt || !sawSplit {
		t.Fatalf("walk never drew mitigation actions (salt=%v split=%v)", sawSalt, sawSplit)
	}
}
