package partition

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"partadvisor/internal/schema"
)

// ssbMini mirrors the paper's Figure 2: lineorder, customer, part with two
// foreign-key edges.
// encoded returns the state's feature encoding.
func encoded(s *State) []float64 {
	dst := make([]float64, s.space.StateLen())
	s.Encode(dst)
	return dst
}

func ssbMini() *schema.Schema {
	attr := func(names ...string) []schema.Attribute {
		out := make([]schema.Attribute, len(names))
		for i, n := range names {
			out[i] = schema.Attribute{Name: n, Width: 8}
		}
		return out
	}
	return schema.New("ssbmini",
		[]*schema.Table{
			{Name: "lineorder", Attributes: attr("lo_key", "lo_custkey", "lo_partkey"), PrimaryKey: []string{"lo_key"}},
			{Name: "customer", Attributes: attr("c_custkey"), PrimaryKey: []string{"c_custkey"}},
			{Name: "part", Attributes: attr("p_partkey"), PrimaryKey: []string{"p_partkey"}},
		},
		[]schema.ForeignKey{
			{FromTable: "lineorder", FromAttr: "lo_custkey", ToTable: "customer", ToAttr: "c_custkey"},
			{FromTable: "lineorder", FromAttr: "lo_partkey", ToTable: "part", ToAttr: "p_partkey"},
		},
	)
}

func miniSpace() *Space {
	return NewSpace(ssbMini(), nil, Options{})
}

func TestSpaceConstruction(t *testing.T) {
	sp := miniSpace()
	if len(sp.Tables) != 3 {
		t.Fatalf("Tables = %v", sp.Tables)
	}
	lo := sp.Tables[sp.TableIndex("lineorder")]
	// Keys: pk (lo_key), then join attrs lo_custkey, lo_partkey.
	if len(lo.Keys) != 3 || lo.Keys[0].String() != "lo_key" || lo.Keys[1].String() != "lo_custkey" {
		t.Fatalf("lineorder keys = %v", lo.Keys)
	}
	if len(sp.Edges) != 2 {
		t.Fatalf("Edges = %v", sp.Edges)
	}
	// Customer has a single key -> 1 partition action + replicate.
	cust := sp.Tables[sp.TableIndex("customer")]
	if len(cust.Keys) != 1 {
		t.Fatalf("customer keys = %v", cust.Keys)
	}
	// Actions: lineorder 1+3, customer 1+1, part 1+1, edges 2*2 = 12.
	if sp.NumActions() != 12 {
		t.Fatalf("NumActions = %d, want 12", sp.NumActions())
	}
	// State length: (1+3) + (1+1) + (1+1) + 2 edges = 10.
	if sp.StateLen() != 10 {
		t.Fatalf("StateLen = %d, want 10", sp.StateLen())
	}
	if sp.TableIndex("nope") != -1 {
		t.Fatalf("TableIndex(nope) != -1")
	}
}

func TestKeyFilter(t *testing.T) {
	sp := NewSpace(ssbMini(), nil, Options{
		KeyFilter: func(table string, k Key) bool {
			return !(table == "lineorder" && k.String() == "lo_custkey")
		},
	})
	lo := sp.Tables[sp.TableIndex("lineorder")]
	for _, k := range lo.Keys {
		if k.String() == "lo_custkey" {
			t.Fatalf("KeyFilter ignored: %v", lo.Keys)
		}
	}
	// The customer edge requires lo_custkey and must have been dropped.
	if len(sp.Edges) != 1 {
		t.Fatalf("Edges = %v, want only the part edge", sp.Edges)
	}
}

func TestCompoundKeysEnterSpace(t *testing.T) {
	sch := ssbMini()
	sch.Tables[0].CompoundKeys = [][]string{{"lo_custkey", "lo_partkey"}}
	sp := NewSpace(sch, nil, Options{})
	lo := sp.Tables[sp.TableIndex("lineorder")]
	found := false
	for _, k := range lo.Keys {
		if len(k) == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("compound key missing: %v", lo.Keys)
	}
}

func TestInitialState(t *testing.T) {
	sp := miniSpace()
	s0 := sp.InitialState()
	for i, d := range s0.Tables {
		if d.Replicated || d.Key != 0 {
			t.Fatalf("table %d initial design = %+v", i, d)
		}
	}
	for _, on := range s0.Edges {
		if on {
			t.Fatalf("initial state has active edges")
		}
	}
	if err := s0.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

func TestPaperFigure2Encoding(t *testing.T) {
	// Reproduce Figure 2b/2c: lineorder partitioned by lo_custkey, customer
	// by c_custkey, part replicated, edge e1 (customer) active.
	sp := miniSpace()
	s := sp.InitialState()
	s = sp.Apply(s, Action{Kind: ActActivateEdge, Edge: edgeIndex(t, sp, "customer")})
	s = sp.Apply(s, Action{Kind: ActReplicate, Table: sp.TableIndex("part")})
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	k, ok := s.KeyOf("lineorder")
	if !ok || k.String() != "lo_custkey" {
		t.Fatalf("lineorder key = %v, %v", k, ok)
	}
	k, ok = s.KeyOf("customer")
	if !ok || k.String() != "c_custkey" {
		t.Fatalf("customer key = %v, %v", k, ok)
	}
	if _, ok := s.KeyOf("part"); ok {
		t.Fatalf("part should be replicated")
	}
	enc := encoded(s)
	// lineorder block: [r, lo_key, lo_custkey, lo_partkey] = [0 0 1 0]
	want := []float64{0, 0, 1, 0 /*lineorder*/, 0, 1 /*customer*/, 1, 0 /*part*/}
	for i, w := range want {
		if enc[i] != w {
			t.Fatalf("encoding[%d] = %v, want %v (full %v)", i, enc[i], w, enc)
		}
	}
	// Edge bits: customer edge active, part edge inactive.
	ci, pi := edgeIndex(t, sp, "customer"), edgeIndex(t, sp, "part")
	base := sp.StateLen() - len(sp.Edges)
	if enc[base+ci] != 1 || enc[base+pi] != 0 {
		t.Fatalf("edge bits = %v", enc[base:])
	}
}

// edgeIndex finds the edge touching the given dimension table.
func edgeIndex(t *testing.T, sp *Space, dim string) int {
	t.Helper()
	for i, e := range sp.Edges {
		if e.Touches(dim) {
			return i
		}
	}
	t.Fatalf("no edge touching %s", dim)
	return -1
}

func TestConflictingEdgeActivationInvalid(t *testing.T) {
	// Paper §3.2: e2 cannot be activated while e1 is active because
	// lineorder would need two different partitioning attributes.
	sp := miniSpace()
	s := sp.InitialState()
	e1 := Action{Kind: ActActivateEdge, Edge: edgeIndex(t, sp, "customer")}
	e2 := Action{Kind: ActActivateEdge, Edge: edgeIndex(t, sp, "part")}
	if !sp.Valid(s, e1) || !sp.Valid(s, e2) {
		t.Fatalf("both edges should be activatable from s0")
	}
	s = sp.Apply(s, e1)
	if sp.Valid(s, e2) {
		t.Fatalf("conflicting edge activation allowed")
	}
	// After deactivating e1, e2 becomes available again.
	s = sp.Apply(s, Action{Kind: ActDeactivateEdge, Edge: e1.Edge})
	if !sp.Valid(s, e2) {
		t.Fatalf("edge not activatable after conflict removed")
	}
}

func TestRepartitionDeactivatesConflictingEdge(t *testing.T) {
	sp := miniSpace()
	s := sp.InitialState()
	e1 := edgeIndex(t, sp, "customer")
	s = sp.Apply(s, Action{Kind: ActActivateEdge, Edge: e1})
	// Repartition lineorder by primary key: conflicts with the active edge.
	loIdx := sp.TableIndex("lineorder")
	s = sp.Apply(s, Action{Kind: ActPartition, Table: loIdx, Key: 0})
	if s.Edges[e1] {
		t.Fatalf("conflicting edge stayed active after repartition")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

func TestRepartitionKeepsConsistentEdge(t *testing.T) {
	sp := miniSpace()
	s := sp.InitialState()
	e1 := edgeIndex(t, sp, "customer")
	s = sp.Apply(s, Action{Kind: ActActivateEdge, Edge: e1})
	// Re-partitioning lineorder by lo_custkey again is a no-op and invalid.
	loIdx := sp.TableIndex("lineorder")
	loCust := sp.Tables[loIdx].singleKeyIndex("lo_custkey")
	if sp.Valid(s, Action{Kind: ActPartition, Table: loIdx, Key: loCust}) {
		t.Fatalf("no-op partition action should be invalid")
	}
}

func TestReplicateDeactivatesEdges(t *testing.T) {
	sp := miniSpace()
	s := sp.InitialState()
	e1 := edgeIndex(t, sp, "customer")
	s = sp.Apply(s, Action{Kind: ActActivateEdge, Edge: e1})
	s = sp.Apply(s, Action{Kind: ActReplicate, Table: sp.TableIndex("customer")})
	if s.Edges[e1] {
		t.Fatalf("edge survives endpoint replication")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

func TestValidityBasics(t *testing.T) {
	sp := miniSpace()
	s := sp.InitialState()
	rep := Action{Kind: ActReplicate, Table: 0}
	if !sp.Valid(s, rep) {
		t.Fatalf("replicate should be valid initially")
	}
	s = sp.Apply(s, rep)
	if sp.Valid(s, rep) {
		t.Fatalf("double replicate should be invalid")
	}
	// Deactivating an inactive edge is invalid.
	if sp.Valid(s, Action{Kind: ActDeactivateEdge, Edge: 0}) {
		t.Fatalf("deactivate of inactive edge should be invalid")
	}
	// Partitioning a replicated table is valid with any key.
	if !sp.Valid(s, Action{Kind: ActPartition, Table: 0, Key: 0}) {
		t.Fatalf("partition of replicated table should be valid")
	}
}

func TestApplyPanicsOnInvalid(t *testing.T) {
	sp := miniSpace()
	s := sp.InitialState()
	defer func() {
		if recover() == nil {
			t.Fatalf("Apply did not panic on invalid action")
		}
	}()
	sp.Apply(s, Action{Kind: ActPartition, Table: 0, Key: 0}) // no-op
}

func TestApplyDoesNotMutateInput(t *testing.T) {
	sp := miniSpace()
	s := sp.InitialState()
	before := s.Signature()
	_ = sp.Apply(s, Action{Kind: ActReplicate, Table: 0})
	if s.Signature() != before {
		t.Fatalf("Apply mutated input state")
	}
}

func TestSignatures(t *testing.T) {
	sp := miniSpace()
	s := sp.InitialState()
	s2 := sp.Apply(s, Action{Kind: ActReplicate, Table: sp.TableIndex("part")})
	if s.Signature() == s2.Signature() {
		t.Fatalf("signatures should differ")
	}
	if !strings.Contains(s2.Signature(), "part=R") {
		t.Fatalf("Signature = %q", s2.Signature())
	}
	// TableSignature covers only requested tables.
	ts := s2.TableSignature([]string{"lineorder", "customer"})
	if strings.Contains(ts, "part") {
		t.Fatalf("TableSignature leaked other tables: %q", ts)
	}
	// Edge-only difference: same layout, same signature.
	e1 := edgeIndex(t, sp, "customer")
	sEdge := s.Clone()
	// Build a state with same layout but note: activating an edge changes
	// layout, so construct via Edges toggle on a layout where it is
	// consistent.
	loIdx := sp.TableIndex("lineorder")
	loCust := sp.Tables[loIdx].singleKeyIndex("lo_custkey")
	sEdge = sp.Apply(sEdge, Action{Kind: ActPartition, Table: loIdx, Key: loCust})
	viaEdge := sp.Apply(s, Action{Kind: ActActivateEdge, Edge: e1})
	if !sEdge.SameLayout(viaEdge) {
		t.Fatalf("layouts differ: %s vs %s", sEdge, viaEdge)
	}
	if sEdge.Signature() != viaEdge.Signature() {
		t.Fatalf("signatures differ for same layout")
	}
}

func TestDiffTables(t *testing.T) {
	sp := miniSpace()
	s := sp.InitialState()
	s2 := sp.Apply(s, Action{Kind: ActReplicate, Table: sp.TableIndex("part")})
	d := s.DiffTables(s2)
	if len(d) != 1 || d[0] != "part" {
		t.Fatalf("DiffTables = %v", d)
	}
	if got := s.DiffTables(s); len(got) != 0 {
		t.Fatalf("self diff = %v", got)
	}
}

func TestActionFeatures(t *testing.T) {
	sp := miniSpace()
	n := sp.ActionFeatureLen()
	// kinds(4) + tables(3) + keyslots(3+1+1) + edges(2) = 14.
	if n != 14 {
		t.Fatalf("ActionFeatureLen = %d, want 14", n)
	}
	dst := make([]float64, n)
	sp.EncodeAction(Action{Kind: ActPartition, Table: 0, Key: 2}, dst)
	if dst[int(ActPartition)] != 1 {
		t.Fatalf("kind bit missing: %v", dst)
	}
	if dst[4+0] != 1 {
		t.Fatalf("table bit missing: %v", dst)
	}
	if dst[4+3+2] != 1 {
		t.Fatalf("key bit missing: %v", dst)
	}
	sum := 0.0
	for _, v := range dst {
		sum += v
	}
	if sum != 3 {
		t.Fatalf("partition action should set 3 bits, got %v: %v", sum, dst)
	}
	sp.EncodeAction(Action{Kind: ActActivateEdge, Edge: 1}, dst)
	if dst[n-1] != 1 {
		t.Fatalf("edge bit missing: %v", dst)
	}
}

func TestRandomWalkPreservesInvariants(t *testing.T) {
	// Property: any sequence of valid actions keeps states consistent and
	// encodable, and ValidActions never returns an inapplicable action.
	sp := miniSpace()
	rng := rand.New(rand.NewSource(7))
	var buf []int
	for trial := 0; trial < 30; trial++ {
		s := sp.InitialState()
		for step := 0; step < 40; step++ {
			ai := sp.RandomValidAction(s, rng, buf)
			a := sp.Actions()[ai]
			if !sp.Valid(s, a) {
				t.Fatalf("RandomValidAction returned invalid action %v", a)
			}
			s = sp.Apply(s, a)
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v (state %s)", step, err, s)
			}
			enc := encoded(s)
			// Exactly one bit per table block plus edge bits.
			ones := 0.0
			for _, v := range enc {
				ones += v
			}
			activeEdges := 0.0
			for _, on := range s.Edges {
				if on {
					activeEdges++
				}
			}
			if ones != float64(len(sp.Tables))+activeEdges {
				t.Fatalf("encoding bit count %v, want %v", ones, float64(len(sp.Tables))+activeEdges)
			}
		}
	}
}

func TestAnyStateReachableWithinTableCountActions(t *testing.T) {
	// The paper argues any partitioning is reachable within |T| actions
	// from s0 (one partition-or-replicate per table). Verify for a random
	// sample of layouts.
	sp := miniSpace()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		target := sp.InitialState().Clone()
		for i := range target.Tables {
			if rng.Intn(4) == 0 {
				target.Tables[i] = TableDesign{Replicated: true, Key: -1}
			} else {
				target.Tables[i] = TableDesign{Key: rng.Intn(len(sp.Tables[i].Keys))}
			}
		}
		s := sp.InitialState()
		steps := 0
		for i, want := range target.Tables {
			if s.Tables[i] == want {
				continue
			}
			var a Action
			if want.Replicated {
				a = Action{Kind: ActReplicate, Table: i}
			} else {
				a = Action{Kind: ActPartition, Table: i, Key: want.Key}
			}
			if !sp.Valid(s, a) {
				t.Fatalf("direct action invalid: %v", sp.ActionString(a))
			}
			s = sp.Apply(s, a)
			steps++
		}
		if !s.SameLayout(target) {
			t.Fatalf("did not reach target layout")
		}
		if steps > len(sp.Tables) {
			t.Fatalf("needed %d steps for %d tables", steps, len(sp.Tables))
		}
	}
}

func TestActionKindString(t *testing.T) {
	for k, want := range map[ActionKind]string{
		ActPartition: "partition", ActReplicate: "replicate",
		ActActivateEdge: "activate-edge", ActDeactivateEdge: "deactivate-edge",
	} {
		if k.String() != want {
			t.Fatalf("%d.String() = %q", k, k.String())
		}
	}
	if got := ActionKind(9).String(); !strings.Contains(got, "9") {
		t.Fatalf("unknown kind String = %q", got)
	}
}

func TestDescribeAndStrings(t *testing.T) {
	sp := miniSpace()
	s := sp.Apply(sp.InitialState(), Action{Kind: ActReplicate, Table: sp.TableIndex("part")})
	if !strings.Contains(s.String(), "part: REPLICATE") {
		t.Fatalf("State String = %q", s.String())
	}
	if got := sp.ActionString(Action{Kind: ActReplicate, Table: 0}); got != "replicate lineorder" {
		t.Fatalf("ActionString = %q", got)
	}
}

func TestEncodePanicsOnWrongLength(t *testing.T) {
	sp := miniSpace()
	s := sp.InitialState()
	defer func() {
		if recover() == nil {
			t.Fatalf("Encode accepted wrong-length dst")
		}
	}()
	s.Encode(make([]float64, 3))
}

func TestEncodingInjectiveOverLayouts(t *testing.T) {
	// Property: two states with different physical layouts never share an
	// encoding (the Q-network must be able to tell them apart).
	sp := miniSpace()
	rng := rand.New(rand.NewSource(17))
	seen := map[string]string{} // encoding -> signature
	var buf []int
	st := sp.InitialState()
	for step := 0; step < 500; step++ {
		enc := fmt.Sprintf("%v", encoded(st))
		sig := st.Signature() + "/" + fmt.Sprintf("%v", st.Edges)
		if prev, ok := seen[enc]; ok && prev != sig {
			t.Fatalf("encoding collision: %q vs %q", prev, sig)
		}
		seen[enc] = sig
		ai := sp.RandomValidAction(st, rng, buf)
		st = sp.Apply(st, sp.Actions()[ai])
	}
}

func TestStateAccessors(t *testing.T) {
	sp := miniSpace()
	st := sp.InitialState()
	if st.Space() != sp {
		t.Fatalf("Space accessor broken")
	}
	d := st.Design("customer")
	if d.Replicated || d.Key != 0 {
		t.Fatalf("Design = %+v", d)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("Design accepted unknown table")
		}
	}()
	st.Design("nope")
}

func TestActionStringAllKinds(t *testing.T) {
	sp := miniSpace()
	cases := []Action{
		{Kind: ActPartition, Table: 0, Key: 1},
		{Kind: ActReplicate, Table: 1},
		{Kind: ActActivateEdge, Edge: 0},
		{Kind: ActDeactivateEdge, Edge: 1},
	}
	for _, a := range cases {
		if s := sp.ActionString(a); s == "" {
			t.Fatalf("empty ActionString for %v", a)
		}
	}
	if s := sp.ActionString(Action{Kind: ActionKind(9)}); !strings.Contains(s, "9") {
		t.Fatalf("unknown kind ActionString = %q", s)
	}
}
