package env

import (
	"math"
	"testing"

	"partadvisor/internal/partition"
	"partadvisor/internal/schema"
	"partadvisor/internal/sqlparse"
	"partadvisor/internal/workload"
)

func envFixture(t *testing.T) (*partition.Space, *workload.Workload) {
	t.Helper()
	attr := func(names ...string) []schema.Attribute {
		out := make([]schema.Attribute, len(names))
		for i, n := range names {
			out[i] = schema.Attribute{Name: n, Width: 8}
		}
		return out
	}
	sch := schema.New("envtest",
		[]*schema.Table{
			{Name: "f", Attributes: attr("f_id", "f_d"), PrimaryKey: []string{"f_id"}},
			{Name: "d", Attributes: attr("d_id"), PrimaryKey: []string{"d_id"}},
		},
		[]schema.ForeignKey{{FromTable: "f", FromAttr: "f_d", ToTable: "d", ToAttr: "d_id"}},
	)
	wl := workload.MustParse("w", sch, map[string]string{
		"q1": "SELECT * FROM f, d WHERE f.f_d = d.d_id",
	}, []string{"q1"}, 1)
	return partition.NewSpace(sch, nil, partition.Options{}), wl
}

// replicationLovingCost prefers every table replicated.
func replicationLovingCost(st *partition.State, freq workload.FreqVector) float64 {
	cost := 10.0
	for _, d := range st.Tables {
		if d.Replicated {
			cost -= 3
		}
	}
	return cost
}

func TestNewValidatesTmax(t *testing.T) {
	sp, wl := envFixture(t)
	if _, err := New(sp, wl, replicationLovingCost, 1); err == nil {
		t.Fatalf("tmax < |T| accepted")
	}
	if _, err := New(sp, wl, replicationLovingCost, 2); err != nil {
		t.Fatalf("tmax = |T| rejected: %v", err)
	}
}

func TestResetAndDims(t *testing.T) {
	sp, wl := envFixture(t)
	e, _ := New(sp, wl, replicationLovingCost, 5)
	obs := e.Reset(workload.FreqVector{1, 0})
	if len(obs) != sp.StateLen()+wl.Size() {
		t.Fatalf("obs len %d, want %d", len(obs), sp.StateLen()+wl.Size())
	}
	// Frequency appears at the tail of the observation.
	if obs[sp.StateLen()] != 1 || obs[sp.StateLen()+1] != 0 {
		t.Fatalf("frequency tail = %v", obs[sp.StateLen():])
	}
	// Reset returns to s0.
	if !e.State().SameLayout(sp.InitialState()) {
		t.Fatalf("Reset did not return to s0")
	}
}

func TestResetPanicsOnBadFreq(t *testing.T) {
	sp, wl := envFixture(t)
	e, _ := New(sp, wl, replicationLovingCost, 5)
	defer func() {
		if recover() == nil {
			t.Fatalf("bad freq accepted")
		}
	}()
	e.Reset(workload.FreqVector{1})
}

func TestStepRewardNormalization(t *testing.T) {
	sp, wl := envFixture(t)
	e, _ := New(sp, wl, replicationLovingCost, 5)
	e.Reset(workload.FreqVector{1, 0})
	// s0 reward must be -1 by construction.
	if r := e.Reward(sp.InitialState()); math.Abs(r+1) > 1e-12 {
		t.Fatalf("s0 reward = %v, want -1", r)
	}
	// Replicating a table improves the fake cost: reward > -1.
	fIdx := sp.TableIndex("f")
	var actIdx int
	for i, a := range sp.Actions() {
		if a.Kind == partition.ActReplicate && a.Table == fIdx {
			actIdx = i
		}
	}
	_, r, done := e.Step(actIdx)
	if done {
		t.Fatalf("done after 1 of 5 steps")
	}
	if r <= -1 {
		t.Fatalf("improving action reward = %v", r)
	}
}

func TestEpisodeEndsAtTmax(t *testing.T) {
	sp, wl := envFixture(t)
	e, _ := New(sp, wl, replicationLovingCost, 3)
	e.Reset(workload.FreqVector{1, 0})
	steps := 0
	for {
		valid := e.ValidActions()
		if len(valid) == 0 {
			t.Fatalf("no valid actions")
		}
		_, _, done := e.Step(valid[0])
		steps++
		if done {
			break
		}
		if steps > 10 {
			t.Fatalf("episode never ended")
		}
	}
	if steps != 3 {
		t.Fatalf("episode length = %d, want 3", steps)
	}
}

func TestEncodedCopyIsStable(t *testing.T) {
	sp, wl := envFixture(t)
	e, _ := New(sp, wl, replicationLovingCost, 5)
	e.Reset(workload.FreqVector{1, 0})
	snap := e.EncodedCopy()
	valid := e.ValidActions()
	e.Step(valid[0])
	snap2 := e.EncodedCopy()
	same := true
	for i := range snap {
		if snap[i] != snap2[i] {
			same = false
		}
	}
	if same {
		t.Fatalf("step did not change observation")
	}
	// The first snapshot must not have been mutated by the step (EncodedCopy
	// detaches from the internal buffer).
	sum := 0.0
	for _, v := range snap[:sp.StateLen()] {
		sum += v
	}
	if sum != float64(len(sp.Tables)) {
		t.Fatalf("snapshot mutated: %v", snap)
	}
}

func TestCostFuncReceivesFreq(t *testing.T) {
	sp, wl := envFixture(t)
	var lastFreq workload.FreqVector
	cost := func(st *partition.State, freq workload.FreqVector) float64 {
		lastFreq = freq
		return 1
	}
	e, _ := New(sp, wl, cost, 5)
	e.Reset(workload.FreqVector{0.5, 1})
	if lastFreq[0] != 0.5 || lastFreq[1] != 1 {
		t.Fatalf("cost func got freq %v", lastFreq)
	}
}

// graphFor keeps sqlparse linked for the fixture (compile-time assurance the
// workload queries resolved).
var _ = sqlparse.Graph{}
