package core

import (
	"math"
	"testing"

	"partadvisor/internal/benchmarks"
	"partadvisor/internal/exec"
	"partadvisor/internal/hardware"
	"partadvisor/internal/partition"
	"partadvisor/internal/workload"
)

func plannerFixture(t *testing.T) (*Advisor, *partition.Space, func(*partition.State, workload.FreqVector) float64) {
	t.Helper()
	b, sp, cm := microFixture(t)
	hp := Test()
	hp.Episodes = 60
	a, err := New(sp, b.Workload, hp, 21)
	if err != nil {
		t.Fatal(err)
	}
	cost := offlineCost(cm, b.Workload)
	if err := a.TrainOffline(cost, nil); err != nil {
		t.Fatal(err)
	}
	return a, sp, cost
}

func TestRepartitionPlannerAmortizes(t *testing.T) {
	a, sp, cost := plannerFixture(t)
	freq := a.WL.UniformFreq()
	current := sp.InitialState()
	// A constant, significant move cost.
	moveCost := func(*partition.State) float64 { return 1.0 }

	// With a huge horizon the move pays off (assuming the advisor found
	// anything better than s0; otherwise Apply correctly stays false).
	pLong := RepartitionPlanner{Horizon: 1e9, Margin: 1}
	dLong, err := pLong.Decide(a, freq, current, cost, moveCost)
	if err != nil {
		t.Fatal(err)
	}
	// With a zero-benefit situation, BreakEven is infinite.
	if dLong.TargetCost < dLong.CurrentCost {
		if !dLong.Apply {
			t.Fatalf("long horizon with positive saving should apply: %+v", dLong)
		}
		if math.IsInf(dLong.BreakEven, 1) || dLong.BreakEven <= 0 {
			t.Fatalf("BreakEven = %v", dLong.BreakEven)
		}
		// A one-execution horizon with the same move cost must refuse
		// (saving per execution is far below 1.0 simulated seconds).
		pShort := RepartitionPlanner{Horizon: 1, Margin: 1}
		dShort, err := pShort.Decide(a, freq, current, cost, moveCost)
		if err != nil {
			t.Fatal(err)
		}
		if dShort.Apply {
			t.Fatalf("one-execution horizon should not amortize a 1s move: %+v", dShort)
		}
	} else if dLong.Apply {
		t.Fatalf("no saving but Apply = true: %+v", dLong)
	}
}

func TestRepartitionPlannerNoopWhenAlreadyDeployed(t *testing.T) {
	a, _, cost := plannerFixture(t)
	freq := a.WL.UniformFreq()
	target, _, err := a.Suggest(freq)
	if err != nil {
		t.Fatal(err)
	}
	p := RepartitionPlanner{Horizon: 1e9}
	d, err := p.Decide(a, freq, target, cost, func(*partition.State) float64 { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	if d.Apply {
		t.Fatalf("already-deployed target should not re-apply")
	}
}

func TestRepartitionPlannerValidation(t *testing.T) {
	a, sp, cost := plannerFixture(t)
	p := RepartitionPlanner{Horizon: 0}
	if _, err := p.Decide(a, a.WL.UniformFreq(), sp.InitialState(), cost, func(*partition.State) float64 { return 0 }); err == nil {
		t.Fatalf("zero horizon accepted")
	}
}

func TestEstimateMoveCost(t *testing.T) {
	b := benchmarks.Micro()
	data := b.Generate(0.3, 9)
	e := exec.New(b.Schema, data, hardware.SystemXMemory(), exec.Memory)
	sp := b.Space()
	current := sp.InitialState()
	move := EstimateMoveCost(e, current)

	if got := move(current); got != 0 {
		t.Fatalf("no-op move cost = %v", got)
	}
	// Replicating the fact table is the most expensive move.
	aIdx := sp.TableIndex("a")
	replA := sp.Apply(current, partition.Action{Kind: partition.ActReplicate, Table: aIdx})
	bIdx := sp.TableIndex("b")
	replB := sp.Apply(current, partition.Action{Kind: partition.ActReplicate, Table: bIdx})
	if move(replA) <= move(replB) {
		t.Fatalf("replicating the big table should cost more: %v vs %v", move(replA), move(replB))
	}
	// Repartitioning moves less than replicating the same table.
	ki := sp.Tables[aIdx].KeyIndex(partition.Key{"a_c"})
	repart := sp.Apply(current, partition.Action{Kind: partition.ActPartition, Table: aIdx, Key: ki})
	if move(repart) >= move(replA) {
		t.Fatalf("repartitioning should be cheaper than replicating: %v vs %v", move(repart), move(replA))
	}
}

func TestDriftDetector(t *testing.T) {
	d := &DriftDetector{Threshold: 0.3, Patience: 3, Alpha: 0.3}
	// Stable costs never trigger.
	for i := 0; i < 20; i++ {
		if d.Observe(1.0) {
			t.Fatalf("stable costs triggered at step %d", i)
		}
	}
	if math.Abs(d.Baseline()-1.0) > 1e-9 {
		t.Fatalf("baseline = %v", d.Baseline())
	}
	// A transient spike (shorter than patience) does not trigger.
	if d.Observe(2.0) || d.Observe(2.0) {
		t.Fatalf("triggered before patience exhausted")
	}
	if d.Observe(1.0) {
		t.Fatalf("recovery triggered")
	}
	// Sustained degradation triggers after patience violations.
	fired := false
	for i := 0; i < 3; i++ {
		fired = d.Observe(2.0)
	}
	if !fired {
		t.Fatalf("sustained degradation did not trigger")
	}
	// After firing, the counter resets (no immediate re-fire).
	if d.Observe(2.0) {
		t.Fatalf("re-fired immediately after trigger")
	}
}

func TestDriftDetectorAbsorbsSlowChange(t *testing.T) {
	d := &DriftDetector{Threshold: 0.3, Patience: 2, Alpha: 0.5}
	cost := 1.0
	// +5% per observation stays under the 30% threshold against the moving
	// baseline and must never trigger.
	for i := 0; i < 40; i++ {
		if d.Observe(cost) {
			t.Fatalf("slow benign drift triggered at step %d (cost %v, baseline %v)", i, cost, d.Baseline())
		}
		cost *= 1.05
	}
}

func TestForecasterIntegration(t *testing.T) {
	// The workload forecaster feeds the advisor's Suggest: shift the mix
	// toward q2 and check the forecast follows.
	f, err := workload.NewForecaster(3, 0.5, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := workload.NewForecaster(3, 0, false); err == nil {
		t.Fatalf("alpha 0 accepted")
	}
	if _, err := workload.NewForecaster(0, 0.5, false); err == nil {
		t.Fatalf("size 0 accepted")
	}
	if err := f.Observe(workload.FreqVector{1, 0}); err == nil {
		t.Fatalf("wrong-size observation accepted")
	}
	mixes := []workload.FreqVector{
		{1.0, 0.1, 0},
		{0.8, 0.3, 0},
		{0.6, 0.5, 0},
		{0.4, 0.7, 0},
	}
	for _, m := range mixes {
		if err := f.Observe(m); err != nil {
			t.Fatal(err)
		}
	}
	fc := f.Forecast(1)
	if fc[1] <= fc[0] {
		t.Fatalf("forecast did not extrapolate the shift: %v", fc)
	}
	maxV := 0.0
	for _, v := range fc {
		if v < 0 {
			t.Fatalf("negative forecast frequency: %v", fc)
		}
		if v > maxV {
			maxV = v
		}
	}
	if math.Abs(maxV-1) > 1e-9 {
		t.Fatalf("forecast not normalized: %v", fc)
	}
}
