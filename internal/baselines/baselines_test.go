package baselines

import (
	"context"
	"math/rand"
	"testing"

	"partadvisor/internal/benchmarks"
	"partadvisor/internal/costmodel"
	"partadvisor/internal/exec"
	"partadvisor/internal/hardware"
	"partadvisor/internal/partition"
	"partadvisor/internal/sqlparse"
	"partadvisor/internal/workload"
)

func ssbSetup(t *testing.T) (*benchmarks.Benchmark, *partition.Space, *exec.Engine) {
	t.Helper()
	b := benchmarks.SSB()
	data := b.Generate(0.05, 1)
	e := exec.New(b.Schema, data, hardware.PostgresXLDisk(), exec.Disk)
	return b, b.Space(), e
}

func TestStarHeuristicA(t *testing.T) {
	b, sp, e := ssbSetup(t)
	st := StarHeuristicA(sp, b.Workload, e.TrueCatalog())
	if err := st.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	// Lineorder must be partitioned by the attribute joining its most
	// frequently joined dimension: date (flight 1-4 all join date).
	k, ok := st.KeyOf("lineorder")
	if !ok || k.String() != "lo_orderdate" {
		t.Fatalf("lineorder key = %v (want lo_orderdate)", k)
	}
	if _, ok := st.KeyOf("date"); !ok {
		t.Fatalf("date should be partitioned, not replicated")
	}
	// Non-chosen dimensions replicated.
	if _, ok := st.KeyOf("part"); ok {
		t.Fatalf("part should be replicated")
	}
}

func TestStarHeuristicB(t *testing.T) {
	// Full repro scale: customer (3000 rows) must outgrow the fixed-size
	// date dimension (2352 rows) to be "the largest dimension".
	b := benchmarks.SSB()
	data := b.Generate(1, 1)
	e := exec.New(b.Schema, data, hardware.PostgresXLDisk(), exec.Disk)
	sp := b.Space()
	st := StarHeuristicB(sp, b.Workload, e.TrueCatalog())
	// Customer is the largest SSB dimension.
	k, ok := st.KeyOf("lineorder")
	if !ok || k.String() != "lo_custkey" {
		t.Fatalf("lineorder key = %v (want lo_custkey)", k)
	}
	if _, ok := st.KeyOf("customer"); !ok {
		t.Fatalf("customer should be partitioned")
	}
}

func TestNormalizedHeuristics(t *testing.T) {
	b := benchmarks.TPCCH()
	data := b.Generate(0.05, 2)
	e := exec.New(b.Schema, data, hardware.PostgresXLDisk(), exec.Disk)
	sp := b.Space()

	stA := NormalizedHeuristicA(sp, e.TrueCatalog())
	if err := stA.CheckInvariants(); err != nil {
		t.Fatalf("A invariants: %v", err)
	}
	// Small tables (region, nation, warehouse) replicated; orderline large.
	if _, ok := stA.KeyOf("region"); ok {
		t.Fatalf("region should be replicated under Heuristic A")
	}
	if _, ok := stA.KeyOf("orderline"); !ok {
		t.Fatalf("orderline should stay partitioned under Heuristic A")
	}

	stB := NormalizedHeuristicB(sp, b.Workload, e.TrueCatalog())
	if err := stB.CheckInvariants(); err != nil {
		t.Fatalf("B invariants: %v", err)
	}
	active := 0
	for _, on := range stB.Edges {
		if on {
			active++
		}
	}
	if active == 0 {
		t.Fatalf("Heuristic B should co-partition at least one large pair")
	}
}

func TestMinOptimizerImprovesOverStart(t *testing.T) {
	b, sp, e := ssbSetup(t)
	freq := b.Workload.UniformFreq()
	st, ok := MinOptimizer(sp, b.Workload, freq, e, nil, 8)
	if !ok {
		t.Fatalf("estimates unavailable on disk engine")
	}
	estCost := func(s *partition.State) float64 {
		total := 0.0
		for i, q := range b.Workload.Queries {
			c, _ := e.EstimateCost(s, q.Graph)
			total += freq[i] * c
		}
		return total
	}
	if estCost(st) > estCost(sp.InitialState()) {
		t.Fatalf("MinOptimizer did not improve the estimated cost")
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

func TestMinOptimizerUnavailableOnMemoryEngine(t *testing.T) {
	b := benchmarks.SSB()
	data := b.Generate(0.05, 3)
	e := exec.New(b.Schema, data, hardware.SystemXMemory(), exec.Memory)
	_, ok := MinOptimizer(b.Space(), b.Workload, b.Workload.UniformFreq(), e, nil, 4)
	if ok {
		t.Fatalf("MinOptimizer must be unavailable without estimates")
	}
}

func TestMinOptimizerUsesSeeds(t *testing.T) {
	b, sp, e := ssbSetup(t)
	seed := StarHeuristicB(sp, b.Workload, e.TrueCatalog())
	st, ok := MinOptimizer(sp, b.Workload, b.Workload.UniformFreq(), e, []*partition.State{seed}, 4)
	if !ok || st == nil {
		t.Fatalf("MinOptimizer with seeds failed")
	}
}

// fakeEstimator counts calls and returns a fixed preference.
type fakeEstimator struct {
	calls int
	pref  string
}

func (f *fakeEstimator) EstimateCost(st *partition.State, g *sqlparse.Graph) (float64, bool) {
	f.calls++
	if _, ok := st.KeyOf(f.pref); !ok {
		return 1, true // replicated: pretend cheap
	}
	return 10, true
}

func TestMinOptimizerFollowsEstimates(t *testing.T) {
	b := benchmarks.Micro()
	sp := b.Space()
	est := &fakeEstimator{pref: "b"}
	st, ok := MinOptimizer(sp, b.Workload, b.Workload.UniformFreq(), est, nil, 6)
	if !ok {
		t.Fatalf("fake estimator rejected")
	}
	if _, partitioned := st.KeyOf("b"); partitioned {
		t.Fatalf("MinOptimizer ignored estimates preferring replication of b")
	}
	if est.calls == 0 {
		t.Fatalf("estimator never called")
	}
}

func TestLearnedCostModelPretrainsAndPredicts(t *testing.T) {
	b := benchmarks.Micro()
	sp := b.Space()
	data := b.Generate(0.2, 4)
	e := exec.New(b.Schema, data, hardware.SystemXMemory(), exec.Memory)
	cm := costmodel.New(e.TrueCatalog(), e.HW)

	m := NewLearnedCostModel(sp, b.Workload, []int{32, 16}, 1e-3, 5)
	m.PretrainOffline(cm, 400, func(rng *rand.Rand) workload.FreqVector {
		return b.Workload.SampleUniform(rng)
	})
	if len(m.inputs) != 400 {
		t.Fatalf("samples = %d", len(m.inputs))
	}
	// Prediction should correlate with the labels: a replicated-fact
	// design must predict worse than s0 after training.
	s0 := sp.InitialState()
	badIdx := sp.TableIndex("a")
	bad := sp.Apply(s0, partition.Action{Kind: partition.ActReplicate, Table: badIdx})
	freq := b.Workload.UniformFreq()
	if m.Predict(bad, freq) <= m.Predict(s0, freq) {
		t.Fatalf("model does not rank replicating the fact table as worse: %v vs %v",
			m.Predict(bad, freq), m.Predict(s0, freq))
	}
}

func TestLearnedCostModelOnlineAndSuggest(t *testing.T) {
	b := benchmarks.Micro()
	sp := b.Space()
	data := b.Generate(0.2, 6)
	e := exec.New(b.Schema, data, hardware.SystemXMemory(), exec.Memory)
	cm := costmodel.New(e.TrueCatalog(), e.HW)

	m := NewLearnedCostModel(sp, b.Workload, []int{32, 16}, 1e-3, 7)
	m.PretrainOffline(cm, 300, func(rng *rand.Rand) workload.FreqVector {
		return b.Workload.SampleUniform(rng)
	})
	measure := func(st *partition.State, freq workload.FreqVector) float64 {
		e.Deploy(st, nil)
		rep := e.Exec(context.Background(), exec.Request{Queries: exec.Queries(b.Workload.Graphs(), 0)})
		total := 0.0
		for i := range b.Workload.Queries {
			total += freq[i] * rep.Reports[i].Seconds
		}
		return total
	}
	n := m.TrainOnline(measure, func(rng *rand.Rand) workload.FreqVector {
		return b.Workload.SampleUniform(rng)
	}, 5, false)
	if n != 5 {
		t.Fatalf("measured %d designs", n)
	}
	st := m.Suggest(b.Workload.UniformFreq())
	if st == nil {
		t.Fatalf("Suggest returned nil")
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	// Explore variant takes random starts but still returns valid designs.
	n = m.TrainOnline(measure, func(rng *rand.Rand) workload.FreqVector {
		return b.Workload.SampleUniform(rng)
	}, 3, true)
	if n != 3 {
		t.Fatalf("explore measured %d designs", n)
	}
}
