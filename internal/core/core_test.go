package core

import (
	"context"
	"math"
	"testing"

	"partadvisor/internal/benchmarks"
	"partadvisor/internal/costmodel"
	"partadvisor/internal/exec"
	"partadvisor/internal/hardware"
	"partadvisor/internal/partition"
	"partadvisor/internal/sqlparse"
	"partadvisor/internal/workload"
)

// microFixture builds the Exp-5 microbenchmark with its offline cost model.
func microFixture(t *testing.T) (*benchmarks.Benchmark, *partition.Space, *costmodel.Model) {
	t.Helper()
	b := benchmarks.Micro()
	sp := b.Space()
	data := b.Generate(1, 1)
	cat := exec.BuildCatalog(b.Schema, data)
	cm := costmodel.New(cat, hardware.SystemXMemory())
	return b, sp, cm
}

func offlineCost(cm *costmodel.Model, wl *workload.Workload) func(*partition.State, workload.FreqVector) float64 {
	return func(st *partition.State, freq workload.FreqVector) float64 {
		return cm.WorkloadCost(st, wl, freq)
	}
}

func TestHyperparamProfiles(t *testing.T) {
	for _, hp := range []Hyperparams{Paper(false), Paper(true), Repro(false), Repro(true), Test()} {
		if err := hp.Validate(); err != nil {
			t.Fatalf("profile invalid: %v", err)
		}
	}
	if Paper(true).Episodes != 1200 || Paper(false).Episodes != 600 {
		t.Fatalf("paper episode counts wrong")
	}
	if Paper(false).Tmax != 100 {
		t.Fatalf("paper tmax wrong")
	}
	if got := Repro(false).TmaxFor(5); got != 9 {
		t.Fatalf("auto tmax = %d", got)
	}
	bad := Test()
	bad.Episodes = 0
	if bad.Validate() == nil {
		t.Fatalf("zero episodes accepted")
	}
}

func TestNewAdvisorHeads(t *testing.T) {
	b, sp, _ := microFixture(t)
	for _, head := range []QHead{MultiHead, ScalarHead} {
		hp := Test()
		hp.Head = head
		a, err := New(sp, b.Workload, hp, 1)
		if err != nil {
			t.Fatalf("New(head %d): %v", head, err)
		}
		if a.Agent == nil {
			t.Fatalf("no agent")
		}
	}
	hp := Test()
	hp.Head = QHead(99)
	if _, err := New(sp, b.Workload, hp, 1); err == nil {
		t.Fatalf("unknown head accepted")
	}
}

func TestSuggestRequiresTraining(t *testing.T) {
	b, sp, _ := microFixture(t)
	a, _ := New(sp, b.Workload, Test(), 1)
	if _, _, err := a.Suggest(b.Workload.UniformFreq()); err == nil {
		t.Fatalf("untrained Suggest succeeded")
	}
}

func TestOfflineTrainingFindsGoodPartitioning(t *testing.T) {
	// The heart of the paper: after offline training on the cost model, the
	// agent's suggestion must clearly beat the initial all-primary-key
	// partitioning, and should discover a ⋈ c co-partitioning (c is too
	// large to move).
	b, sp, cm := microFixture(t)
	hp := Test()
	hp.Episodes = 80
	a, err := New(sp, b.Workload, hp, 3)
	if err != nil {
		t.Fatal(err)
	}
	cost := offlineCost(cm, b.Workload)
	if err := a.TrainOffline(cost, nil); err != nil {
		t.Fatalf("TrainOffline: %v", err)
	}
	if a.EpisodesTrained != 80 {
		t.Fatalf("EpisodesTrained = %d", a.EpisodesTrained)
	}
	freq := b.Workload.UniformFreq()
	st, reward, err := a.Suggest(freq)
	if err != nil {
		t.Fatal(err)
	}
	s0Cost := cost(sp.InitialState(), freq)
	stCost := cost(st, freq)
	if stCost >= s0Cost {
		t.Fatalf("suggested partitioning (%s) no better than s0: %v >= %v", st, stCost, s0Cost)
	}
	if reward < -1 {
		t.Fatalf("best reward %v worse than s0", reward)
	}
	// a must be partitioned by a_c (co-located with c), the dominant cost
	// saving in this workload.
	k, ok := st.KeyOf("a")
	if !ok || k.String() != "a_c" {
		t.Logf("note: a partitioned by %v (co-location with c expected); cost still improved", k)
	}
}

func TestSuggestBeatsGreedyLastState(t *testing.T) {
	// The inference procedure must return the best state of the rollout,
	// which is at least as good as the final state.
	b, sp, cm := microFixture(t)
	hp := Test()
	a, _ := New(sp, b.Workload, hp, 4)
	cost := offlineCost(cm, b.Workload)
	if err := a.TrainOffline(cost, nil); err != nil {
		t.Fatal(err)
	}
	freq := b.Workload.UniformFreq()
	st, _, _ := a.Suggest(freq)
	if cost(st, freq) > cost(sp.InitialState(), freq)*1.5 {
		t.Fatalf("suggestion catastrophically bad")
	}
}

func onlineFixture(t *testing.T) (*benchmarks.Benchmark, *partition.Space, *exec.Engine) {
	t.Helper()
	b := benchmarks.Micro()
	sp := b.Space()
	data := b.Generate(0.3, 5)
	e := exec.New(b.Schema, data, hardware.SystemXMemory(), exec.Memory)
	return b, sp, e
}

func TestOnlineCostCaching(t *testing.T) {
	b, sp, e := onlineFixture(t)
	oc := NewOnlineCost(e, b.Workload, nil)
	freq := b.Workload.UniformFreq()
	s0 := sp.InitialState()

	c1 := oc.WorkloadCost(s0, freq)
	executed := oc.Stats.QueriesExecuted
	c2 := oc.WorkloadCost(s0, freq)
	if c1 != c2 {
		t.Fatalf("cached cost differs: %v vs %v", c1, c2)
	}
	if oc.Stats.QueriesExecuted != executed {
		t.Fatalf("cache did not prevent re-execution")
	}
	if oc.Stats.CacheHits == 0 {
		t.Fatalf("no cache hits recorded")
	}
	// Zero-frequency queries cost nothing and are not executed.
	oc2 := NewOnlineCost(e, b.Workload, nil)
	zero := make(workload.FreqVector, b.Workload.Size())
	if got := oc2.WorkloadCost(s0, zero); got != 0 {
		t.Fatalf("zero mix cost = %v", got)
	}
}

func TestOnlineCostQueryScopedCache(t *testing.T) {
	// Changing only table c must not re-execute the a ⋈ b query.
	b, sp, e := onlineFixture(t)
	oc := NewOnlineCost(e, b.Workload, nil)
	freq := b.Workload.UniformFreq()
	oc.WorkloadCost(sp.InitialState(), freq)
	executedAB := oc.Stats.QueriesExecuted

	cIdx := sp.TableIndex("c")
	st2 := sp.Apply(sp.InitialState(), partition.Action{Kind: partition.ActReplicate, Table: cIdx})
	oc.WorkloadCost(st2, freq)
	// Only qac (touches c) re-executes: exactly one more execution.
	if got := oc.Stats.QueriesExecuted - executedAB; got != 1 {
		t.Fatalf("executions after c-only change = %d, want 1", got)
	}
}

func TestOnlineCostRepartitionsLazily(t *testing.T) {
	b, sp, e := onlineFixture(t)
	oc := NewOnlineCost(e, b.Workload, nil)
	freq := workload.FreqVector{1, 0, 0} // only qab: touches a and b
	cIdx := sp.TableIndex("c")
	st := sp.Apply(sp.InitialState(), partition.Action{Kind: partition.ActReplicate, Table: cIdx})
	oc.WorkloadCost(st, freq)
	// Lazy repartitioning must not have deployed c's replication.
	if e.CurrentDesign("c").Replicated {
		t.Fatalf("lazy repartitioning deployed an untouched table")
	}
}

func TestOnlineCostScaleFactors(t *testing.T) {
	b, sp, e := onlineFixture(t)
	scale := []float64{10, 1}
	oc := NewOnlineCost(e, b.Workload, scale)
	ocPlain := NewOnlineCost(e, b.Workload, nil)
	freq := workload.FreqVector{1, 0, 0}
	s0 := sp.InitialState()
	scaled := oc.WorkloadCost(s0, freq)
	plain := ocPlain.WorkloadCost(s0, freq)
	if math.Abs(scaled-10*plain) > 1e-9*scaled {
		t.Fatalf("scale factor not applied: %v vs 10x %v", scaled, plain)
	}
}

func TestOnlineCostTimeouts(t *testing.T) {
	b, sp, e := onlineFixture(t)
	oc := NewOnlineCost(e, b.Workload, nil)
	freq := b.Workload.UniformFreq()
	// Establish a good best cost first.
	goodIdx := sp.TableIndex("a")
	ki := sp.Tables[goodIdx].KeyIndex(partition.Key{"a_c"})
	good := sp.Apply(sp.InitialState(), partition.Action{Kind: partition.ActPartition, Table: goodIdx, Key: ki})
	oc.WorkloadCost(good, freq)
	// Now a terrible partitioning: replicate the fact table. Some query
	// should hit the timeout.
	bad := sp.Apply(sp.InitialState(), partition.Action{Kind: partition.ActReplicate, Table: goodIdx})
	cost := oc.WorkloadCost(bad, freq)
	if cost <= 0 {
		t.Fatalf("bad cost = %v", cost)
	}
	if oc.Stats.Aborts == 0 && oc.Stats.TimeoutSavedSeconds == 0 {
		t.Logf("no timeout fired at this scale (acceptable): aborts=%d", oc.Stats.Aborts)
	}
}

func TestNaiveAccountingExceedsActual(t *testing.T) {
	b, sp, e := onlineFixture(t)
	oc := NewOnlineCost(e, b.Workload, nil)
	freq := b.Workload.UniformFreq()
	st := sp.InitialState()
	var buf []int
	// A short random-ish walk revisiting states.
	states := []*partition.State{st}
	for i := 0; i < 6; i++ {
		valid := sp.ValidActions(states[len(states)-1], buf)
		states = append(states, sp.Apply(states[len(states)-1], sp.Actions()[valid[i%len(valid)]]))
	}
	states = append(states, states[1], states[2], st)
	for _, s := range states {
		oc.WorkloadCost(s, freq)
	}
	if oc.Stats.NaiveExecSeconds < oc.Stats.ExecSeconds {
		t.Fatalf("naive exec %v < actual %v", oc.Stats.NaiveExecSeconds, oc.Stats.ExecSeconds)
	}
	if oc.Stats.NaiveSeconds() < oc.Stats.TotalSeconds() {
		t.Fatalf("naive total %v < actual %v", oc.Stats.NaiveSeconds(), oc.Stats.TotalSeconds())
	}
	if oc.Stats.CacheHits == 0 {
		t.Fatalf("revisited states produced no cache hits")
	}
}

func TestComputeScaleFactors(t *testing.T) {
	b := benchmarks.Micro()
	sp := b.Space()
	full := exec.New(b.Schema, b.Generate(1, 6), hardware.SystemXMemory(), exec.Memory)
	sample := exec.New(b.Schema, b.Generate(0.1, 6), hardware.SystemXMemory(), exec.Memory)
	s, setup := ComputeScaleFactors(full, sample, b.Workload, sp.InitialState())
	if len(s) != 2 {
		t.Fatalf("scale factors = %v", s)
	}
	for i, v := range s {
		if v <= 1 {
			t.Fatalf("S[%d] = %v, full dataset should be slower than the sample", i, v)
		}
	}
	if setup <= 0 {
		t.Fatalf("setup seconds = %v, calibration deploys and runs are not free", setup)
	}
	// Both engines must be left deployed on pOffline: the online phase
	// continues from exactly that layout.
	g := b.Workload.Queries[0].Graph
	fullAfter, sampleAfter := runSec(full, g), runSec(sample, g)
	full.Deploy(sp.InitialState(), nil)
	sample.Deploy(sp.InitialState(), nil)
	if got := runSec(full, g); got != fullAfter {
		t.Fatalf("full engine was not left on pOffline (runtime %v vs %v)", fullAfter, got)
	}
	if got := runSec(sample, g); got != sampleAfter {
		t.Fatalf("sample engine was not left on pOffline (runtime %v vs %v)", sampleAfter, got)
	}
}

func TestTrainOnlineRefines(t *testing.T) {
	b, sp, e := onlineFixture(t)
	cm := costmodel.New(e.TrueCatalog(), e.HW)
	hp := Test()
	a, _ := New(sp, b.Workload, hp, 9)
	if err := a.TrainOffline(offlineCost(cm, b.Workload), nil); err != nil {
		t.Fatal(err)
	}
	oc := NewOnlineCost(e, b.Workload, nil)
	if err := a.TrainOnline(oc, nil); err != nil {
		t.Fatalf("TrainOnline: %v", err)
	}
	// ε must have resumed from the bootstrapped schedule, not 1.0.
	if a.Agent.Epsilon > hp.DQN.EpsilonAfter(hp.OnlineEpsilonFromEpisode) {
		t.Fatalf("online epsilon = %v", a.Agent.Epsilon)
	}
	if oc.Stats.QueriesExecuted == 0 {
		t.Fatalf("online training executed no queries")
	}
	if _, _, err := a.Suggest(b.Workload.UniformFreq()); err != nil {
		t.Fatal(err)
	}
}

func TestCommittee(t *testing.T) {
	b, sp, cm := microFixture(t)
	hp := Test()
	hp.Episodes = 50
	naive, _ := New(sp, b.Workload, hp, 11)
	cost := offlineCost(cm, b.Workload)
	if err := naive.TrainOffline(cost, nil); err != nil {
		t.Fatal(err)
	}
	naive.HP.Episodes = 40 // experts train for half the naive advisor's episodes
	c, err := BuildCommittee(naive, cost, 7)
	if err != nil {
		t.Fatalf("BuildCommittee: %v", err)
	}
	if len(c.Refs) == 0 || len(c.Refs) > len(b.Workload.Queries) {
		t.Fatalf("refs = %d", len(c.Refs))
	}
	if len(c.Experts) != len(c.Refs) {
		t.Fatalf("experts = %d, refs = %d", len(c.Experts), len(c.Refs))
	}
	freq := b.Workload.UniformFreq()
	j := c.Assign(freq)
	if j < 0 || j >= len(c.Refs) {
		t.Fatalf("Assign = %d", j)
	}
	st, _, err := c.Suggest(freq)
	if err != nil || st == nil {
		t.Fatalf("committee Suggest: %v", err)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatalf("invariants: %v", err)
	}
}

func TestCommitteeRequiresCost(t *testing.T) {
	b, sp, _ := microFixture(t)
	naive, _ := New(sp, b.Workload, Test(), 1)
	if _, err := BuildCommittee(naive, nil, 7); err == nil {
		t.Fatalf("nil cost accepted")
	}
}

func TestIncrementalTraining(t *testing.T) {
	// Train on a subset of the micro workload, then add qac incrementally.
	b, sp, cm := microFixture(t)
	sub, err := b.Workload.Subset([]string{"qab"})
	if err != nil {
		t.Fatal(err)
	}
	hp := Test()
	a, _ := New(sp, sub, hp, 13)
	cost := offlineCost(cm, sub)
	if err := a.TrainOffline(cost, nil); err != nil {
		t.Fatal(err)
	}
	newQ := b.Workload.Query("qac")
	g, err := sqlparse.ParseAndAnalyze(newQ.SQL, b.Schema)
	if err != nil {
		t.Fatal(err)
	}
	res, err := a.TrainIncremental([]*workload.Query{{Name: "qac", SQL: newQ.SQL, Graph: g}}, cost, nil, 8)
	if err != nil {
		t.Fatalf("TrainIncremental: %v", err)
	}
	if len(res.Slots) != 1 || res.Episodes != 8 {
		t.Fatalf("result = %+v", res)
	}
	// The advisor can now suggest for mixes including the new query.
	freq := make(workload.FreqVector, sub.Size())
	freq[res.Slots[0]] = 1
	if _, _, err := a.Suggest(freq); err != nil {
		t.Fatal(err)
	}
	// No reserved slots left -> adding two more queries fails on the second.
	if _, err := a.TrainIncremental(nil, cost, nil, 1); err == nil {
		t.Fatalf("empty incremental accepted")
	}
}

func TestSaveLoadModel(t *testing.T) {
	b, sp, cm := microFixture(t)
	a, _ := New(sp, b.Workload, Test(), 17)
	cost := offlineCost(cm, b.Workload)
	if err := a.TrainOffline(cost, nil); err != nil {
		t.Fatal(err)
	}
	data, err := a.SaveModel()
	if err != nil {
		t.Fatal(err)
	}
	freq := b.Workload.UniformFreq()
	st1, _, _ := a.Suggest(freq)

	b2, sp2, _ := microFixture(t)
	clone, _ := New(sp2, b2.Workload, Test(), 99)
	if err := clone.LoadModel(data); err != nil {
		t.Fatal(err)
	}
	clone.InferCost = cost
	st2, _, _ := clone.Suggest(freq)
	if st1.Signature() != st2.Signature() {
		t.Fatalf("loaded model suggests differently: %s vs %s", st1, st2)
	}
}

func TestCommitteeExpertsBootstrappedFromNaive(t *testing.T) {
	// Experts must start from the naive agent's weights and resume its
	// bootstrapped ε schedule.
	b, sp, cm := microFixture(t)
	hp := Test()
	hp.Episodes = 30
	naive, _ := New(sp, b.Workload, hp, 23)
	cost := offlineCost(cm, b.Workload)
	if err := naive.TrainOffline(cost, nil); err != nil {
		t.Fatal(err)
	}
	naive.HP.Episodes = 2 // one expert episode: minimal specialization
	c, err := BuildCommittee(naive, cost, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Expert ε resumes from the bootstrapped schedule, not 1.0.
	for i, e := range c.Experts {
		if e.Agent.Epsilon > hp.DQN.EpsilonAfter(hp.OnlineEpsilonFromEpisode)+1e-9 {
			t.Fatalf("expert %d epsilon = %v (not bootstrapped)", i, e.Agent.Epsilon)
		}
	}
}

// run1 executes one query as a batch of one on the deployed layout and
// returns its injected failure, if any.
func run1(e *exec.Engine, g *sqlparse.Graph) error {
	return e.Exec(context.Background(), exec.Request{Queries: []exec.BatchQuery{{Graph: g}}}).Errs[0]
}

// runSec is run1 reduced to the consumed simulated seconds.
func runSec(e *exec.Engine, g *sqlparse.Graph) float64 {
	return e.Exec(context.Background(), exec.Request{Queries: []exec.BatchQuery{{Graph: g}}}).Seconds
}
