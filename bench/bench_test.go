package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"

	"partadvisor/internal/benchmarks"
	"partadvisor/internal/core"
	"partadvisor/internal/dqn"
	"partadvisor/internal/partition"
	"partadvisor/internal/workload"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of three = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %v, want 0", got)
	}
	// Nearest rank: the p-th percentile of 1..100 is p itself.
	for _, p := range []float64{1, 50, 90, 99, 100} {
		if got := percentile(seq(100), p); got != p {
			t.Errorf("p%v of 1..100 = %v", p, got)
		}
	}
	if got := percentile(seq(8), 90); got != 8 {
		t.Errorf("p90 of eight samples = %v, want the maximum", got)
	}
	in := []float64{3, 1, 2}
	percentile(in, 50)
	if !reflect.DeepEqual(in, []float64{3, 1, 2}) {
		t.Errorf("percentile reordered its input: %v", in)
	}
}

// The reported tail is the highest percentile with at least ten samples
// beyond it; below that, only the median.
func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{2, 50}, {8, 50}, {99, 50}, {100, 90}, {880, 90}, {999, 90}, {1000, 99},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n, 90, 99); got != c.want {
			t.Errorf("tailPercentile(%d) = p%v, want p%v", c.n, got, c.want)
		}
	}
	if got := samplesBeyond(150, 90); got != 15 {
		t.Errorf("samples beyond p90 of 150 = %d, want 15", got)
	}
	if got := tailValue([]float64{10, 20}, 50); got != 15 {
		t.Errorf("tail of two samples = %v, want their median 15", got)
	}
}

// quartileSpread must agree with Python's statistics.quantiles(xs, n=4),
// which is what the driver computes: for 1..10 the quartiles are 2.75,
// 5.5 and 8.25.
func TestQuartileSpread(t *testing.T) {
	if got := quartileSpread(seq(10)); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	if got := quartileSpread([]float64{7, 7, 7, 7}); got != 0 {
		t.Errorf("spread of a constant = %v", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: noSpan, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60},   // overlaps a: union is [10,60]
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120},  // clipped to the parent: [90,100]
		{ID: 4, Parent: 1, Name: "a.x", Start: 15, End: 25}, // a grandchild is not the root's child
		{ID: 5, Parent: 0, Name: "d", Start: 35, End: 38},   // inside the union already
	}
	self := selfTimes(spans)
	want := map[int]int64{0: 100 - 50 - 10, 1: 30 - 10, 2: 30, 3: 30, 4: 10, 5: 3}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	totals := layerTotals(spans)
	if totals[0].Name != "root" || totals[0].SelfMS != 40e-6 {
		t.Errorf("largest self time = %+v, want root with 40 ns", totals[0])
	}
}

func TestRecorder(t *testing.T) {
	var none *recorder
	if id := none.begin("x", noSpan, 0); id != noSpan || none.end(id) != 0 || none.snapshot() != nil {
		t.Error("a nil recorder must record nothing")
	}
	r := newRecorder()
	root := r.begin("root", noSpan, 7)
	child := r.begin("child", root, 7)
	open := r.begin("never closed", root, 7)
	r.end(child)
	r.end(root)
	got := r.snapshot()
	if len(got) != 2 || got[1].Parent != root || got[1].Op != 7 || got[0].End < got[1].End {
		t.Errorf("snapshot = %+v (open span id %d must be left out)", got, open)
	}
}

func TestOpenLoopSchedule(t *testing.T) {
	if got := dueOffset(80, 80); got != time.Second {
		t.Errorf("request 80 at 80/s is due after %v, want 1s", got)
	}
	if got := dueOffset(1, 80); got != 12500*time.Microsecond {
		t.Errorf("gap at 80/s = %v, want 12.5ms", got)
	}
	if got := openLoopCount(80, 11*time.Second); got != 880 {
		t.Errorf("11 s at 80/s sends %d requests, want 880", got)
	}
	due := time.Unix(100, 0)
	if got := lateness(due, due.Add(-time.Millisecond)); got != 0 {
		t.Errorf("an early release is %v late, want 0", got)
	}
	if got := lateness(due, due.Add(3*time.Millisecond)); got != 3*time.Millisecond {
		t.Errorf("lateness = %v, want 3ms", got)
	}
	// At 80/s a tenth of the gap is 1.25 ms, judged on the median release.
	if latenessInvalid([]float64{0.1, 0.2, 1.2, 30}, 80) {
		t.Error("median 0.7 ms must be valid at 80/s")
	}
	if !latenessInvalid([]float64{1.3, 1.4, 1.5}, 80) {
		t.Error("median 1.4 ms must be invalid at 80/s")
	}
}

func TestWorsening(t *testing.T) {
	lower := metricDef{Better: "lower"}
	higher := metricDef{Better: "higher"}
	if got := worsening(lower, 100, 110); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("lower-is-better 100 -> 110 = %v, want 0.10", got)
	}
	if got := worsening(higher, 100, 90); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("higher-is-better 100 -> 90 = %v, want 0.10", got)
	}
	if got := worsening(higher, 100, 120); got >= 0 {
		t.Errorf("an improvement must read negative, got %v", got)
	}
}

func microAdvisor(t *testing.T, seed int64) (*core.Advisor, *spyQ) {
	t.Helper()
	b := benchmarks.Micro()
	hp := core.Test()
	hp.Episodes = 12
	adv, err := core.New(b.Space(), b.Workload, hp, seed)
	if err != nil {
		t.Fatal(err)
	}
	spy := &spyQ{inner: adv.Agent.Q, parent: noSpan}
	adv.Agent.Q = spy
	return adv, spy
}

// A decorated advisor trains, batches, checkpoints and restores exactly
// like a bare one: the decorator forwards BatchValuer and FullStater.
func TestSpyQForwards(t *testing.T) {
	cost := func(st *partition.State, _ workload.FreqVector) float64 {
		return 1 + float64(len(st.Signature())%5)
	}
	adv, spy := microAdvisor(t, 3)
	if err := adv.TrainOffline(cost, nil); err != nil {
		t.Fatal(err)
	}
	if spy.trainCalls == 0 || spy.trainCalls != adv.TrainUpdates || spy.trainBusy <= 0 {
		t.Errorf("spy saw %d train calls in %v; advisor made %d updates", spy.trainCalls, spy.trainBusy, adv.TrainUpdates)
	}

	var q dqn.QFunc = spy
	if _, ok := q.(dqn.BatchValuer); !ok {
		t.Fatal("spyQ must implement dqn.BatchValuer")
	}
	if _, ok := q.(dqn.FullStater); !ok {
		t.Fatal("spyQ must implement dqn.FullStater")
	}
	state := make([]float64, adv.Space.StateLen()+adv.WL.Size())
	state[0] = 1
	actions := []int{0, 1}
	batch := spy.ValuesBatch([][]float64{state, state}, [][]int{actions, actions})
	if single := spy.Values(state, actions); !reflect.DeepEqual(batch[0], single) || !reflect.DeepEqual(batch[1], single) {
		t.Errorf("ValuesBatch rows %v differ from Values %v", batch, single)
	}

	path := filepath.Join(t.TempDir(), "spy.ckpt")
	if err := adv.SaveCheckpoint(path); err != nil {
		t.Fatalf("a decorated advisor must checkpoint: %v", err)
	}
	fresh, freshSpy := microAdvisor(t, 3)
	if err := fresh.Resume(path); err != nil {
		t.Fatalf("a decorated advisor must restore: %v", err)
	}
	if fresh.EpisodesTrained != adv.EpisodesTrained {
		t.Errorf("restored %d episodes, want %d", fresh.EpisodesTrained, adv.EpisodesTrained)
	}
	if got, want := freshSpy.Values(state, actions), spy.Values(state, actions); !reflect.DeepEqual(got, want) {
		t.Errorf("restored Q-values %v, want %v", got, want)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json states for the driver what catalog.go states for the
// program; the two must not drift.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", doc.RunSeconds, defaultSeconds)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", doc.Paths)
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", doc.PerLayer, perLayer)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in json, %d in code", len(doc.Workloads), len(workloads))
	}
	seen := make(map[string]bool)
	unique := func(name string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("name %q is invalid or used twice", name)
		}
		seen[name] = true
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: json %q, code %q", i, doc.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("why of %s has %d characters", w.Name, len(w.Why))
		}
		unique(w.Name)
	}
	hasSetup := false
	for _, m := range endToEnd {
		unique(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end needs setup_s in s, lower is better")
	}
	for _, m := range perLayer {
		unique(m.Name)
	}
}
