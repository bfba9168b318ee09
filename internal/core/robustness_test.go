package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"partadvisor/internal/benchmarks"
	"partadvisor/internal/costmodel"
	"partadvisor/internal/exec"
	"partadvisor/internal/faults"
	"partadvisor/internal/hardware"
	"partadvisor/internal/partition"
	"partadvisor/internal/workload"
)

// TestFreqKeyBitExact is the regression test for the %.4g collision: two
// mixes agreeing in the first four significant digits used to share one
// bestForFreq — and thus one §4.2 timeout budget.
func TestFreqKeyBitExact(t *testing.T) {
	a := workload.FreqVector{0.123456, 0.5}
	b := workload.FreqVector{0.123457, 0.5} // %.4g renders both as 0.1235
	if freqKey(a) == freqKey(b) {
		t.Fatal("distinct mixes share a frequency key")
	}
	c := workload.FreqVector{0.123456, 0.5}
	if freqKey(a) != freqKey(c) {
		t.Fatal("identical mixes produce different keys")
	}
	if freqKey(workload.FreqVector{1, 2}) == freqKey(workload.FreqVector{1}) {
		t.Fatal("different-length mixes share a key")
	}
}

// trainedOnlinePipeline runs the full offline+online pipeline on the micro
// benchmark and returns the advisor, cost function and final suggestion.
// inject, when non-nil, arms the online engine with a fault schedule.
func trainedOnlinePipeline(t *testing.T, seed int64, hp Hyperparams, adv *Advisor, inject *faults.Config) (*Advisor, *OnlineCost, *partition.State, float64) {
	t.Helper()
	b := benchmarks.Micro()
	sp := b.Space()
	data := b.Generate(1, 1)
	cat := exec.BuildCatalog(b.Schema, data)
	cm := costmodel.New(cat, hardware.SystemXMemory())
	var err error
	if adv == nil {
		adv, err = New(sp, b.Workload, hp, seed)
		if err != nil {
			t.Fatal(err)
		}
	}
	cost := offlineCost(cm, b.Workload)
	if err := adv.TrainOffline(cost, nil); err != nil {
		t.Fatal(err)
	}
	e := exec.New(b.Schema, b.Generate(0.3, 5), hardware.SystemXMemory(), exec.Memory)
	if inject != nil {
		e.SetFaults(faults.MustNew(*inject))
	}
	oc := NewOnlineCost(e, b.Workload, nil)
	if err := adv.TrainOnline(oc, nil); err != nil {
		t.Fatal(err)
	}
	adv.InferCost = oc.WorkloadCost
	st, reward, err := adv.SuggestBest(b.Workload.UniformFreq(), oc)
	if err != nil {
		t.Fatal(err)
	}
	return adv, oc, st, reward
}

// TestCheckpointRoundTrip is the kill-and-resume guarantee: a run halted
// mid-offline from its Stop hook and resumed from its last periodic
// snapshot must reach exactly the same final suggestion — and the same
// online accounting — as the uninterrupted same-seed run. The hook is the
// one cmd/advisor installs: snapshot every 3 episodes, stop after 7.
func TestCheckpointRoundTrip(t *testing.T) {
	hp := Test()
	hp.Episodes = 12
	hp.OnlineEpisodes = 6

	// Run A: uninterrupted.
	_, ocA, stA, rewardA := trainedOnlinePipeline(t, 42, hp, nil, nil)

	// Run B: checkpoint every 3 episodes, killed after 7 (so the freshest
	// snapshot is episode 6 — resume genuinely replays episode 7).
	b := benchmarks.Micro()
	sp := b.Space()
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.bin")
	halted, err := New(sp, b.Workload, hp, 42)
	if err != nil {
		t.Fatal(err)
	}
	halted.Stop = func() bool {
		if halted.EpisodesTrained%3 == 0 {
			if err := halted.SaveCheckpoint(path); err != nil {
				t.Fatal(err)
			}
		}
		return halted.EpisodesTrained >= 7
	}
	cat := exec.BuildCatalog(b.Schema, b.Generate(1, 1))
	cm := costmodel.New(cat, hardware.SystemXMemory())
	if err := halted.TrainOffline(offlineCost(cm, b.Workload), nil); !errors.Is(err, ErrStopped) {
		t.Fatalf("TrainOffline = %v, want ErrStopped", err)
	}
	if halted.EpisodesTrained != 7 {
		t.Fatalf("halted after %d episodes, want 7", halted.EpisodesTrained)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("checkpoint dir holds %v (%v), want just the checkpoint", entries, err)
	}

	// Run C: fresh advisor, resumed from the snapshot, completes the
	// pipeline: TrainOffline trains only the 6 episodes the snapshot lacks.
	resumed, err := New(sp, b.Workload, hp, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Resume(path); err != nil {
		t.Fatal(err)
	}
	if resumed.EpisodesTrained != 6 {
		t.Fatalf("snapshot holds %d episodes, want 6", resumed.EpisodesTrained)
	}
	_, ocC, stC, rewardC := trainedOnlinePipeline(t, 42, hp, resumed, nil)

	if resumed.EpisodesTrained != hp.Episodes+hp.OnlineEpisodes {
		t.Fatalf("resumed run trained %d episodes in all, want %d", resumed.EpisodesTrained, hp.Episodes+hp.OnlineEpisodes)
	}
	if stA.Signature() != stC.Signature() {
		t.Fatalf("resumed run suggests %s, uninterrupted run %s", stC, stA)
	}
	if rewardA != rewardC {
		t.Fatalf("resumed reward %v, uninterrupted %v", rewardC, rewardA)
	}
	if ocA.Stats != ocC.Stats {
		t.Fatalf("online stats diverge after resume:\n%+v\n%+v", ocC.Stats, ocA.Stats)
	}
}

// TestOldCheckpointPayloadRestores: a snapshot written while checkpoints
// still carried a format version and per-phase episode counts decodes —
// gob skips fields the target struct lacks — and training continues from
// it exactly as from a current one.
func TestOldCheckpointPayloadRestores(t *testing.T) {
	b := benchmarks.Micro()
	sp := b.Space()
	hp := Test()
	hp.Episodes = 8
	cm := costmodel.New(exec.BuildCatalog(b.Schema, b.Generate(1, 1)), hardware.SystemXMemory())
	cost := offlineCost(cm, b.Workload)

	whole, err := New(sp, b.Workload, hp, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := whole.TrainOffline(cost, nil); err != nil {
		t.Fatal(err)
	}
	half, err := New(sp, b.Workload, hp, 3)
	if err != nil {
		t.Fatal(err)
	}
	half.Stop = func() bool { return half.EpisodesTrained == 5 }
	if err := half.TrainOffline(cost, nil); !errors.Is(err, ErrStopped) {
		t.Fatalf("TrainOffline = %v, want ErrStopped", err)
	}
	ck, err := half.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	// The payload's field set before the per-phase replay left core.
	type oldCheckpoint struct {
		Version         int
		Seed            int64
		Label           string
		Agent           []byte
		EpisodesTrained int
		StepsTrained    int
		TrainUpdates    int
		PhaseDone       map[string]int
		RNGInt63        uint64
		RNGUint64       uint64
	}
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(oldCheckpoint{
		Version: 1, Seed: ck.Seed, Label: "micro/disk/test/seed3", Agent: ck.Agent,
		EpisodesTrained: ck.EpisodesTrained, StepsTrained: ck.StepsTrained, TrainUpdates: ck.TrainUpdates,
		PhaseDone: map[string]int{"offline": 5}, RNGInt63: ck.RNGInt63, RNGUint64: ck.RNGUint64,
	}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "old.ckpt")
	if err := os.WriteFile(path, frameCheckpoint(payload.Bytes()), 0o644); err != nil {
		t.Fatal(err)
	}

	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Label != "micro/disk/test/seed3" || loaded.EpisodesTrained != 5 {
		t.Fatalf("old payload decoded as %+v", loaded)
	}
	resumed, err := New(sp, b.Workload, hp, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(loaded); err != nil {
		t.Fatal(err)
	}
	if err := resumed.TrainOffline(cost, nil); err != nil {
		t.Fatal(err)
	}
	if resumed.EpisodesTrained != hp.Episodes {
		t.Fatalf("resumed advisor trained %d episodes, want %d", resumed.EpisodesTrained, hp.Episodes)
	}
	want, err := whole.SaveModel()
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumed.SaveModel()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("training resumed from the old payload diverges from the uninterrupted run")
	}
}

// TestCheckpointValidation covers the restore guard rails.
func TestCheckpointValidation(t *testing.T) {
	b := benchmarks.Micro()
	sp := b.Space()
	hp := Test()
	hp.Episodes = 4
	path := filepath.Join(t.TempDir(), "ckpt.bin")

	a, err := New(sp, b.Workload, hp, 5)
	if err != nil {
		t.Fatal(err)
	}
	cat := exec.BuildCatalog(b.Schema, b.Generate(1, 1))
	cm := costmodel.New(cat, hardware.SystemXMemory())
	if err := a.TrainOffline(offlineCost(cm, b.Workload), nil); err != nil {
		t.Fatal(err)
	}
	if err := a.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}

	// Wrong seed: the RNG streams can never line up.
	wrongSeed, _ := New(sp, b.Workload, hp, 6)
	if err := wrongSeed.Resume(path); err == nil {
		t.Fatal("checkpoint restored into advisor with a different seed")
	}
	// An advisor that already trained is past the snapshot's RNG position.
	trained, _ := New(sp, b.Workload, hp, 5)
	if err := trained.TrainOffline(offlineCost(cm, b.Workload), nil); err != nil {
		t.Fatal(err)
	}
	if err := trained.SaveCheckpoint(filepath.Join(t.TempDir(), "later.bin")); err != nil {
		t.Fatal(err)
	}
	extra, _ := New(sp, b.Workload, hp, 5)
	hpLong := hp
	hpLong.Episodes = 6
	extra.HP = hpLong
	if err := extra.TrainOffline(offlineCost(cm, b.Workload), nil); err != nil {
		t.Fatal(err)
	}
	if err := extra.Resume(path); err == nil {
		t.Fatal("checkpoint restored into advisor already past its RNG position")
	}
	// Corrupt file.
	if err := os.WriteFile(path, []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh, _ := New(sp, b.Workload, hp, 5)
	if err := fresh.Resume(path); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
}

// TestTruncatedCheckpointCleanError: a checkpoint cut off mid-write (the
// failure the atomic temp-file+rename+fsync path prevents) must surface as
// a clean decode error, never a panic — and the save path must leave no
// stray temp files behind.
func TestTruncatedCheckpointCleanError(t *testing.T) {
	b := benchmarks.Micro()
	sp := b.Space()
	hp := Test()
	hp.Episodes = 4
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.bin")

	a, err := New(sp, b.Workload, hp, 5)
	if err != nil {
		t.Fatal(err)
	}
	cat := exec.BuildCatalog(b.Schema, b.Generate(1, 1))
	cm := costmodel.New(cat, hardware.SystemXMemory())
	if err := a.TrainOffline(offlineCost(cm, b.Workload), nil); err != nil {
		t.Fatal(err)
	}
	if err := a.SaveCheckpoint(path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("checkpoint dir holds %d entries, want just the checkpoint: %v", len(entries), entries)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{len(data) / 2, 1, 0} {
		if err := os.WriteFile(path, data[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		fresh, _ := New(sp, b.Workload, hp, 5)
		if err := fresh.Resume(path); err == nil {
			t.Fatalf("checkpoint truncated to %d bytes accepted", n)
		}
	}
}

// TestFaultedOnlineDeterminism: the same seed and the same fault schedule
// must reproduce the identical online run — every stat, including the new
// fault counters, and the identical suggestion.
func TestFaultedOnlineDeterminism(t *testing.T) {
	hp := Test()
	hp.Episodes = 10
	hp.OnlineEpisodes = 6
	inject := &faults.Config{
		Seed:                 3,
		TransientFailureRate: 0.05,
		Stragglers: []faults.Straggler{
			{Node: 1, Factor: 3, Window: faults.Window{Start: 0, End: 1e9}},
		},
	}
	_, oc1, st1, reward1 := trainedOnlinePipeline(t, 17, hp, nil, inject)
	_, oc2, st2, reward2 := trainedOnlinePipeline(t, 17, hp, nil, inject)
	if oc1.Stats != oc2.Stats {
		t.Fatalf("same-seed faulted stats diverge:\n%+v\n%+v", oc1.Stats, oc2.Stats)
	}
	if st1.Signature() != st2.Signature() || reward1 != reward2 {
		t.Fatalf("same-seed faulted suggestions diverge: %s (%v) vs %s (%v)", st1, reward1, st2, reward2)
	}
	if oc1.Stats.Retries == 0 {
		t.Fatal("5% transient rate produced no retries")
	}
	if oc1.Stats.DegradedSeconds == 0 {
		t.Fatal("always-on straggler produced no degraded seconds")
	}
}

// TestRetryRecoversFromCrashWindow: a measurement that fails because a node
// is down must succeed on retry once the backoff waits out the crash
// window — Retries counts the attempts, FailedQueries stays zero.
func TestRetryRecoversFromCrashWindow(t *testing.T) {
	b, sp, e := onlineFixture(t)
	s0 := sp.InitialState()
	e.Deploy(s0, nil) // settle the layout before arming the fault
	now := e.SimNow()
	in, err := faults.New(faults.Config{
		Crashes: []faults.NodeCrash{{Node: 0, Window: faults.Window{Start: now, End: now + 0.3}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.SetFaults(in)
	// Availability losses wait at the 1 s backoff cap, outliving the 0.3 s
	// window.
	oc := NewOnlineCost(e, b.Workload, nil)
	cost := oc.WorkloadCost(s0, b.Workload.UniformFreq())
	if oc.Stats.Retries == 0 {
		t.Fatal("crashed node produced no retries")
	}
	if oc.Stats.FailedQueries != 0 {
		t.Fatalf("%d measurements failed although the node recovers inside the retry budget", oc.Stats.FailedQueries)
	}
	if math.IsInf(cost, 1) || cost <= 0 {
		t.Fatalf("workload cost after recovery = %v", cost)
	}
}

// TestPermanentFailurePenalized: when a node never recovers, measurements
// on designs that need its shards exhaust the retry budget, are charged the
// failure penalty, and are never cached — CachedCost refuses to rank them.
func TestPermanentFailurePenalized(t *testing.T) {
	b, sp, e := onlineFixture(t)
	s0 := sp.InitialState()
	e.Deploy(s0, nil)
	now := e.SimNow()
	in, err := faults.New(faults.Config{
		Crashes: []faults.NodeCrash{{Node: 0, Window: faults.Window{Start: now, End: 1e18}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	e.SetFaults(in)
	oc := NewOnlineCost(e, b.Workload, nil)
	freq := b.Workload.UniformFreq()
	cost := oc.WorkloadCost(s0, freq)
	if oc.Stats.FailedQueries == 0 {
		t.Fatal("permanently lost shard produced no failed measurements")
	}
	if cost <= 0 {
		t.Fatalf("failed workload cost = %v, the penalty must keep it positive", cost)
	}
	if _, ok := oc.CachedCost(s0, freq); ok {
		t.Fatal("CachedCost ranks a design observed to lose queries")
	}
}

// TestTimeoutAccounting exercises the §4.2 timeout path end to end: after
// a fast design sets the best-known cost, a slow design's queries abort at
// the limit (Aborts), and with timeouts disabled the saving is booked
// counterfactually (TimeoutSavedSeconds).
func TestTimeoutAccounting(t *testing.T) {
	b, sp, e := onlineFixture(t)
	s0 := sp.InitialState()
	// Find the co-partitioning of "a" (the fast design for the join query).
	var fast *partition.State
	for _, vi := range sp.ValidActions(s0, nil) {
		st := sp.Apply(s0, sp.Actions()[vi])
		if k, ok := st.KeyOf("a"); ok && k.String() == "a_c" {
			fast = st
			break
		}
	}
	if fast == nil {
		t.Fatal("no action co-partitions a by a_c")
	}
	// Single-query mix on the query whose runtime separates the designs the
	// most, so its weighted cost alone exceeds the best workload cost.
	bestQ, bestGap := -1, 1.0
	for i, q := range b.Workload.Queries {
		e.Deploy(fast, nil)
		rf := runSec(e, q.Graph)
		e.Deploy(s0, nil)
		r0 := runSec(e, q.Graph)
		if rf > 0 && r0/rf > bestGap {
			bestQ, bestGap = i, r0/rf
		}
	}
	if bestQ < 0 {
		t.Fatal("no query is slower on the initial state than on the co-partitioned one")
	}
	freq := make(workload.FreqVector, len(b.Workload.Queries))
	freq[bestQ] = 1

	oc := NewOnlineCost(e, b.Workload, nil)
	oc.WorkloadCost(fast, freq) // sets bestForFreq
	oc.WorkloadCost(s0, freq)   // slower: must abort at the limit
	if oc.Stats.Aborts == 0 {
		t.Fatalf("slow design (%.1fx) did not abort", bestGap)
	}

	e2 := exec.New(b.Schema, b.Generate(0.3, 5), hardware.SystemXMemory(), exec.Memory)
	oc2 := NewOnlineCost(e2, b.Workload, nil)
	oc2.UseTimeouts = false
	oc2.WorkloadCost(fast, freq)
	oc2.WorkloadCost(s0, freq)
	if oc2.Stats.Aborts != 0 {
		t.Fatal("aborts booked with timeouts disabled")
	}
	if oc2.Stats.TimeoutSavedSeconds <= 0 {
		t.Fatal("no counterfactual timeout saving booked with timeouts disabled")
	}
}
