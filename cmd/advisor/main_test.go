package main

import (
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"partadvisor/advisor"
	"partadvisor/internal/benchmarks"
	"partadvisor/internal/core"
	"partadvisor/internal/datagen"
	"partadvisor/internal/hardware"
)

func TestParseFreq(t *testing.T) {
	wl := benchmarks.Micro().Workload
	// Empty spec: uniform.
	f, err := parseFreq(wl, "")
	if err != nil {
		t.Fatal(err)
	}
	if f[0] != 1 || f[1] != 1 {
		t.Fatalf("uniform = %v", f)
	}
	// Named frequencies, normalized.
	f, err = parseFreq(wl, "qab=2, qac=0.5")
	if err != nil {
		t.Fatal(err)
	}
	if f[0] != 1 || math.Abs(f[1]-0.25) > 1e-12 {
		t.Fatalf("mix = %v", f)
	}
	// Errors.
	for _, bad := range []string{"qab", "nosuch=1", "qab=x", "qab=-1"} {
		if _, err := parseFreq(wl, bad); err == nil {
			t.Errorf("parseFreq(%q) accepted", bad)
		}
	}
}

func TestPickBenchmark(t *testing.T) {
	for _, name := range []string{"ssb", "tpcds", "tpcch", "tpch", "micro"} {
		if benchmarks.ByName(name) == nil {
			t.Errorf("benchmarks.ByName(%q) = nil", name)
		}
	}
	if benchmarks.ByName("nope") != nil {
		t.Errorf("unknown benchmark accepted")
	}
}

// TestProfileMatchesSession: the CLI's -profile repro and the library's
// NewSession must resolve to the same hyperparameters for every built-in
// benchmark — one "complex schema" rule, not one per entry point (TPC-H,
// with exactly 8 tables, used to get 120 episodes through the library and
// 200 through the CLI).
func TestProfileMatchesSession(t *testing.T) {
	for name, complexSchema := range map[string]bool{
		"micro": false, "ssb": false, "tpch": true, "tpcch": true, "tpcds": true,
	} {
		b := benchmarks.ByName(name)
		if got := b.ComplexSchema(); got != complexSchema {
			t.Errorf("%s (%d tables): ComplexSchema() = %v, want %v", name, len(b.Schema.Tables), got, complexSchema)
		}
		sess, err := advisor.NewSession(b, advisor.DiskCluster(), 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cli := pickProfile("repro", b.ComplexSchema()); !reflect.DeepEqual(cli, sess.Advisor.HP) {
			t.Errorf("%s: CLI profile %+v != NewSession's %+v", name, cli, sess.Advisor.HP)
		}
	}
}

func TestQueryNames(t *testing.T) {
	wl := benchmarks.Micro().Workload
	names := queryNames(wl)
	if len(names) != 2 || names[0] != "qab" {
		t.Fatalf("queryNames = %v", names)
	}
}

// TestCheckScale: a -scale that Generate would clamp to floor-sized data
// (zero, negative, or so large the row counts overflow) or could never
// materialize is a usage error, not a silent run. main checks -scale with
// datagen.CheckScale.
func TestCheckScale(t *testing.T) {
	for _, tc := range []struct {
		scale float64
		ok    bool
	}{
		{1, true},
		{0.05, true},
		{2.5, true},
		{datagen.MaxScale, true},
		{0, false},
		{-1, false},
		{1e19, false},
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
	} {
		if err := datagen.CheckScale(tc.scale); (err == nil) != tc.ok {
			t.Errorf("CheckScale(%g) = %v, want ok=%v", tc.scale, err, tc.ok)
		}
	}
}

// TestCheckGuard: guard flags that would be silently ignored — -guard
// without -online, a -guard-* flag without -guard — are usage errors.
func TestCheckGuard(t *testing.T) {
	for _, tc := range []struct {
		name            string
		online, guardOn bool
		set             []string
		ok              bool
	}{
		{"no guard", false, false, []string{"bench", "online"}, true},
		{"guarded online", true, true, []string{"guard", "guard-canary", "online"}, true},
		{"guard without online", false, true, []string{"guard"}, false},
		{"guard knob without guard", true, false, []string{"guard-window-bytes", "online"}, false},
		{"guard knob alone", false, false, []string{"guard-canary"}, false},
	} {
		if err := checkGuard(tc.online, tc.guardOn, tc.set); (err == nil) != tc.ok {
			t.Errorf("%s: checkGuard = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// newTrainRun builds a micro advisor for the given engine and profile
// label, with the CLI's policy installed as its Stop hook.
func newTrainRun(t *testing.T, engine, profile, path string) (*trainRun, *advisor.Session) {
	t.Helper()
	hw, ok := hardware.ByName(engine)
	if !ok {
		t.Fatalf("no engine %q", engine)
	}
	sess, err := advisor.NewDeployment(benchmarks.Micro(), hw, 0.05, 1).NewSession(core.Test(), 1)
	if err != nil {
		t.Fatal(err)
	}
	r := &trainRun{
		adv:      sess.Advisor,
		path:     path,
		every:    3,
		label:    runLabel("micro", engine, profile, 1),
		signaled: func() bool { return false },
	}
	sess.Advisor.Stop = r.stop
	return r, sess
}

// TestTrainRunHook: the Stop hook snapshots every -checkpoint-every
// offline episodes, halts at -halt-after without a further snapshot, and
// on a signal snapshots once more before stopping.
func TestTrainRunHook(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.ckpt")
	r, sess := newTrainRun(t, "disk", "test", path)
	r.haltAfter = 7
	r.offline = true
	if err := sess.TrainOffline(); !errors.Is(err, core.ErrStopped) || !r.halted {
		t.Fatalf("TrainOffline = %v (halted %v), want a -halt-after stop", err, r.halted)
	}
	ck, err := core.LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if r.adv.EpisodesTrained != 7 || ck.EpisodesTrained != 6 || ck.Label != "micro/disk/test/seed1" {
		t.Fatalf("halted at %d with snapshot %d %q, want 7 with snapshot 6 labelled micro/disk/test/seed1",
			r.adv.EpisodesTrained, ck.EpisodesTrained, ck.Label)
	}

	r, sess = newTrainRun(t, "disk", "test", path)
	r.signaled = func() bool { return r.adv.EpisodesTrained == 4 }
	r.offline = true
	if err := sess.TrainOffline(); !errors.Is(err, core.ErrStopped) || r.halted {
		t.Fatalf("TrainOffline = %v (halted %v), want a signalled stop", err, r.halted)
	}
	if ck, err = core.LoadCheckpoint(path); err != nil || ck.EpisodesTrained != 4 {
		t.Fatalf("snapshot at signal: %v, %+v; want 4 episodes", err, ck)
	}
}

// TestResumeRefusesOtherRun: a checkpoint written for another engine or
// profile of the same benchmark and seed is refused; the same run resumes.
func TestResumeRefusesOtherRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.ckpt")
	w, sess := newTrainRun(t, "disk", "test", path)
	w.haltAfter = 5
	w.offline = true
	if err := sess.TrainOffline(); !errors.Is(err, core.ErrStopped) {
		t.Fatalf("TrainOffline = %v, want ErrStopped", err)
	}
	for _, other := range [][2]string{{"memory", "test"}, {"disk", "paper"}} {
		r, _ := newTrainRun(t, other[0], other[1], path)
		if err := r.resume(); err == nil || !strings.Contains(err.Error(), "does not match run") {
			t.Errorf("%s/%s resumed a micro/disk/test checkpoint: %v", other[0], other[1], err)
		}
	}
	r, _ := newTrainRun(t, "disk", "test", path)
	if err := r.resume(); err != nil || r.adv.EpisodesTrained != 3 {
		t.Fatalf("same run: resume = %v at %d episodes, want the episode-3 snapshot", err, r.adv.EpisodesTrained)
	}
}
