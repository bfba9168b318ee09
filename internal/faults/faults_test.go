package faults

import (
	"math"
	"sync"
	"testing"
)

func TestValidate(t *testing.T) {
	bad := []Config{
		{Crashes: []NodeCrash{{Node: -1, Window: Window{0, 1}}}},
		{Crashes: []NodeCrash{{Node: 0, Window: Window{2, 1}}}},
		{PeriodicCrashes: []PeriodicCrash{{Node: 0, Period: 0, DownStart: 0, DownEnd: 1}}},
		{PeriodicCrashes: []PeriodicCrash{{Node: 0, Period: 10, DownStart: 5, DownEnd: 11}}},
		{PeriodicCrashes: []PeriodicCrash{{Node: 0, Period: 10, DownStart: 5, DownEnd: 5}}},
		{Stragglers: []Straggler{{Node: 0, Factor: 1, Window: Window{0, 1}}}},
		{Stragglers: []Straggler{{Node: 0, Factor: 2, Window: Window{1, 1}}}},
		{Degradations: []NetDegradation{{Factor: 0, Window: Window{0, 1}}}},
		{Degradations: []NetDegradation{{Factor: 1.5, Window: Window{0, 1}}}},
		{TransientFailureRate: 1},
		{TransientFailureRate: -0.1},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d: expected validation error", i)
		}
	}
	if _, err := New(Config{
		Crashes:              []NodeCrash{{Node: 1, Window: Window{0, 5}}},
		PeriodicCrashes:      []PeriodicCrash{{Node: 2, Period: 10, DownStart: 0, DownEnd: 5}},
		Stragglers:           []Straggler{{Node: 0, Factor: 3, Window: Window{2, 4}}},
		Degradations:         []NetDegradation{{Factor: 0.25, Window: Window{1, 3}}},
		TransientFailureRate: 0.1,
	}); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestNodeDown(t *testing.T) {
	in := MustNew(Config{
		Crashes:         []NodeCrash{{Node: 1, Window: Window{2, 5}}},
		PeriodicCrashes: []PeriodicCrash{{Node: 2, Period: 10, DownStart: 6, DownEnd: 10}},
	})
	cases := []struct {
		node int
		t    float64
		down bool
	}{
		{1, 1.9, false}, {1, 2, true}, {1, 4.99, true}, {1, 5, false},
		{0, 3, false},
		{2, 5.9, false}, {2, 6, true}, {2, 9.9, true}, {2, 10, false},
		{2, 16, true}, {2, 25.5, false}, {2, 26.5, true},
	}
	for _, c := range cases {
		if got := in.NodeDown(c.node, c.t); got != c.down {
			t.Errorf("NodeDown(%d, %g) = %v, want %v", c.node, c.t, got, c.down)
		}
	}
}

func TestFactors(t *testing.T) {
	in := MustNew(Config{
		Stragglers: []Straggler{
			{Node: 0, Factor: 2, Window: Window{0, 10}},
			{Node: 0, Factor: 3, Window: Window{5, 10}},
		},
		Degradations: []NetDegradation{
			{Factor: 0.5, Window: Window{0, 10}},
			{Factor: 0.5, Window: Window{5, 10}},
		},
	})
	if got := in.SlowdownFactor(0, 1); got != 2 {
		t.Errorf("SlowdownFactor(0, 1) = %g, want 2", got)
	}
	if got := in.SlowdownFactor(0, 7); got != 6 {
		t.Errorf("SlowdownFactor(0, 7) = %g, want 6 (compounded)", got)
	}
	if got := in.SlowdownFactor(1, 7); got != 1 {
		t.Errorf("SlowdownFactor(1, 7) = %g, want 1", got)
	}
	if got := in.NetFactor(1); got != 0.5 {
		t.Errorf("NetFactor(1) = %g, want 0.5", got)
	}
	if got := in.NetFactor(7); got != 0.25 {
		t.Errorf("NetFactor(7) = %g, want 0.25 (compounded)", got)
	}
	if got := in.NetFactor(20); got != 1 {
		t.Errorf("NetFactor(20) = %g, want 1", got)
	}
}

// TestTransientFailureDeterminism pins the one transient-failure derivation:
// a verdict is a pure function of (seed, batch, position) — the same under
// any call order and from any goroutine — and fails at the configured rate
// both across the positions of batches and across position 0 of successive
// batch numbers (the single-query case).
func TestTransientFailureDeterminism(t *testing.T) {
	const batches, positions = 50, 20
	grid := func(in *Injector) []bool {
		out := make([]bool, batches*positions)
		for b := 0; b < batches; b++ {
			for p := 0; p < positions; p++ {
				out[b*positions+p] = in.TransientFailureAt(uint64(b), p)
			}
		}
		return out
	}
	in := MustNew(Config{Seed: 42, TransientFailureRate: 0.3})
	a, b := grid(in), grid(MustNew(Config{Seed: 42, TransientFailureRate: 0.3}))
	fails := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed verdicts diverge at batch %d position %d", i/positions, i%positions)
		}
		if a[i] {
			fails++
		}
	}
	if fails < 200 || fails > 400 {
		t.Errorf("0.3-rate schedule failed %d/1000 positions", fails)
	}

	// Call order and concurrency do not matter: re-ask in reverse, from
	// several goroutines sharing the injector.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := len(a) - 1; i >= 0; i-- {
				if in.TransientFailureAt(uint64(i/positions), i%positions) != a[i] {
					t.Errorf("verdict at batch %d position %d depends on call order", i/positions, i%positions)
					return
				}
			}
		}()
	}
	wg.Wait()

	singles := 0
	for batch := uint64(0); batch < 1000; batch++ {
		if in.TransientFailureAt(batch, 0) {
			singles++
		}
	}
	if singles < 200 || singles > 400 {
		t.Errorf("0.3-rate schedule failed %d/1000 single-query batches", singles)
	}

	c := grid(MustNew(Config{Seed: 43, TransientFailureRate: 0.3}))
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical verdicts")
	}
}

func TestTransientFailureZeroRateNoDraws(t *testing.T) {
	in := MustNew(Config{Seed: 1})
	for batch := uint64(0); batch < 20; batch++ {
		for pos := 0; pos < 20; pos++ {
			if in.TransientFailureAt(batch, pos) {
				t.Fatalf("zero-rate schedule failed batch %d position %d", batch, pos)
			}
		}
	}
}

func TestDegradedOverlap(t *testing.T) {
	in := MustNew(Config{
		Crashes:      []NodeCrash{{Node: 0, Window: Window{1, 3}}},
		Stragglers:   []Straggler{{Node: 1, Factor: 2, Window: Window{2, 5}}}, // overlaps the crash: union [1,5)
		Degradations: []NetDegradation{{Factor: 0.5, Window: Window{7, 8}}},
	})
	if got := in.DegradedOverlap(0, 10); math.Abs(got-5) > 1e-12 {
		t.Errorf("DegradedOverlap(0, 10) = %g, want 5 (union [1,5) + [7,8))", got)
	}
	if got := in.DegradedOverlap(4, 7.5); math.Abs(got-1.5) > 1e-12 {
		t.Errorf("DegradedOverlap(4, 7.5) = %g, want 1.5", got)
	}
	if got := in.DegradedOverlap(8, 9); got != 0 {
		t.Errorf("DegradedOverlap(8, 9) = %g, want 0", got)
	}
	if got := in.DegradedOverlap(5, 5); got != 0 {
		t.Errorf("empty interval overlap = %g, want 0", got)
	}
}

func TestDegradedOverlapPeriodic(t *testing.T) {
	in := MustNew(Config{
		PeriodicCrashes: []PeriodicCrash{{Node: 0, Period: 10, DownStart: 0, DownEnd: 5}},
	})
	// Down half of every period: [0,5), [10,15), [20,25), ...
	if got := in.DegradedOverlap(0, 40); math.Abs(got-20) > 1e-9 {
		t.Errorf("DegradedOverlap(0, 40) = %g, want 20", got)
	}
	if got := in.DegradedOverlap(3, 12); math.Abs(got-4) > 1e-9 {
		t.Errorf("DegradedOverlap(3, 12) = %g, want 4 ([3,5) + [10,12))", got)
	}
	if got := in.DegradedOverlap(6, 9); got != 0 {
		t.Errorf("DegradedOverlap(6, 9) = %g, want 0", got)
	}
}
