package trace

import (
	"sync"
	"testing"

	"partadvisor/internal/workload"
)

func celebrityConfig(seed int64) Config {
	return Config{
		Seed:    seed,
		Windows: 48,
		Period:  24,
		Keys:    256,
		Tenants: []Tenant{
			{
				Name: "celebrity", Weight: 1, ZipfS: 2.0,
				Spikes: []Spike{{Start: 20, Width: 8, Peak: 6}},
				Mix:    workload.FreqVector{1, 0.2},
			},
			{
				Name: "steady", Weight: 0.5, DiurnalAmp: 0.8,
				Mix: workload.FreqVector{0.2, 1},
			},
		},
	}
}

func TestReplayBitIdentical(t *testing.T) {
	a := Generate(celebrityConfig(7))
	b := Generate(celebrityConfig(7))
	if a.Digest() != b.Digest() {
		t.Fatalf("same seed, different digests: %x vs %x", a.Digest(), b.Digest())
	}
	if len(a.Windows) != len(b.Windows) {
		t.Fatalf("window counts differ")
	}
	for wi := range a.Windows {
		wa, wb := &a.Windows[wi], &b.Windows[wi]
		if len(wa.Events) != len(wb.Events) {
			t.Fatalf("window %d: event counts differ", wi)
		}
		for i := range wa.Events {
			if wa.Events[i] != wb.Events[i] {
				t.Fatalf("window %d event %d: %+v vs %+v", wi, i, wa.Events[i], wb.Events[i])
			}
		}
	}
	if Generate(celebrityConfig(8)).Digest() == a.Digest() {
		t.Fatalf("different seeds produced identical traces")
	}
}

// Concurrent generations from the same config must all agree — run under
// -race this also proves Generate shares no hidden mutable state.
func TestReplayConcurrent(t *testing.T) {
	want := Generate(celebrityConfig(3)).Digest()
	var wg sync.WaitGroup
	digests := make([]uint64, 8)
	for i := range digests {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			digests[i] = Generate(celebrityConfig(3)).Digest()
		}(i)
	}
	wg.Wait()
	for i, d := range digests {
		if d != want {
			t.Fatalf("goroutine %d: digest %x != %x", i, d, want)
		}
	}
}

func TestZipfSkewsKeys(t *testing.T) {
	tr := Generate(Config{
		Seed: 1, Windows: 300, Keys: 100,
		Tenants: []Tenant{{Name: "skewed", Weight: 1, ZipfS: 1.8}},
	})
	counts := make(map[int64]int)
	for wi := range tr.Windows {
		for _, ev := range tr.Windows[wi].Events {
			counts[ev.Key]++
		}
	}
	if counts[0] < 4*counts[50] {
		t.Fatalf("Zipf not skewed: key0=%d key50=%d", counts[0], counts[50])
	}
	// A uniform tenant must not concentrate like that.
	tr = Generate(Config{
		Seed: 1, Windows: 300, Keys: 100,
		Tenants: []Tenant{{Name: "flat", Weight: 1}},
	})
	counts = make(map[int64]int)
	total := 0
	for wi := range tr.Windows {
		for _, ev := range tr.Windows[wi].Events {
			counts[ev.Key]++
			total++
		}
	}
	if counts[0] > total/20 {
		t.Fatalf("uniform tenant concentrated on key0: %d of %d", counts[0], total)
	}
}

func TestSpikeShapes(t *testing.T) {
	ramp := Generate(Config{
		Seed: 2, Windows: 20, Keys: 16,
		Tenants: []Tenant{{
			Name: "t", Weight: 1,
			Spikes: []Spike{{Start: 5, Width: 6, Peak: 5}},
		}},
	}).Windows

	if got := ramp[4].Intensity[0]; got != 1 {
		t.Fatalf("ramp pre-spike intensity = %v, want 1", got)
	}
	if got := ramp[11].Intensity[0]; got != 1 {
		t.Fatalf("ramp post-spike intensity = %v, want 1", got)
	}
	for w := 6; w <= 10; w++ {
		if ramp[w].Intensity[0] <= ramp[w-1].Intensity[0] {
			t.Fatalf("ramp not climbing at window %d: %v after %v", w, ramp[w].Intensity[0], ramp[w-1].Intensity[0])
		}
	}
	if got := ramp[10].Intensity[0]; got != 5 {
		t.Fatalf("ramp final intensity = %v, want 5", got)
	}

	// Spikes must actually move event volume, not just the intensity label.
	pre, peak := len(ramp[4].Events), len(ramp[10].Events)
	if peak < 3*pre {
		t.Fatalf("ramp spike moved too few events: pre=%d peak=%d", pre, peak)
	}
}

func TestDiurnalCurve(t *testing.T) {
	tr := Generate(Config{
		Seed: 3, Windows: 24, Period: 24, Keys: 16,
		Tenants: []Tenant{{Name: "d", Weight: 1, DiurnalAmp: 0.9}},
	})
	// sin peaks at window 6 (quarter period) and troughs at 18.
	peak, trough := tr.Windows[6].Intensity[0], tr.Windows[18].Intensity[0]
	if peak <= 1 || trough >= 1 {
		t.Fatalf("diurnal curve flat: peak=%v trough=%v", peak, trough)
	}
	if peak-1 < 0.8 || 1-trough < 0.8 {
		t.Fatalf("diurnal amplitude wrong: peak=%v trough=%v", peak, trough)
	}
}

func TestMultiTenantInterleaving(t *testing.T) {
	tr := Generate(Config{
		Seed: 4, Windows: 4, Keys: 64,
		Tenants: []Tenant{
			{Name: "a", Weight: 1},
			{Name: "b", Weight: 1},
		},
	})
	for wi := range tr.Windows {
		win := &tr.Windows[wi]
		seen := [2]int{}
		switches := 0
		for i, ev := range win.Events {
			seen[ev.Tenant]++
			if i > 0 && ev.Tenant != win.Events[i-1].Tenant {
				switches++
			}
		}
		if seen[0] == 0 || seen[1] == 0 {
			t.Fatalf("window %d missing a tenant: %v", wi, seen)
		}
		// Genuinely interleaved, not two concatenated runs.
		if switches < 10 {
			t.Fatalf("window %d barely interleaved: %d switches", wi, switches)
		}
	}
}

func TestMixBlendsTenants(t *testing.T) {
	cfg := celebrityConfig(5)
	tr := Generate(cfg)
	// During the celebrity's ramp spike its mix should dominate.
	m := tr.Mix(27, 2)
	if m[0] <= m[1] {
		t.Fatalf("spike window mix not dominated by celebrity: %v", m)
	}
	if m[0] != 1 {
		t.Fatalf("mix not normalized: %v", m)
	}
}
