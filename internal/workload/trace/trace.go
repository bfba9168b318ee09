// Package trace generates adversarial traffic traces: Zipf-skewed key
// access, flash-crowd spikes (step/ramp/decay), diurnal curves, and
// multi-tenant interleavings. Traces are seeded and replay bit-identically
// from the seed alone — the chaos soak runs every episode twice and compares
// digests, so any hidden nondeterminism (map iteration, wall-clock, shared
// RNG races) is a test failure, not a flake.
//
// The model is windowed: a trace is a fixed number of discrete time windows;
// each window carries a per-tenant intensity (base weight × diurnal curve ×
// active spike factors), an interleaved event stream of (tenant, key)
// accesses, and a derived workload mix (the intensity-weighted blend of the
// tenants' preferred query mixes). Key skew within a tenant is Zipfian with
// a per-tenant exponent, so a "celebrity" tenant concentrates its accesses
// on a handful of hot keys while a uniform tenant spreads them flat.
package trace

import (
	"fmt"
	"math"
	"math/rand"

	"partadvisor/internal/workload"
)

// Shape selects how a flash-crowd spike evolves over its width.
type Shape int

const (
	// Step jumps to Peak for the whole width, then stops.
	Step Shape = iota
	// Ramp climbs linearly from baseline to Peak across the width.
	Ramp
	// Decay starts at Peak and halves its excess every window (a flash
	// crowd that loses interest).
	Decay
)

func (s Shape) String() string {
	switch s {
	case Step:
		return "step"
	case Ramp:
		return "ramp"
	case Decay:
		return "decay"
	}
	return fmt.Sprintf("shape(%d)", int(s))
}

// Spike is one flash crowd: a multiplicative intensity excursion over
// [Start, Start+Width) windows.
type Spike struct {
	Start int
	Width int
	// Peak is the intensity multiplier at the spike's maximum (>= 1).
	Peak  float64
	Shape Shape
}

// factor returns the spike's intensity multiplier at window w (1 outside
// the spike).
func (sp Spike) factor(w int) float64 {
	if w < sp.Start || w >= sp.Start+sp.Width || sp.Width <= 0 {
		return 1
	}
	rel := w - sp.Start
	switch sp.Shape {
	case Ramp:
		// Linear climb reaching Peak on the last window of the spike.
		if sp.Width == 1 {
			return sp.Peak
		}
		return 1 + (sp.Peak-1)*float64(rel)/float64(sp.Width-1)
	case Decay:
		return 1 + (sp.Peak-1)*math.Pow(0.5, float64(rel))
	default: // Step
		return sp.Peak
	}
}

// Tenant describes one tenant's traffic shape.
type Tenant struct {
	Name string
	// Weight is the tenant's base intensity (events per window per unit of
	// Config.EventsPerWindow).
	Weight float64
	// ZipfS is the key-skew exponent (> 1 for skew; 0 or anything <= 1
	// means uniform key access).
	ZipfS float64
	// DiurnalAmp in [0, 1] modulates intensity sinusoidally over
	// Config.Period windows; 0 disables the diurnal curve.
	DiurnalAmp float64
	// DiurnalPhase in [0, 1) shifts the tenant's peak within the period, so
	// tenants in different "time zones" interleave instead of stacking.
	DiurnalPhase float64
	// Spikes are this tenant's flash crowds.
	Spikes []Spike
	// Mix is the tenant's preferred query mix (may be nil when the trace is
	// used for key access only).
	Mix workload.FreqVector
}

// Config specifies a trace.
type Config struct {
	Seed    int64
	Windows int
	// Period is the diurnal cycle length in windows (default 24).
	Period int
	// Keys is the key universe size per tenant (default 1024).
	Keys int
	// EventsPerWindow is the event budget per unit of tenant weight at
	// intensity 1 (default 64).
	EventsPerWindow int
	Tenants         []Tenant
}

func (c Config) withDefaults() Config {
	if c.Period <= 0 {
		c.Period = 24
	}
	if c.Keys <= 0 {
		c.Keys = 1024
	}
	if c.EventsPerWindow <= 0 {
		c.EventsPerWindow = 64
	}
	return c
}

// Event is one key access by one tenant (tenant is an index into
// Config.Tenants).
type Event struct {
	Tenant int
	Key    int64
}

// Window is one trace time slice.
type Window struct {
	Index int
	// Intensity is the per-tenant intensity after diurnal and spike
	// modulation.
	Intensity []float64
	// Events is the interleaved access stream, in arrival order.
	Events []Event
}

// Trace is a fully materialized, replayable trace.
type Trace struct {
	Config  Config
	Windows []Window
}

// Generate materializes the trace for cfg. The same cfg (including Seed)
// always produces the same trace, bit for bit: tenants are iterated in
// slice order, all random draws come from one seeded RNG consumed in a
// fixed order, and no maps are iterated during generation.
func Generate(cfg Config) *Trace {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Per-tenant Zipf samplers, created in tenant order so the shared RNG
	// is consumed deterministically.
	zipfs := make([]*rand.Zipf, len(cfg.Tenants))
	for i, tn := range cfg.Tenants {
		if tn.ZipfS > 1 && cfg.Keys > 1 {
			zipfs[i] = rand.NewZipf(rng, tn.ZipfS, 1, uint64(cfg.Keys-1))
		}
	}
	tr := &Trace{Config: cfg, Windows: make([]Window, cfg.Windows)}
	for w := 0; w < cfg.Windows; w++ {
		win := Window{Index: w, Intensity: make([]float64, len(cfg.Tenants))}
		// Per-tenant event budget for this window.
		budgets := make([]int, len(cfg.Tenants))
		total := 0
		for i, tn := range cfg.Tenants {
			in := tn.Weight * diurnal(tn, w, cfg.Period)
			for _, sp := range tn.Spikes {
				in *= sp.factor(w)
			}
			if in < 0 {
				in = 0
			}
			win.Intensity[i] = in
			budgets[i] = int(math.Round(in * float64(cfg.EventsPerWindow)))
			total += budgets[i]
		}
		// Interleave: repeatedly draw a tenant weighted by its remaining
		// budget, then draw that tenant's key. One RNG, fixed order —
		// deterministic, and the interleaving genuinely mixes tenants
		// instead of concatenating their bursts.
		win.Events = make([]Event, 0, total)
		remaining := total
		for remaining > 0 {
			pick := rng.Intn(remaining)
			ti := 0
			for ; ti < len(budgets); ti++ {
				if pick < budgets[ti] {
					break
				}
				pick -= budgets[ti]
			}
			budgets[ti]--
			remaining--
			var key int64
			if z := zipfs[ti]; z != nil {
				key = int64(z.Uint64())
			} else {
				key = int64(rng.Intn(cfg.Keys))
			}
			win.Events = append(win.Events, Event{Tenant: ti, Key: key})
		}
		tr.Windows[w] = win
	}
	return tr
}

// diurnal returns the tenant's diurnal intensity factor at window w.
func diurnal(tn Tenant, w, period int) float64 {
	if tn.DiurnalAmp == 0 {
		return 1
	}
	phase := 2 * math.Pi * (float64(w)/float64(period) + tn.DiurnalPhase)
	f := 1 + tn.DiurnalAmp*math.Sin(phase)
	if f < 0 {
		return 0
	}
	return f
}

// Mix returns the window's workload mix: the intensity-weighted blend of
// the tenants' preferred mixes, normalized. Tenants without a mix
// contribute nothing; a window with no mixing tenants returns a zero
// vector of length size.
func (t *Trace) Mix(w, size int) workload.FreqVector {
	f := make(workload.FreqVector, size)
	win := &t.Windows[w]
	for i, tn := range t.Config.Tenants {
		if tn.Mix == nil {
			continue
		}
		for j := 0; j < size && j < len(tn.Mix); j++ {
			f[j] += win.Intensity[i] * tn.Mix[j]
		}
	}
	return f.Normalize()
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Digest folds the entire trace (window intensities, event order, tenants,
// keys) into one FNV-1a hash. Two traces with equal digests replayed the
// same events in the same order with the same intensities.
func (t *Trace) Digest() uint64 {
	h := uint64(fnvOffset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= fnvPrime64
		}
	}
	for wi := range t.Windows {
		win := &t.Windows[wi]
		mix(uint64(win.Index))
		for _, in := range win.Intensity {
			mix(math.Float64bits(in))
		}
		for _, ev := range win.Events {
			mix(uint64(ev.Tenant))
			mix(uint64(ev.Key))
		}
	}
	return h
}

// Events returns the total event count across all windows.
func (t *Trace) Events() int {
	n := 0
	for wi := range t.Windows {
		n += len(t.Windows[wi].Events)
	}
	return n
}
