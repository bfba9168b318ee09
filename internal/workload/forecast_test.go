package workload

import (
	"math"
	"testing"
)

func TestForecasterLevelOnly(t *testing.T) {
	f, err := NewForecaster(2, 0.5, false)
	if err != nil {
		t.Fatal(err)
	}
	// Before observations: zero forecast.
	z := f.Forecast(1)
	if z[0] != 0 || z[1] != 0 {
		t.Fatalf("empty forecast = %v", z)
	}
	// Constant input converges to the input.
	for i := 0; i < 20; i++ {
		if err := f.Observe(FreqVector{1, 0.5}); err != nil {
			t.Fatal(err)
		}
	}
	fc := f.Forecast(3)
	if math.Abs(fc[0]-1) > 1e-6 || math.Abs(fc[1]-0.5) > 1e-3 {
		t.Fatalf("constant forecast = %v", fc)
	}
	// Without trend, the horizon does not matter.
	fc10 := f.Forecast(10)
	for i := range fc {
		if fc[i] != fc10[i] {
			t.Fatalf("level-only forecast depends on steps: %v vs %v", fc, fc10)
		}
	}
}

func TestForecasterTrendExtrapolates(t *testing.T) {
	f, err := NewForecaster(1, 0.6, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
		if err := f.Observe(FreqVector{v}); err != nil {
			t.Fatal(err)
		}
	}
	// One normalized slot is always 1 after Normalize; check raw level via
	// a two-slot variant instead.
	f2, _ := NewForecaster(2, 0.6, true)
	for _, v := range []float64{0.1, 0.2, 0.3, 0.4, 0.5} {
		f2.Observe(FreqVector{v, 1})
	}
	near := f2.Forecast(1)
	far := f2.Forecast(5)
	if far[0] <= near[0] {
		t.Fatalf("rising series should extrapolate up: %v vs %v", near[0], far[0])
	}
}

// Multi-step horizons: with a trend, the raw extrapolation is linear in
// steps, so against a steady ballast slot a rising slot's normalized share
// grows monotonically with the horizon, and every horizon stays a valid
// max-normalized, non-negative mix.
func TestForecasterMultiStepHorizon(t *testing.T) {
	f, err := NewForecaster(3, 0.6, true)
	if err != nil {
		t.Fatal(err)
	}
	// Slot 0 rises, slot 1 falls, slot 2 is steady ballast.
	up := []float64{0.1, 0.2, 0.3, 0.4, 0.5}
	for i, v := range up {
		if err := f.Observe(FreqVector{v, 0.5 - v/2, 1}); err != nil {
			t.Fatalf("observe %d: %v", i, err)
		}
	}
	prev := -1.0
	for steps := 1; steps <= 4; steps++ {
		fc := f.Forecast(steps)
		maxV := 0.0
		for _, v := range fc {
			if v < 0 || v > 1 {
				t.Fatalf("steps=%d: share out of [0,1] in %v", steps, fc)
			}
			if v > maxV {
				maxV = v
			}
		}
		if math.Abs(maxV-1) > 1e-9 {
			t.Fatalf("steps=%d: forecast not max-normalized (max %v)", steps, maxV)
		}
		if fc[0] <= prev {
			t.Fatalf("steps=%d: rising slot share %v not above horizon %d's %v",
				steps, fc[0], steps-1, prev)
		}
		prev = fc[0]
	}
	// Horizon 0 is the smoothed level itself: no trend contribution.
	base := f.Forecast(0)
	lvl := append(FreqVector{}, f.level...)
	want := lvl.Normalize()
	for i := range base {
		if math.Abs(base[i]-want[i]) > 1e-12 {
			t.Fatalf("Forecast(0) = %v, want normalized level %v", base, want)
		}
	}
}

func TestForecasterClampsNegative(t *testing.T) {
	f, _ := NewForecaster(2, 0.9, true)
	for _, v := range []float64{1.0, 0.6, 0.2, 0.05} {
		f.Observe(FreqVector{v, 1})
	}
	fc := f.Forecast(10) // strong downward trend would go negative
	if fc[0] < 0 {
		t.Fatalf("negative forecast %v", fc)
	}
}

func TestForecasterValidation(t *testing.T) {
	if _, err := NewForecaster(2, 1.5, false); err == nil {
		t.Fatalf("alpha > 1 accepted")
	}
	f, _ := NewForecaster(2, 0.5, false)
	if err := f.Observe(FreqVector{1}); err == nil {
		t.Fatalf("size mismatch accepted")
	}
	if f.n != 0 {
		t.Fatalf("failed observation counted")
	}
}
