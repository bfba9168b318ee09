package workload

import "fmt"

// Forecaster predicts the next workload mix from the observed history via
// exponential smoothing — the "systems that predict future workloads"
// integration the paper names as future work (§9). Feeding its forecast to
// the advisor enables pro-active repartitioning before a shift completes.
type Forecaster struct {
	// Alpha is the smoothing factor in (0, 1]: higher reacts faster.
	Alpha float64
	// Trend additionally extrapolates the per-slot drift (Holt's linear
	// trend) when true.
	Trend bool

	level FreqVector
	slope FreqVector
	n     int
}

// NewForecaster builds a forecaster for frequency vectors of the given
// size.
func NewForecaster(size int, alpha float64, trend bool) (*Forecaster, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, fmt.Errorf("workload: forecaster alpha %v out of (0,1]", alpha)
	}
	if size <= 0 {
		return nil, fmt.Errorf("workload: forecaster size %d", size)
	}
	return &Forecaster{
		Alpha: alpha,
		Trend: trend,
		level: make(FreqVector, size),
		slope: make(FreqVector, size),
	}, nil
}

// Observe feeds one observed workload mix (e.g. the normalized query
// frequencies of the last monitoring window).
func (f *Forecaster) Observe(mix FreqVector) error {
	if len(mix) != len(f.level) {
		return fmt.Errorf("workload: observed mix size %d, want %d", len(mix), len(f.level))
	}
	if f.n == 0 {
		copy(f.level, mix)
		f.n++
		return nil
	}
	for i, v := range mix {
		prevLevel := f.level[i]
		f.level[i] = f.Alpha*v + (1-f.Alpha)*(f.level[i]+f.slope[i])
		if f.Trend {
			f.slope[i] = f.Alpha*(f.level[i]-prevLevel) + (1-f.Alpha)*f.slope[i]
		}
	}
	f.n++
	return nil
}

// Forecast predicts the mix `steps` monitoring windows ahead (normalized,
// clamped to non-negative frequencies). Before any observation it returns a
// zero vector.
func (f *Forecaster) Forecast(steps int) FreqVector {
	out := make(FreqVector, len(f.level))
	for i := range out {
		v := f.level[i]
		if f.Trend {
			v += float64(steps) * f.slope[i]
		}
		if v < 0 {
			v = 0
		}
		out[i] = v
	}
	return out.Normalize()
}
