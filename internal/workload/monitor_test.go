package workload

import (
	"math"
	"testing"
)

func TestMonitorRecordsAndNormalizes(t *testing.T) {
	w := testWorkload(t)
	m := NewMonitor(w)
	if m.Observed() != 0 {
		t.Fatalf("fresh monitor observed %v", m.Observed())
	}
	if err := m.Record("q1", 10); err != nil {
		t.Fatal(err)
	}
	if err := m.Record("q2", 20); err != nil {
		t.Fatal(err)
	}
	if m.Observed() != 30 {
		t.Fatalf("Observed = %v", m.Observed())
	}
	mix := m.Mix()
	if math.Abs(mix[0]-0.5) > 1e-12 || mix[1] != 1 || mix[2] != 0 {
		t.Fatalf("Mix = %v", mix)
	}
	// The paper's Figure 2 example: q2 twice as frequent as q1 -> (0.5, 1).
}

func TestMonitorErrors(t *testing.T) {
	w := testWorkload(t)
	m := NewMonitor(w)
	if err := m.Record("nope", 1); err == nil {
		t.Fatalf("unknown query accepted")
	}
	if err := m.Record("q1", -1); err == nil {
		t.Fatalf("negative count accepted")
	}
}

func TestMonitorRotate(t *testing.T) {
	w := testWorkload(t)
	m := NewMonitor(w)
	m.Record("q1", 5)
	first := m.Rotate()
	if first[0] != 1 {
		t.Fatalf("first window = %v", first)
	}
	if m.Observed() != 0 {
		t.Fatalf("Rotate did not reset: %v", m.Observed())
	}
	m.Record("q2", 2)
	second := m.Rotate()
	if second[0] != 0 || second[1] != 1 {
		t.Fatalf("second window = %v", second)
	}
}

func TestMonitorFeedsForecaster(t *testing.T) {
	// Integration: monitor windows drive the forecaster.
	w := testWorkload(t)
	m := NewMonitor(w)
	f, _ := NewForecaster(w.Size(), 0.5, false)
	for i := 1; i <= 4; i++ {
		m.Record("q1", float64(5-i))
		m.Record("q2", float64(i))
		if err := f.Observe(m.Rotate()); err != nil {
			t.Fatal(err)
		}
	}
	fc := f.Forecast(1)
	if fc[1] <= fc[0] {
		t.Fatalf("forecast missed the shift toward q2: %v", fc)
	}
}
