package workload

import "fmt"

// Monitor turns an observed query stream into the frequency vectors the
// advisor consumes — the "observed workload" box of the paper's Figure 1.
// Production systems record which queries were submitted in a time window;
// the monitor counts them per representative-query slot and emits the
// normalized mix.
type Monitor struct {
	wl     *Workload
	counts FreqVector
}

// NewMonitor builds a monitor over the workload's current query set.
func NewMonitor(wl *Workload) *Monitor {
	return &Monitor{wl: wl, counts: make(FreqVector, wl.Size())}
}

// Record counts n occurrences of a known query.
func (m *Monitor) Record(queryName string, n float64) error {
	if n < 0 {
		return fmt.Errorf("workload: negative count %v for %s", n, queryName)
	}
	idx := m.wl.QueryIndex(queryName)
	if idx < 0 {
		return fmt.Errorf("workload: monitor saw unknown query %q (register it via AddQuery first)", queryName)
	}
	m.counts[idx] += n
	return nil
}

// Observed returns the total number of recorded query executions in the
// current window.
func (m *Monitor) Observed() float64 {
	total := 0.0
	for _, c := range m.counts {
		total += c
	}
	return total
}

// Mix returns the normalized frequency vector of the current window.
func (m *Monitor) Mix() FreqVector {
	return m.counts.Clone().Normalize()
}

// Rotate returns the current window's mix and starts a new window — the
// natural feed for a Forecaster.
func (m *Monitor) Rotate() FreqVector {
	mix := m.Mix()
	for i := range m.counts {
		m.counts[i] = 0
	}
	return mix
}
