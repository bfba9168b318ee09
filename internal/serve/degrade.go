package serve

import "sync/atomic"

// Tier is the service's degradation level.
type Tier int32

const (
	// TierNormal serves everything: batch traffic, background advising.
	TierNormal Tier = iota
	// TierPauseAdvising sheds the service's own optional work first:
	// every tenant's background advising loop pauses at its next episode
	// boundary. Client traffic is untouched.
	TierPauseAdvising
	// TierShedLowPriority additionally sheds priority-0 batch traffic at
	// admission (429 + Retry-After). Health and stats are never shed at
	// any tier.
	TierShedLowPriority
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case TierPauseAdvising:
		return "pause-advising"
	case TierShedLowPriority:
		return "shed-low-priority"
	default:
		return "normal"
	}
}

// overload is the hysteresis tier controller. Observe is driven by the
// server's tick loop (one call per tickEvery) with the global queue
// occupancy; tests drive it directly. The current tier is read lock-free
// from every request path.
type overload struct {
	tier atomic.Int32
	// up/down are consecutive-tick streak counters (only touched by the
	// single Observe caller).
	up, down int
	// escalations and recoveries count tier-up and back-to-normal
	// transitions for /statz.
	escalations atomic.Int64
	recoveries  atomic.Int64
}

// Tier returns the current degradation tier.
func (o *overload) Tier() Tier { return Tier(o.tier.Load()) }

// Observe feeds one occupancy sample ([0,1]) and returns the (possibly
// changed) tier. Escalation requires tierUpTicks consecutive samples at or
// above the target tier's threshold and jumps straight to the demanded
// tier; recovery requires tierDownTicks consecutive samples below the
// current tier's threshold and steps down one tier at a time.
func (o *overload) Observe(occupancy float64) Tier {
	target := TierNormal
	switch {
	case occupancy >= tier2Occupancy:
		target = TierShedLowPriority
	case occupancy >= tier1Occupancy:
		target = TierPauseAdvising
	}
	cur := o.Tier()
	switch {
	case target > cur:
		o.up++
		o.down = 0
		if o.up >= tierUpTicks {
			o.tier.Store(int32(target))
			o.escalations.Add(1)
			o.up, o.down = 0, 0
		}
	case target < cur:
		o.down++
		o.up = 0
		if o.down >= tierDownTicks {
			next := cur - 1
			o.tier.Store(int32(next))
			if next == TierNormal {
				o.recoveries.Add(1)
			}
			o.up, o.down = 0, 0
		}
	default:
		o.up, o.down = 0, 0
	}
	return o.Tier()
}
