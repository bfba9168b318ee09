package serve

import "testing"

// TestTierHysteresis walks the full ladder: escalation only after
// tierUpTicks sustained samples, direct jump to the demanded tier,
// one-step recovery after tierDownTicks, and streak resets on mixed
// signals.
func TestTierHysteresis(t *testing.T) {
	o := &overload{}

	// One hot tick short of the streak is not enough; a cool tick resets it.
	for i := 0; i < tierUpTicks-1; i++ {
		o.Observe(0.6)
	}
	o.Observe(0.1)
	if got := o.Tier(); got != TierNormal {
		t.Fatalf("after broken streak: tier %v, want normal", got)
	}

	// A sustained streak of tier-1 samples escalates.
	for i := 0; i < tierUpTicks; i++ {
		o.Observe(0.6)
	}
	if got := o.Tier(); got != TierPauseAdvising {
		t.Fatalf("after %d hot ticks: tier %v, want pause-advising", tierUpTicks, got)
	}
	if got := o.escalations.Load(); got != 1 {
		t.Fatalf("escalations = %d, want 1", got)
	}

	// Sustained tier-2 occupancy jumps straight to shedding.
	for i := 0; i < tierUpTicks; i++ {
		o.Observe(0.95)
	}
	if got := o.Tier(); got != TierShedLowPriority {
		t.Fatalf("after %d overload ticks: tier %v, want shed-low-priority", tierUpTicks, got)
	}

	// Recovery steps down one tier at a time, each after tierDownTicks.
	for i := 0; i < tierDownTicks; i++ {
		o.Observe(0.1)
	}
	if got := o.Tier(); got != TierPauseAdvising {
		t.Fatalf("after first cool window: tier %v, want pause-advising (one step)", got)
	}
	if got := o.recoveries.Load(); got != 0 {
		t.Fatalf("recoveries = %d before reaching normal, want 0", got)
	}
	for i := 0; i < tierDownTicks; i++ {
		o.Observe(0.1)
	}
	if got := o.Tier(); got != TierNormal {
		t.Fatalf("after second cool window: tier %v, want normal", got)
	}
	if got := o.recoveries.Load(); got != 1 {
		t.Fatalf("recoveries = %d, want 1", got)
	}
}

// TestTierHoldsUnderMatchingLoad: samples matching the current tier reset
// both streaks — no drift in either direction.
func TestTierHoldsUnderMatchingLoad(t *testing.T) {
	o := &overload{}
	for i := 0; i < tierUpTicks; i++ {
		o.Observe(0.6)
	}
	if o.Tier() != TierPauseAdvising {
		t.Fatal("setup: expected tier 1")
	}
	// Alternate cool and tier-1 samples: recovery needs tierDownTicks
	// consecutive.
	for i := 0; i < 20; i++ {
		if i%2 == 0 {
			o.Observe(0.1)
		} else {
			o.Observe(0.6)
		}
	}
	if got := o.Tier(); got != TierPauseAdvising {
		t.Fatalf("flapping load moved the tier to %v; hysteresis should hold it", got)
	}
}

func TestTierString(t *testing.T) {
	cases := map[Tier]string{
		TierNormal:          "normal",
		TierPauseAdvising:   "pause-advising",
		TierShedLowPriority: "shed-low-priority",
	}
	for tier, want := range cases {
		if got := tier.String(); got != want {
			t.Fatalf("Tier(%d).String() = %q, want %q", tier, got, want)
		}
	}
}
