package chaos

import (
	"flag"
	"testing"
)

// -chaos.episodes scales every regime of the soak; the nightly soak raises
// it (see .github/workflows/ci.yml). Keep it at 3 or more: the guard only
// has to engage by the permanent-loss episode, which is every third.
var soakEpisodes = flag.Int("chaos.episodes", 3, "soak episodes per regime (each runs twice for the replay check)")

// TestSoak runs every regime at seed 1 with every invariant checked, then
// asserts that the episodes exercised what the regime is about: a soak
// that never crashed, repaired, vetoed or mitigated would pass vacuously.
func TestSoak(t *testing.T) {
	for _, tc := range []struct {
		regime Regime
		check  func(t *testing.T, rep *Report)
	}{
		{Faults, checkFaults},
		{Guarded, func(t *testing.T, rep *Report) {
			checkFaults(t, rep)
			// The permanent-loss episode forces vetoes, the crash regimes
			// force regressed passes.
			vetoes, rollbacks := 0, 0
			for _, ep := range rep.Episodes {
				vetoes += ep.Stats.GuardVetoes
				rollbacks += ep.Stats.Rollbacks
			}
			if vetoes == 0 && rollbacks == 0 {
				t.Error("guarded soak never vetoed or rolled back — the guard was idle")
			}
		}},
		{Skew, checkSkew},
		{SkewFaulty, func(t *testing.T, rep *Report) {
			checkSkew(t, rep)
			for _, ep := range rep.Episodes {
				if ep.Repairs == 0 {
					t.Errorf("episode %d: crash scheduled but no repair ran", ep.Episode)
				}
			}
		}},
	} {
		t.Run(string(tc.regime), func(t *testing.T) {
			rep, err := Run(Config{Regime: tc.regime, Seed: 1, Episodes: *soakEpisodes, Logf: t.Logf})
			if err != nil {
				t.Fatalf("soak harness error: %v", err)
			}
			if got := len(rep.Episodes); got != *soakEpisodes {
				t.Fatalf("completed %d of %d episodes", got, *soakEpisodes)
			}
			for _, v := range rep.Violations() {
				t.Errorf("invariant violation: %s", v)
			}
			tc.check(t, rep)
		})
	}
}

// checkFaults: every episode composes crashes with partitions, and at
// least one episode executed a repair.
func checkFaults(t *testing.T, rep *Report) {
	repairs := 0
	for _, ep := range rep.Episodes {
		if ep.Crashes == 0 || ep.Partitions == 0 {
			t.Errorf("episode %d schedule has %d crashes, %d partitions — not a chaos episode",
				ep.Episode, ep.Crashes, ep.Partitions)
		}
		repairs += ep.Repairs
	}
	if repairs == 0 {
		t.Error("no episode executed a single repair — self-healing never engaged")
	}
}

// checkSkew: every episode adopted a mitigation and ended within the heat
// bound.
func checkSkew(t *testing.T, rep *Report) {
	for _, ep := range rep.Episodes {
		if ep.Mitigations == 0 {
			t.Errorf("episode %d adopted no mitigation — the trace never melted a shard", ep.Episode)
		}
		if ep.FinalImbalance > heatBound {
			t.Errorf("episode %d post-mitigation imbalance %.2f", ep.Episode, ep.FinalImbalance)
		}
	}
}

// TestUnknownRegimeIsAnError: a misspelt or empty regime must fail, not
// fall back to some default soak.
func TestUnknownRegimeIsAnError(t *testing.T) {
	for _, name := range []string{"nope", "", "chaos", "Faults"} {
		if _, err := ParseRegime(name); err == nil {
			t.Errorf("ParseRegime(%q) accepted an unknown regime", name)
		}
		if rep, err := Run(Config{Regime: Regime(name), Episodes: 1}); err == nil {
			t.Errorf("Run with regime %q ran %d episodes instead of failing", name, len(rep.Episodes))
		}
	}
	for _, r := range []Regime{Faults, Guarded, Skew, SkewFaulty} {
		if got, err := ParseRegime(string(r)); err != nil || got != r {
			t.Errorf("ParseRegime(%q) = %q, %v", r, got, err)
		}
	}
}
