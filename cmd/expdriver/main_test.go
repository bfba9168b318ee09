package main

import "testing"

// TestCheckFlags: every flag combination the driver would otherwise run
// with a flag silently ignored or defaulted is a usage error.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name    string
		exp     string
		soak    string
		eps     int
		set     []string
		wantErr bool
	}{
		{"experiments", "", "", 3, nil, false},
		{"one experiment", "fig3a", "", 3, []string{"exp"}, false},
		{"unknown experiment", "nope", "", 3, []string{"exp"}, true},
		{"fig3 is not an id", "fig3", "", 3, []string{"exp"}, true},
		{"soak", "", "faults", 3, []string{"soak"}, false},
		{"soak with seed, scale and episodes", "", "skew-faulty", 1, []string{"soak", "seed", "scale", "soak-episodes"}, false},
		{"unknown regime", "", "nope", 3, []string{"soak"}, true},
		{"empty regime", "", "", 3, []string{"soak"}, true},
		{"zero episodes", "", "guarded", 0, []string{"soak", "soak-episodes"}, true},
		{"soak with -exp", "fig3a", "faults", 3, []string{"soak", "exp"}, true},
		{"soak with -profile", "", "faults", 3, []string{"soak", "profile"}, true},
		{"episodes without soak", "", "", 5, []string{"soak-episodes"}, true},
	} {
		set := map[string]bool{}
		for _, name := range tc.set {
			set[name] = true
		}
		if err := checkFlags(tc.exp, 0, tc.soak, tc.eps, set); (err != nil) != tc.wantErr {
			t.Errorf("%s: checkFlags error = %v, want error %v", tc.name, err, tc.wantErr)
		}
	}
	for _, scale := range []float64{-1, 1e19} {
		if err := checkFlags("", scale, "", 3, map[string]bool{}); err == nil {
			t.Errorf("-scale %g accepted", scale)
		}
	}
}
