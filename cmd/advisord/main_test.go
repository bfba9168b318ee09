package main

import (
	"math"
	"testing"
)

// TestCheckFlags: every interval flag outside (0, one hour] is a usage
// error, including values whose time.Duration would wrap.
func TestCheckFlags(t *testing.T) {
	const dir = "state"
	for _, tc := range []struct {
		name     string
		stateDir string
		scale    float64
		adviseMS int64
		ckptMS   int64
		drainSec float64
		wantErr  bool
	}{
		{"defaults", dir, 0.1, 500, 5000, 30, false},
		{"every interval at one hour", dir, 0.1, 3_600_000, 3_600_000, 3600, false},
		{"smallest intervals", dir, 0.1, 1, 1, 0.001, false},
		{"no state dir", "", 0.1, 500, 5000, 30, true},
		{"scale 0", dir, 0, 500, 5000, 30, true},
		{"advise-ms 0", dir, 0.1, 0, 5000, 30, true},
		{"advise-ms past an hour", dir, 0.1, 3_600_001, 5000, 30, true},
		{"checkpoint-every-ms 0", dir, 0.1, 500, 0, 30, true},
		{"checkpoint-every-ms negative", dir, 0.1, 500, -1, 30, true},
		{"checkpoint-every-ms past an hour", dir, 0.1, 500, 3_600_001, 30, true},
		{"checkpoint-every-ms that wraps small", dir, 0.1, 500, 18446744073710, 30, true},
		{"drain-sec 0", dir, 0.1, 500, 5000, 0, true},
		{"drain-sec past an hour", dir, 0.1, 500, 5000, 3600.5, true},
		{"drain-sec that wraps negative", dir, 0.1, 500, 5000, 1e11, true},
		{"drain-sec NaN", dir, 0.1, 500, 5000, math.NaN(), true},
	} {
		err := checkFlags(tc.stateDir, tc.scale, tc.adviseMS, tc.ckptMS, tc.drainSec)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: checkFlags error = %v, want error %v", tc.name, err, tc.wantErr)
		}
	}
}
