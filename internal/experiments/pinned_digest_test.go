package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"
)

// TestRunAllDigestPinned pins the whole reproduction at the test profile:
// the SHA-256 over the rendered tables of RunAll(TestConfig()), in the order
// `expdriver -profile test` prints them. Data generation, sampling, every
// training run, every measurement and every note feed it, so "the
// experiments did not move" is this test passing, not a diff someone ran.
// It equals `expdriver -profile test | head -n -1 | sha256sum` (the last
// line is the wall-clock "done in"). The constant was recorded at PR 18,
// before the experiments moved onto the shared deployment/session assembly;
// it is never recomputed. A change that means to move a table says so and
// re-records it in the same commit.
//
// amd64 only, like core's TestTrainingDigestPinned; skipped with -short
// (it is the whole reproduction, about half a minute on two cores) and
// under -race (six minutes there, and a digest has nothing to race: the
// other tests of this package run every experiment under the detector).
func TestRunAllDigestPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest was recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	if testing.Short() || raceEnabled {
		t.Skip("runs every experiment")
	}
	const want = "f0bd7bf7c4e8f580f1df8b21ea380c1c121a735c492c1a559c71ca8322307839"
	results, err := RunAll(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, r := range results {
		h.Write([]byte(r.Render() + "\n"))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("rendered tables of RunAll(TestConfig()), %d results\n  got  %s\n  want %s", len(results), got, want)
	}
}
