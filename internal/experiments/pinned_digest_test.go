package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
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

// TestCommitteeDigestPinned pins the §5 committee Fig. 5 and 7b read: the
// SHA-256 over every expert's SaveModel bytes, in Refs order, followed by
// the float64 bits of the online cost's total simulated seconds after the
// experts trained (they train against the stateful OnlineCost, whose §4.2
// per-mix best cost sets the timeout limits, so the order of its calls is
// part of the result). Built by shared.committee() at TestConfig(), the way
// Fig. 5 builds it. amd64 only, like TestRunAllDigestPinned; under -race the
// training is the same, only slower, so it runs there too.
func TestCommitteeDigestPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digest was recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	const want = "699a4e025b5414b4bb0513bf2d43ada5545448b59c3b8cb4383db7fc0978be6f"
	sh := &shared{cfg: TestConfig()}
	committee, err := sh.committee()
	if err != nil {
		t.Fatal(err)
	}
	blobs, err := committee.SaveModels()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, b := range blobs {
		h.Write(b)
	}
	var total [8]byte
	binary.LittleEndian.PutUint64(total[:], math.Float64bits(sh.run.onlineCost.Stats.TotalSeconds()))
	h.Write(total[:])
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("committee of shared.committee() at TestConfig(), %d experts, online total %v sim s\n  got  %s\n  want %s",
			len(blobs), sh.run.onlineCost.Stats.TotalSeconds(), got, want)
	}
}
