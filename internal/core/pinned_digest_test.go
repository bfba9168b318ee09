package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"partadvisor/internal/benchmarks"
	"partadvisor/internal/partition"
	"partadvisor/internal/workload"
)

// syntheticPureCost is a fast, deterministic cost stand-in for the digest
// tests: a pure function of (partitioning signature, mix bits) in [1, 2).
// The digests only need determinism, not physical plausibility.
func syntheticPureCost(st *partition.State, freq workload.FreqVector) float64 {
	h := fnv.New64a()
	h.Write([]byte(st.Signature()))
	var b [8]byte
	for _, f := range freq {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
	return 1 + float64(h.Sum64()%100000)/100000
}

// trainingDigest trains a (with TraceRewards on) against syntheticPureCost
// and returns the hex SHA-256 over the saved model bytes concatenated with
// the bit-encoded per-episode reward trajectory. Any divergence in action
// selection, cost evaluation, replay contents or gradient math changes it.
func trainingDigest(t *testing.T, a *Advisor) string {
	t.Helper()
	a.TraceRewards = true
	if err := a.TrainOffline(syntheticPureCost, nil); err != nil {
		t.Fatal(err)
	}
	model, err := a.SaveModel()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(model)
	var buf [8]byte
	for _, r := range a.RewardTrace {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(r))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTrainingDigestPinned is the licence for every "bit-identical" claim
// about the training step: a fixed-seed advisor on the TPC-CH space with
// the paper's 128-64 net must reproduce, bit for bit, the saved model and
// the per-episode reward trajectory that the code produced at PR 17 —
// before the nn kernels were blocked, the last layer went one-hot and the
// dead input gradient was dropped (PR 18). A kernel that reorders a sum, a
// replay draw that moves, an ε schedule that shifts: each changes a digest.
// The constants are recorded, never recomputed; a change that means to move
// them says so and re-records them in the same commit.
//
// amd64 only: arm64 (and others) fuse a*b+c into one rounding, so their
// digests legitimately differ.
func TestTrainingDigestPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests were recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	for _, tc := range []struct {
		name     string
		head     QHead
		double   bool
		episodes int
		want     string
	}{
		// MultiHeadQ → Network.TrainActions (the sparse last layer).
		{"multihead", MultiHead, false, 12, "99c5bd57be7fb67f15252e02ff0b779edfd218cd35082f3f93d51299f2bab892"},
		{"multihead-double", MultiHead, true, 6, "9ab93e305a8532c790e24119cf4314db3825fc25cd5c2437c6151e84fc74e7db"},
		// ScalarQ → Network.TrainBatch with a nil mask (the dense path) on
		// ~1000-row target batches, which also cross the pool threshold.
		{"scalar", ScalarHead, false, 4, "762d640d7679aebfec69095132476716d193d56818aef1a5c43aeaf07a8303f9"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := benchmarks.TPCCH()
			hp := Repro(true)
			hp.Episodes = tc.episodes
			hp.Head = tc.head
			hp.DQN.Double = tc.double
			a, err := New(b.Space(), b.Workload, hp, 1)
			if err != nil {
				t.Fatal(err)
			}
			got := trainingDigest(t, a)
			if a.TrainUpdates == 0 {
				t.Fatal("no gradient update ran; the digest would pin nothing")
			}
			if got != tc.want {
				t.Fatalf("model+trace digest after %d episodes (%d updates)\n  got  %s\n  want %s",
					tc.episodes, a.TrainUpdates, got, tc.want)
			}
		})
	}
}

// TestTrainOfflineDigestSeedSensitivity guards the digest itself: a
// different seed must yield a different digest, otherwise the pinned test
// above could pass on a hash that does not depend on training.
func TestTrainOfflineDigestSeedSensitivity(t *testing.T) {
	b, sp, _ := microFixture(t)
	digestFor := func(seed int64) string {
		hp := Test()
		hp.Episodes = 10
		a, err := New(sp, b.Workload, hp, seed)
		if err != nil {
			t.Fatal(err)
		}
		return trainingDigest(t, a)
	}
	if digestFor(1) == digestFor(2) {
		t.Fatal("digests for different seeds collide — the digest is not sensitive to training")
	}
}
