package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash/fnv"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"partadvisor/internal/benchmarks"
	"partadvisor/internal/costmodel"
	"partadvisor/internal/exec"
	"partadvisor/internal/faults"
	"partadvisor/internal/hardware"
	"partadvisor/internal/nn"
	"partadvisor/internal/partition"
	"partadvisor/internal/relation"
	"partadvisor/internal/workload"
)

// gob assigns wire type ids process-wide on first use, so saved-model bytes
// depend on what the process encoded before: a checkpoint test that runs
// first under -shuffle shifts them. Encoding one network before any test —
// what a process running TestTrainingDigestPinned alone does first — keeps
// the pinned digests independent of test order.
func init() {
	if _, err := nn.NewNetwork([]int{1, 1}, rand.New(rand.NewSource(1))).MarshalBinary(); err != nil {
		panic(err)
	}
}

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

// guardedOnlineDigest refines a small SSB advisor online on a sampled engine
// under one fixed fault schedule — a long node outage from t=0, then
// all-node stragglers, with transient failures throughout — and returns the
// online cost plus the hex SHA-256 over every OnlineStats field, the
// rollback log and the SuggestBest design. With guarded set, the guard runs
// with a 2-query canary, a byte-capped budget window and a per-table bytes
// ceiling.
func guardedOnlineDigest(t *testing.T, guarded bool) (*OnlineCost, string) {
	t.Helper()
	b := benchmarks.SSB()
	sp := b.Space()
	hw := hardware.PostgresXLDisk()
	data := b.Generate(0.1, 3)
	full := exec.New(b.Schema, data, hw, exec.Disk)
	rng := rand.New(rand.NewSource(4))
	sampled := make(map[string]*relation.Relation, len(data))
	for _, tb := range b.Schema.Tables {
		sampled[tb.Name] = data[tb.Name].Sample(0.2, 50, rng)
	}
	sample := exec.New(b.Schema, sampled, hw, exec.Disk)

	hp := Test()
	hp.Episodes = 20
	hp.OnlineEpisodes = 12
	a, err := New(sp, b.Workload, hp, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.TrainOffline(offlineCost(costmodel.New(full.TrueCatalog(), hw), b.Workload), nil); err != nil {
		t.Fatal(err)
	}
	pOff, _, err := a.Suggest(b.Workload.UniformFreq())
	if err != nil {
		t.Fatal(err)
	}
	scale, setup := ComputeScaleFactors(full, sample, b.Workload, pOff)
	unit := MeasureWorkload(sample, b.Workload)

	// Node 1 is down for the first 800 simulated seconds: every query on a
	// hash-partitioned table exhausts its retries (4 s each), so designs
	// re-measured over several episodes of the outage trip their breakers.
	// Afterwards a 50x straggler on every node covers one window in three,
	// so new designs regress past the canary and rollback thresholds.
	const outage = 800
	fc := faults.Config{
		Seed:                 6,
		TransientFailureRate: 0.03,
		Crashes:              []faults.NodeCrash{{Node: 1, Window: faults.Window{Start: 0, End: outage}}},
	}
	for w := 0; w < 400; w += 3 {
		for n := 0; n < hw.Nodes; n++ {
			fc.Stragglers = append(fc.Stragglers, faults.Straggler{Node: n, Factor: 50,
				Window: faults.Window{Start: outage + float64(w)*5*unit, End: outage + float64(w+1)*5*unit}})
		}
	}
	sample.SetFaults(faults.MustNew(fc))
	sample.ResetClock()

	oc := NewOnlineCost(sample, b.Workload, scale)
	oc.Stats.SetupSeconds = setup
	if guarded {
		var largest int64
		for _, ts := range sp.Tables {
			if _, bytes := sample.TableFootprint(ts.Name); bytes > largest {
				largest = bytes
			}
		}
		gcfg := DefaultGuardConfig()
		gcfg.CanaryQueries = 2
		gcfg.CanaryRegressionFactor = 1.5
		gcfg.WindowPasses = 10
		gcfg.WindowBytes = largest * 15 / 2
		gcfg.MaxTableBytes = 2 * largest
		oc.Guard = &gcfg
	}
	if err := a.TrainOnline(oc, nil); err != nil {
		t.Fatal(err)
	}
	st, _, err := a.SuggestBest(b.Workload.UniformFreq(), oc)
	if err != nil {
		t.Fatal(err)
	}

	h := sha256.New()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	v := reflect.ValueOf(oc.Stats)
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Int:
			put(uint64(f.Int()))
		case reflect.Float64:
			put(math.Float64bits(f.Float()))
		default:
			t.Fatalf("OnlineStats.%s: kind %s is not digested", v.Type().Field(i).Name, f.Kind())
		}
	}
	for _, r := range oc.Rollbacks() {
		put(math.Float64bits(r.At))
		put(math.Float64bits(r.Seconds))
		h.Write([]byte(r.FromSig + "\x00" + r.ToSig + "\x00"))
		if r.Consistent {
			h.Write([]byte{1})
		} else {
			h.Write([]byte{0})
		}
	}
	h.Write([]byte(st.Signature()))
	return oc, hex.EncodeToString(h.Sum(nil))
}

// TestGuardedOnlineDigestPinned is the licence for every "same bits" claim
// about the online phase: one fixed-seed SSB refinement under crash,
// straggler and transient faults, unguarded and guarded, must reproduce the
// online accounting, the rollback log and the suggested design recorded
// before the guard was folded into OnlineCost. Each protection the digest
// is meant to pin must actually fire, or the hash would pin nothing.
// amd64 only, like TestTrainingDigestPinned.
func TestGuardedOnlineDigestPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests were recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	for _, tc := range []struct {
		name    string
		guarded bool
		want    string
	}{
		{"unguarded", false, "0aa136b37f18bc07e1a10f89fb39688ed0c338e63caca4ef91fbe92362e013db"},
		{"guarded", true, "d57b6593e506b522fcca54ebea6cd37d36fbfb5492d498bb7c885cfe86db2670"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			oc, got := guardedOnlineDigest(t, tc.guarded)
			s := oc.Stats
			fired := map[string]int{"Retries": s.Retries, "FailedQueries": s.FailedQueries, "BreakerTrips": s.BreakerTrips}
			if tc.guarded {
				fired["GuardVetoes"], fired["CanaryAborts"] = s.GuardVetoes, s.CanaryAborts
				fired["BudgetDenials"], fired["Rollbacks"] = s.BudgetDenials, s.Rollbacks
			}
			for name, n := range fired {
				if n == 0 {
					t.Errorf("%s = 0: the schedule no longer exercises it (stats %+v)", name, s)
				}
			}
			if got != tc.want {
				t.Fatalf("online digest\n  got  %s\n  want %s\n  stats %+v", got, tc.want, s)
			}
		})
	}
}
