package chaos

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"
)

// soakRow is the explicit field list the soak pin hashes per episode. It
// is filled through the harness's accessors, so the constant survives a
// change of the report types. A skew row leaves the fault fields (schedule,
// online stats, suggestion and cost) zero, and a fault row the skew fields:
// the pin was recorded when each soak reported only its own.
type soakRow struct {
	episode                                   int
	seed                                      int64
	crashes, permanent, partitions            int
	queries, reparts, repairs                 int
	moved, deployed, repaired                 int64
	retries, failedQueries, breakerTrips      int
	vetoes, canaryAborts, budgetDenials, rbks int
	design                                    string
	cost                                      float64
	traceDigest                               uint64
	events, detections, mitigations           int
	heatDigest                                uint64
	layout                                    string
	finalImbalance                            float64
	violations                                []string
}

func (r soakRow) write(h hash.Hash) {
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	str := func(s string) {
		put(uint64(len(s)))
		h.Write([]byte(s))
	}
	for _, v := range []int{r.episode, int(r.seed), r.crashes, r.permanent, r.partitions,
		r.queries, r.reparts, r.repairs, int(r.moved), int(r.deployed), int(r.repaired),
		r.retries, r.failedQueries, r.breakerTrips, r.vetoes, r.canaryAborts, r.budgetDenials, r.rbks} {
		put(uint64(v))
	}
	str(r.design)
	put(math.Float64bits(r.cost))
	put(r.traceDigest)
	put(uint64(r.events))
	put(uint64(r.detections))
	put(uint64(r.mitigations))
	put(r.heatDigest)
	str(r.layout)
	put(math.Float64bits(r.finalImbalance))
	put(uint64(len(r.violations)))
	for _, v := range r.violations {
		str(v)
	}
}

// soakRows runs a soak at seed 1 and lists its episodes.
func soakRows(t *testing.T, regime Regime, episodes int) []soakRow {
	t.Helper()
	rep, err := Run(Config{Regime: regime, Seed: 1, Episodes: episodes})
	if err != nil {
		t.Fatal(err)
	}
	var rows []soakRow
	for _, e := range rep.Episodes {
		r := soakRow{
			episode: e.Episode, seed: e.Seed,
			queries: e.QueriesExecuted, reparts: e.Repartitions, repairs: e.Repairs,
			moved: e.BytesMoved, deployed: e.DeployedBytes, repaired: e.RepairedBytes,
			violations: e.Violations,
		}
		if regime.skew() {
			r.traceDigest, r.events, r.detections, r.mitigations = e.TraceDigest, e.Events, e.Detections, e.Mitigations
			r.heatDigest, r.layout, r.finalImbalance = e.HeatDigest, e.Design, e.FinalImbalance
		} else {
			r.crashes, r.permanent, r.partitions = e.Crashes, e.Permanent, e.Partitions
			r.retries, r.failedQueries, r.breakerTrips = e.Stats.Retries, e.Stats.FailedQueries, e.Stats.BreakerTrips
			r.vetoes, r.canaryAborts, r.budgetDenials, r.rbks = e.Stats.GuardVetoes, e.Stats.CanaryAborts, e.Stats.BudgetDenials, e.Stats.Rollbacks
			r.design, r.cost = e.Design, e.Cost
		}
		rows = append(rows, r)
	}
	return rows
}

// TestSoakDigestPinned is the licence for every "same results" claim about
// the soak harness: the fault soak unguarded and guarded (3 episodes, so the
// permanent-loss episode is in) and the skew soak clean and faulty (2
// episodes), all at seed 1, must reproduce per-episode schedule
// composition, engine and online totals, guard counts, designs, costs, skew
// digests and violations recorded before the fault and skew soaks were
// merged into one harness. amd64 only, like the other pins: the soaks train
// an advisor.
func TestSoakDigestPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests were recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	const want = "5bc536f3b97a50728257b0bcb5bbb17f8905c86e84523f5c5719b1588fb9e24f"
	h := sha256.New()
	for _, rows := range [][]soakRow{
		soakRows(t, Faults, 3),
		soakRows(t, Guarded, 3),
		soakRows(t, Skew, 2),
		soakRows(t, SkewFaulty, 2),
	} {
		for _, r := range rows {
			r.write(h)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("soak digest\n  got  %s\n  want %s", got, want)
	}
}
