package core

import (
	"fmt"

	"partadvisor/internal/cluster"
	"partadvisor/internal/partition"
)

// GuardConfig arms the safety envelope of DESIGN.md §8 around every
// measurement of an OnlineCost, so a learning agent can explore designs on a
// live cluster without leaving it broken or bleeding budget:
//
//  1. Design validation: a design that leaves a workload table unplaced,
//     hash-partitions a table while a node is permanently lost, exceeds
//     MaxTableBytes, or would deploy while no node is live is vetoed before
//     any deploy and charged the finite penalty.
//  2. Canary measurement: a design without a clean full pass first runs only
//     its CanaryQueries highest-weight misses; a canary already past
//     CanaryRegressionFactor × the best-known cost aborts the pass.
//  3. Automatic rollback: a pass that fails or regresses past RollbackFactor
//     × best redeploys the best-known design of the mix, charged through the
//     engine's normal Deploy accounting.
//  4. Exploration budget: bytes moved and degraded seconds are summed over
//     the last WindowPasses measurement passes; once a cap is spent, passes
//     that would measure are denied until older passes age out.
//
// Validation is always on; a zero field switches its protection off.
type GuardConfig struct {
	// MaxTableBytes vetoes designs whose single-table deployed footprint
	// (bytes × nodes when replicated, bytes when partitioned) exceeds it.
	MaxTableBytes int64
	// CanaryQueries is K, the misses measured before committing to a full
	// pass on a never-measured design.
	CanaryQueries int
	// CanaryRegressionFactor must exceed 1 when the canary is enabled.
	CanaryRegressionFactor float64
	// RollbackFactor must exceed 1 when set.
	RollbackFactor float64
	// WindowPasses is the budget window's length in measurement passes.
	WindowPasses int
	// WindowBytes caps bytes moved by deploys within the window.
	WindowBytes int64
	// WindowDegradedSec caps degraded-execution seconds within the window.
	WindowDegradedSec float64
}

// DefaultGuardConfig returns the recommended envelope: a 2-query canary at
// 3× regression, rollback at 2× regression, and a 32-pass budget window
// with no byte or degraded caps (set them per workload).
func DefaultGuardConfig() GuardConfig {
	return GuardConfig{
		CanaryQueries:          2,
		CanaryRegressionFactor: 3,
		RollbackFactor:         2,
		WindowPasses:           32,
	}
}

// validate rejects nonsensical combinations with errors wrapping
// ErrBadConfig.
func (c *GuardConfig) validate() error {
	switch {
	case c.MaxTableBytes < 0:
		return fmt.Errorf("%w: MaxTableBytes %d is negative", ErrBadConfig, c.MaxTableBytes)
	case c.CanaryQueries < 0:
		return fmt.Errorf("%w: CanaryQueries %d is negative", ErrBadConfig, c.CanaryQueries)
	case c.CanaryQueries > 0 && c.CanaryRegressionFactor <= 1:
		return fmt.Errorf("%w: CanaryRegressionFactor %g must exceed 1 when the canary is enabled",
			ErrBadConfig, c.CanaryRegressionFactor)
	case c.RollbackFactor != 0 && c.RollbackFactor <= 1:
		return fmt.Errorf("%w: RollbackFactor %g must exceed 1 (or be 0 to disable)",
			ErrBadConfig, c.RollbackFactor)
	case c.WindowPasses < 0:
		return fmt.Errorf("%w: WindowPasses %d is negative", ErrBadConfig, c.WindowPasses)
	case c.WindowBytes < 0:
		return fmt.Errorf("%w: WindowBytes %d is negative", ErrBadConfig, c.WindowBytes)
	case c.WindowDegradedSec < 0:
		return fmt.Errorf("%w: WindowDegradedSec %g is negative", ErrBadConfig, c.WindowDegradedSec)
	case (c.WindowBytes > 0 || c.WindowDegradedSec > 0) && c.WindowPasses == 0:
		return fmt.Errorf("%w: window caps set but WindowPasses is 0 (the window never holds a pass)",
			ErrBadConfig)
	}
	return nil
}

// minLiveNodes is the validator's live-node floor: a deploy needs at least
// one node that is neither down nor partition-unreachable.
const minLiveNodes = 1

// RollbackRecord documents one executed rollback.
type RollbackRecord struct {
	// At is the simulated time after the rollback deploy completed.
	At float64
	// FromSig is the signature of the regressed design rolled away from,
	// ToSig the best-known design redeployed.
	FromSig, ToSig string
	// Seconds is the simulated deploy time charged for the rollback.
	Seconds float64
	// Consistent reports the post-rollback self-check: every table's
	// deployed design equals the best-known design bit-for-bit. The chaos
	// harness asserts this is always true.
	Consistent bool
}

// bestEntry is the best-known (design, cost) of one frequency mix.
type bestEntry struct {
	st   *partition.State
	cost float64
}

// passRecord is one measurement pass's budget spend.
type passRecord struct {
	bytes       int64
	degradedSec float64
}

// vetoed reports whether the armed guard rejects the design under the
// cluster's current health.
func (oc *OnlineCost) vetoed(st *partition.State) bool {
	return oc.Guard != nil && oc.checkDesign(st) != nil
}

// checkDesign is the pre-deploy validator: a descriptive error when the
// design is infeasible under the cluster's current health, nil when it may
// be deployed. It reads only coherent engine snapshots.
func (oc *OnlineCost) checkDesign(st *partition.State) error {
	sp := st.Space()
	for _, q := range oc.WL.Queries {
		for _, tbl := range q.Tables() {
			if sp.TableIndex(tbl) < 0 {
				return fmt.Errorf("guard: workload table %q is not placed by the design space", tbl)
			}
		}
	}
	tv := oc.Engine.TopologyView()
	if tv.Live < minLiveNodes {
		return fmt.Errorf("guard: only %d of %d nodes live, need %d", tv.Live, tv.Nodes, minLiveNodes)
	}
	anyPermanent := false
	for _, p := range tv.Permanent {
		anyPermanent = anyPermanent || p
	}
	for _, ts := range sp.Tables {
		rows, bytes := oc.Engine.TableFootprint(ts.Name)
		_, hashed := st.KeyOf(ts.Name)
		if hashed && rows > 0 && anyPermanent {
			// Hash shards land on every node; a shard assigned to a
			// permanently lost node has no surviving copy, so every scan of
			// the table fails forever.
			return fmt.Errorf("guard: table %q hash-partitioned while a node is permanently lost", ts.Name)
		}
		if oc.Guard.MaxTableBytes > 0 {
			foot := bytes
			if !hashed {
				foot = bytes * int64(tv.Nodes)
			}
			if foot > oc.Guard.MaxTableBytes {
				return fmt.Errorf("guard: table %q deployed footprint %d bytes exceeds ceiling %d",
					ts.Name, foot, oc.Guard.MaxTableBytes)
			}
		}
	}
	return nil
}

// needsCanary reports whether a design must pass the canary stage: the
// canary is enabled and the design has no clean full pass yet.
func (oc *OnlineCost) needsCanary(sig string) bool {
	return oc.Guard.CanaryQueries > 0 && !oc.measured[sig]
}

// budgetExhausted reports whether the window's exploration budget is spent.
func (oc *OnlineCost) budgetExhausted() bool {
	g := oc.Guard
	if g.WindowPasses == 0 || (g.WindowBytes == 0 && g.WindowDegradedSec == 0) {
		return false
	}
	var bytes int64
	var degraded float64
	for _, p := range oc.window {
		bytes += p.bytes
		degraded += p.degradedSec
	}
	return (g.WindowBytes > 0 && bytes >= g.WindowBytes) ||
		(g.WindowDegradedSec > 0 && degraded >= g.WindowDegradedSec)
}

// recordPass feeds one measurement pass's spend into the budget window.
func (oc *OnlineCost) recordPass(bytes int64, degradedSec float64) {
	if oc.Guard.WindowPasses == 0 {
		return
	}
	oc.window = append(oc.window, passRecord{bytes: bytes, degradedSec: degradedSec})
	if len(oc.window) > oc.Guard.WindowPasses {
		oc.window = oc.window[len(oc.window)-oc.Guard.WindowPasses:]
	}
}

// observeBest records a clean measurement of a design for the current mix
// when it beats the best known. The state is cloned so later mutations by
// the caller cannot corrupt the rollback target.
func (oc *OnlineCost) observeBest(st *partition.State, cost float64) {
	if cur, ok := oc.best[oc.curFreqKey]; ok && cur.cost <= cost {
		return
	}
	oc.best[oc.curFreqKey] = bestEntry{st: st.Clone(), cost: cost}
}

// rollbackIfNeeded redeploys the best-known design of the current mix after
// a pass that failed or regressed past RollbackFactor × best — unless the
// measured design already is that layout — and self-checks that every table
// now matches it. The deploy seconds go into RepartitionSeconds; Deploy
// itself charges the moved bytes into the conservation identity.
func (oc *OnlineCost) rollbackIfNeeded(st *partition.State, dsig string, cost float64, failed bool) {
	e, ok := oc.best[oc.curFreqKey]
	if oc.Guard.RollbackFactor == 0 || !ok || st.SameLayout(e.st) ||
		!(failed || cost > oc.Guard.RollbackFactor*e.cost) {
		return
	}
	to := e.st
	secs := oc.Engine.Deploy(to, nil)
	consistent := true
	for _, ts := range to.Space().Tables {
		want := cluster.Design{Replicated: true}
		if key, ok := to.KeyOf(ts.Name); ok {
			td := to.Design(ts.Name)
			want = cluster.Design{Key: key, Salt: td.Salt, HotSplit: td.HotSplit}
		}
		if !oc.Engine.CurrentDesign(ts.Name).Equal(want) {
			consistent = false
		}
	}
	oc.rollbacks = append(oc.rollbacks, RollbackRecord{
		At:         oc.Engine.SimNow(),
		FromSig:    dsig,
		ToSig:      to.Signature(),
		Seconds:    secs,
		Consistent: consistent,
	})
	oc.Stats.Rollbacks++
	oc.Stats.RollbackSeconds += secs
	oc.Stats.RepartitionSeconds += secs
}

// Rollbacks returns a copy of the executed-rollback log.
func (oc *OnlineCost) Rollbacks() []RollbackRecord {
	return append([]RollbackRecord(nil), oc.rollbacks...)
}
