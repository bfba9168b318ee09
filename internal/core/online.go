package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"partadvisor/internal/exec"
	"partadvisor/internal/guard"
	"partadvisor/internal/partition"
	"partadvisor/internal/sqlparse"
	"partadvisor/internal/workload"
)

// ErrBadConfig is wrapped by OnlineCost configuration-validation failures.
var ErrBadConfig = errors.New("core: invalid online-cost configuration")

// OnlineStats accounts the simulated time of the online phase, including
// what the naive approach *would* have spent — the method the paper itself
// uses to compute Table 2 ("by keeping track of the queries that would be
// executed twice without Runtime Caching, as well as how often a table
// would be repartitioned without Lazy Repartitioning and how much time could
// be saved with a particular Timeout").
type OnlineStats struct {
	// QueriesExecuted counts real executions; CacheHits counts avoided ones.
	QueriesExecuted int
	CacheHits       int
	// Aborts counts timeout-aborted executions.
	Aborts int
	// Retries counts re-executions after an injected failure; FailedQueries
	// counts measurements abandoned after the retry budget was exhausted.
	Retries       int
	FailedQueries int

	// ExecSeconds is the simulated time actually spent executing queries;
	// NaiveExecSeconds is what executing every query at every visited state
	// would have cost (no runtime cache).
	ExecSeconds      float64
	NaiveExecSeconds float64
	// RepartitionSeconds is the simulated time actually spent
	// repartitioning (lazy); NaiveRepartitionSeconds deploys every changed
	// table at every state change.
	RepartitionSeconds      float64
	NaiveRepartitionSeconds float64
	// TimeoutSavedSeconds is the execution time cut (or, with timeouts
	// disabled, that would have been cut) by the §4.2 timeout rule.
	TimeoutSavedSeconds float64
	// DegradedSeconds is the portion of ExecSeconds that overlapped an
	// injected fault window; runtimes measured then are noisy and are kept
	// out of the runtime cache.
	DegradedSeconds float64
	// BreakerTrips counts designs whose circuit breaker tripped;
	// CircuitBroken counts measurement passes short-circuited by a tripped
	// breaker (charged the penalty without touching the engine).
	BreakerTrips  int
	CircuitBroken int
	// SetupSeconds is the one-off cost of the §4.2 scale-factor computation
	// (deploys plus calibration runs on both engines), previously discarded;
	// callers book it here so Table-2-style accounting charges the bootstrap
	// honestly.
	SetupSeconds float64

	// Guarded-advising accounting (DESIGN.md §8). GuardVetoes counts designs
	// the validator rejected before any deploy; CanaryAborts counts full
	// passes skipped after a regressing canary; BudgetDenials counts
	// measurement passes denied by the exploration budget governor. Each is
	// charged the finite penalty without touching the engine (veto, denial)
	// or beyond the canary prefix (abort).
	GuardVetoes   int
	CanaryAborts  int
	BudgetDenials int
	// Rollbacks counts redeploys of the best-known design after a regressed
	// or failed measurement; RollbackSeconds is their deploy time, included
	// in RepartitionSeconds (and the moved bytes in the engine's BytesMoved
	// conservation identity, charged by Deploy as usual).
	Rollbacks       int
	RollbackSeconds float64
	// RegressedSeconds is the simulated time (execution + repartitioning,
	// retries and backoffs included) spent inside measurement passes whose
	// final cost exceeded twice the then-best-known cost of the mix — the
	// "time spent in regressed layouts" the guard exists to cut. Tracked
	// with or without a guard so guarded and unguarded runs compare.
	RegressedSeconds float64
}

// TotalSeconds returns the actual online-phase simulated time.
func (s OnlineStats) TotalSeconds() float64 {
	return s.ExecSeconds + s.RepartitionSeconds
}

// NaiveSeconds returns the no-optimization online-phase simulated time.
func (s OnlineStats) NaiveSeconds() float64 {
	return s.NaiveExecSeconds + s.NaiveRepartitionSeconds
}

// OnlineCost measures workload costs on a (sampled) database engine with
// the paper's §4.2 optimizations. It implements env.CostFunc via
// WorkloadCost.
type OnlineCost struct {
	Engine *exec.Engine
	WL     *workload.Workload
	// Scale holds the per-query factors S_i = c_full/c_sample (§4.2);
	// nil means all 1.
	Scale []float64

	// UseTimeouts arms the §4.2 per-query timeout rule (on by default; the
	// Table-2 and guard experiments switch it off). The runtime cache and
	// lazy repartitioning are always on — Table 2 prices them from the
	// Naive* counterfactual counters, as the paper does.
	UseTimeouts bool

	// Fault-tolerance knobs. An execution that fails (injected crash or
	// transient error) is retried up to MaxRetries times with capped
	// exponential backoff — the backoff advances the engine's simulated
	// clock, so a crashed node can recover while we wait. When the budget
	// is exhausted the measurement is charged FailurePenaltySec (or twice
	// the best-known workload cost when one exists) and never cached.
	MaxRetries         int
	RetryBackoffSec    float64
	RetryBackoffCapSec float64
	FailurePenaltySec  float64
	// CircuitBreakAfter trips a per-design circuit breaker after this many
	// consecutive measurement passes in which the design lost at least one
	// query (retry budget exhausted). A tripped design is charged the
	// failure penalty immediately — no deploy, no execution — so the agent
	// stops burning simulated time on layouts that keep failing even across
	// partition heals and node rejoins. 0 disables the breaker.
	CircuitBreakAfter int

	// Ctx, when non-nil, bounds every measurement: batch execution stops at
	// cancellation through the frozen-cursor abort (the charged prefix keeps
	// exact accounting), the retry/backoff loop gives up before its next
	// attempt, and a cancelled pass is charged the finite breaker penalty
	// without caching anything. Long-running callers (the advisord tenant
	// loop) set it so a shutdown or deadline cuts a measurement mid-batch
	// instead of waiting out the pass.
	Ctx context.Context

	// Guard, when non-nil, arms the safety envelope of DESIGN.md §8 around
	// every measurement: design validation before deploy, canary
	// measurement of never-measured designs, automatic rollback after
	// regressed passes, and the sliding-window exploration budget. The
	// guard shares this OnlineCost's serialization (it has no locking of
	// its own), so wrap concurrent use in env.SynchronizedCost exactly as
	// for an unguarded OnlineCost.
	Guard *guard.Guard

	Stats OnlineStats

	cache       []map[string]float64
	naivePrev   *partition.State
	curFreqKey  string
	bestForFreq float64
	visited     map[string]*partition.State
	// failedQ remembers (query, table-design) pairs whose measurement
	// exhausted the retry budget: CachedCost refuses to rank designs that
	// were observed to lose a query under the current fault regime.
	failedQ map[string]bool
	// failStreak counts consecutive failing measurement passes per design
	// signature; tripped marks designs whose breaker has fired.
	failStreak map[string]int
	tripped    map[string]bool
}

// NewOnlineCost builds the measured cost function with all optimizations
// enabled.
func NewOnlineCost(engine *exec.Engine, wl *workload.Workload, scale []float64) *OnlineCost {
	oc := &OnlineCost{
		Engine:             engine,
		WL:                 wl,
		Scale:              scale,
		UseTimeouts:        true,
		MaxRetries:         4,
		RetryBackoffSec:    0.05,
		RetryBackoffCapSec: 1.0,
		FailurePenaltySec:  10,
		CircuitBreakAfter:  3,
		bestForFreq:        math.Inf(1),
	}
	oc.cache = make([]map[string]float64, len(wl.Queries)+wl.Reserved)
	oc.visited = make(map[string]*partition.State)
	oc.failedQ = make(map[string]bool)
	oc.failStreak = make(map[string]int)
	oc.tripped = make(map[string]bool)
	return oc
}

// Validate rejects nonsensical fault-tolerance knobs with errors wrapping
// ErrBadConfig. TrainOnline calls it before the first measurement;
// hand-rolled training loops should call it after mutating the knobs.
func (oc *OnlineCost) Validate() error {
	if oc.MaxRetries < 0 {
		return fmt.Errorf("%w: MaxRetries %d is negative", ErrBadConfig, oc.MaxRetries)
	}
	if oc.RetryBackoffSec < 0 {
		return fmt.Errorf("%w: RetryBackoffSec %g is negative", ErrBadConfig, oc.RetryBackoffSec)
	}
	if oc.RetryBackoffCapSec < oc.RetryBackoffSec {
		return fmt.Errorf("%w: RetryBackoffCapSec %g below RetryBackoffSec %g",
			ErrBadConfig, oc.RetryBackoffCapSec, oc.RetryBackoffSec)
	}
	if oc.FailurePenaltySec < 0 {
		return fmt.Errorf("%w: FailurePenaltySec %g is negative", ErrBadConfig, oc.FailurePenaltySec)
	}
	if oc.CircuitBreakAfter < 0 {
		return fmt.Errorf("%w: CircuitBreakAfter %d is negative", ErrBadConfig, oc.CircuitBreakAfter)
	}
	return nil
}

// Visited returns the distinct physical layouts measured so far (keyed by
// layout signature). Together with the runtime cache this lets inference
// rank every explored design at (almost) no additional execution cost.
func (oc *OnlineCost) Visited() map[string]*partition.State { return oc.visited }

func (oc *OnlineCost) scaleOf(i int) float64 {
	if oc.Scale == nil || i >= len(oc.Scale) || oc.Scale[i] <= 0 {
		return 1
	}
	return oc.Scale[i]
}

// CacheSize returns the number of cached (query, table-design) runtimes.
func (oc *OnlineCost) CacheSize() int {
	n := 0
	for _, m := range oc.cache {
		n += len(m)
	}
	return n
}

// regressedFactor classifies a measurement pass as "time spent in a
// regressed layout" when its final cost exceeds this multiple of the
// then-best-known cost of the mix (OnlineStats.RegressedSeconds).
const regressedFactor = 2.0

// WorkloadCost measures Σ_j f_j·S_j·c_sample(P, q_j) under the given
// partitioning, executing only uncached queries and repartitioning only the
// tables those queries touch. With a Guard armed, the measurement runs
// inside the safety envelope: infeasible designs are vetoed before any
// deploy, budget-exhausted passes are denied, never-measured designs run a
// canary prefix first, and regressed or failed passes roll the cluster back
// to the best-known design — each charged the same finite penalty the
// circuit breaker uses, which never becomes the cost to beat.
func (oc *OnlineCost) WorkloadCost(st *partition.State, freq workload.FreqVector) float64 {
	if key := freqKey(freq); key != oc.curFreqKey {
		oc.curFreqKey = key
		oc.bestForFreq = math.Inf(1)
	}
	dsig := st.Signature()
	if oc.CircuitBreakAfter > 0 && oc.tripped[dsig] {
		// The breaker is open: this design kept losing queries across
		// heals, so charge the penalty without deploying or executing.
		oc.Stats.CircuitBroken++
		return oc.breakerPenalty(freq)
	}
	if oc.Guard != nil {
		if err := oc.Guard.CheckDesign(st); err != nil {
			// Infeasible or degenerate: never deployed, never registered as
			// visited (SuggestBest must not rank it), penalty charged.
			oc.Stats.GuardVetoes++
			return oc.breakerPenalty(freq)
		}
	}
	if oc.visited[dsig] == nil {
		oc.visited[dsig] = st
	}
	total := 0.0
	var misses []int
	for i, q := range oc.WL.Queries {
		if i >= len(freq) || freq[i] == 0 {
			continue
		}
		sig := st.TableSignature(q.Tables())
		if oc.cache[i] == nil {
			oc.cache[i] = make(map[string]float64)
		}
		if rt, ok := oc.cache[i][sig]; ok {
			total += freq[i] * q.Weight * oc.scaleOf(i) * rt
			oc.Stats.CacheHits++
			oc.Stats.NaiveExecSeconds += rt
			continue
		}
		misses = append(misses, i)
	}
	oc.accountNaiveRepartition(st)
	measuredClean := true
	if len(misses) > 0 {
		if oc.Guard != nil && oc.Guard.BudgetExhausted() {
			// The sliding-window exploration budget is spent: no deploy, no
			// execution — the agent is forced onto cached designs until
			// older passes age out of the window.
			oc.Stats.BudgetDenials++
			return oc.breakerPenalty(freq)
		}
		// Pre-pass snapshots for guard accounting: bytes moved and degraded
		// seconds feed the budget window, total spent seconds classify the
		// pass as regressed time.
		_, _, preBytes := oc.Engine.Counters()
		preDegraded := oc.Stats.DegradedSeconds
		preSpent := oc.Stats.ExecSeconds + oc.Stats.RepartitionSeconds

		// Lazy repartitioning: deploy only the tables the misses touch.
		set := make(map[string]bool)
		for _, i := range misses {
			for _, t := range oc.WL.Queries[i].Tables() {
				set[t] = true
			}
		}
		var tables []string
		for t := range set {
			tables = append(tables, t)
		}
		// Deploy sums per-table seconds in list order; sort so the
		// float-addition order (and thus RepartitionSeconds, to the last
		// ULP) doesn't inherit map-iteration randomness.
		sort.Strings(tables)
		oc.Stats.RepartitionSeconds += oc.Engine.Deploy(st, tables)
		// The §4.2 limits are computable before any execution: bestForFreq
		// only moves after the whole pass, so every miss shares the same
		// budget rule — which is what lets the misses run as one batch.
		weights := make([]float64, len(misses))
		limits := make([]float64, len(misses))
		for k, i := range misses {
			q := oc.WL.Queries[i]
			weights[k] = freq[i] * q.Weight * oc.scaleOf(i)
			if oc.UseTimeouts && !math.IsInf(oc.bestForFreq, 1) && weights[k] > 0 {
				limits[k] = oc.bestForFreq / weights[k]
			}
		}
		// order maps batch position → miss index. The canary stage front-
		// loads the highest-weight misses (stable sort: ties keep query
		// order) so the first K batch positions are the top-K canary.
		order := make([]int, len(misses))
		for k := range order {
			order[k] = k
		}
		canaryK := 0
		if oc.Guard != nil && oc.Guard.NeedsCanary(dsig) && !math.IsInf(oc.bestForFreq, 1) {
			if k := oc.Guard.Config().CanaryQueries; k < len(misses) {
				canaryK = k
				sort.SliceStable(order, func(a, b int) bool {
					return weights[order[a]] > weights[order[b]]
				})
			}
		}
		qs := make([]exec.BatchQuery, len(misses))
		for pos, k := range order {
			qs[pos] = exec.BatchQuery{Graph: oc.WL.Queries[misses[k]].Graph, Limit: limits[k]}
		}
		var abort *exec.BatchAbort
		var onResult func(pos int, r exec.RunReport, err error)
		if canaryK > 0 {
			// Abort from the in-order delivery callback: the decision is a
			// pure function of batch position, so the cut — and the charged
			// prefix — is identical at every worker count. Failed canary
			// queries contribute only their consumed (overhead) time, which
			// underestimates and so never aborts spuriously.
			abort = &exec.BatchAbort{}
			canaryCost := total
			threshold := oc.Guard.Config().CanaryRegressionFactor * oc.bestForFreq
			onResult = func(pos int, r exec.RunReport, err error) {
				if pos >= canaryK {
					return
				}
				canaryCost += weights[order[pos]] * r.Seconds
				if canaryCost > threshold {
					abort.Set()
				}
			}
		}
		rep := oc.Engine.Exec(oc.ctx(), exec.Request{Queries: qs, Abort: abort, OnResult: onResult})
		oc.Stats.QueriesExecuted += rep.Completed
		oc.Stats.ExecSeconds += rep.Seconds
		oc.Stats.NaiveExecSeconds += rep.Seconds
		oc.Stats.DegradedSeconds += rep.DegradedSeconds
		// Classification when the batch was cut: a canary-triggered abort
		// wins over a racing context cancellation — abort.Set is only ever
		// called by the canary callback, so a set flag means a genuine
		// regression was observed and must feed CanaryAborts and the
		// rollback check even if the caller happens to be shutting down.
		canaryAborted := abort != nil && abort.Aborted()
		if rep.Completed < len(qs) && !canaryAborted && oc.ctx().Err() != nil {
			// Cancelled mid-pass: the charged prefix is already booked above
			// with exact accounting; nothing is cached, the pass neither
			// counts as a canary abort nor triggers a rollback (the caller is
			// shutting down, not observing a regression), and the budget
			// window still records whatever the pass moved.
			if oc.Guard != nil {
				_, _, postBytes := oc.Engine.Counters()
				oc.Guard.RecordPass(postBytes-preBytes, oc.Stats.DegradedSeconds-preDegraded)
			}
			return oc.breakerPenalty(freq)
		}
		if rep.Completed < len(qs) {
			// Canary regression: the full pass is skipped, only the canary
			// prefix was charged, and the design stays canary-subject (it
			// never completed a clean full measurement). A pass this bad is
			// regressed time by definition.
			oc.Stats.CanaryAborts++
			oc.Stats.RegressedSeconds += oc.Stats.ExecSeconds + oc.Stats.RepartitionSeconds - preSpent
			_, _, postBytes := oc.Engine.Counters()
			oc.Guard.RecordPass(postBytes-preBytes, oc.Stats.DegradedSeconds-preDegraded)
			oc.rollbackIfNeeded(st, dsig, 0, true)
			return oc.breakerPenalty(freq)
		}
		passFailed := false
		for pos, k := range order {
			i := misses[k]
			q := oc.WL.Queries[i]
			weight := weights[k]
			sig := st.TableSignature(q.Tables())
			rt := rep.Reports[pos].Seconds
			aborted := rep.Reports[pos].Aborted
			degraded := rep.Reports[pos].DegradedSeconds > 0
			err := rep.Errs[pos]
			if err != nil {
				// The batch attempt failed (injected fault); fall back to the
				// sequential retry-with-backoff loop for this query alone.
				rt, aborted, degraded, err = oc.retry(q.Graph, limits[k], err)
			}
			if err != nil {
				// Retry budget exhausted: the design loses this query under
				// the current fault regime. Charge a penalty so the agent
				// steers away from it, remember the failure for CachedCost,
				// and never cache the (meaningless) partial runtime. A
				// failure observed only because the context was cancelled is
				// a shutdown artifact, not a verdict: it is penalized this
				// pass but not remembered against the design.
				passFailed = true
				if oc.ctx().Err() == nil {
					oc.Stats.FailedQueries++
					oc.failedQ[failKey(i, sig)] = true
				}
				if !math.IsInf(oc.bestForFreq, 1) && weight > 0 {
					rt = 2 * oc.bestForFreq / weight
				} else {
					rt = oc.FailurePenaltySec
				}
				total += weight * rt
				continue
			}
			if aborted {
				oc.Stats.Aborts++
			} else if !math.IsInf(oc.bestForFreq, 1) && weight > 0 {
				// Counterfactual (or realized-zero) timeout saving.
				if l := oc.bestForFreq / weight; rt > l {
					oc.Stats.TimeoutSavedSeconds += rt - l
				}
			}
			// A runtime measured while faults were active is noise (straggler
			// or degraded-network inflated); caching it would poison every
			// later cost of this design, so only clean measurements persist.
			if !degraded {
				oc.cache[i][sig] = rt
			}
			total += weight * rt
		}
		// Advance (or reset) the breaker streak: only passes that actually
		// measured something count — cache-hit-only passes say nothing new
		// about the design's health.
		if oc.CircuitBreakAfter > 0 {
			if passFailed {
				oc.failStreak[dsig]++
				if oc.failStreak[dsig] >= oc.CircuitBreakAfter {
					oc.tripped[dsig] = true
					oc.Stats.BreakerTrips++
				}
			} else {
				delete(oc.failStreak, dsig)
			}
		}
		measuredClean = !passFailed
		if !math.IsInf(oc.bestForFreq, 1) && total > regressedFactor*oc.bestForFreq {
			oc.Stats.RegressedSeconds += oc.Stats.ExecSeconds + oc.Stats.RepartitionSeconds - preSpent
		}
		if oc.Guard != nil {
			// Budget accounting precedes any rollback: the rollback is a
			// forced safety action, not exploration, so its bytes do not
			// count against the exploration window.
			_, _, postBytes := oc.Engine.Counters()
			oc.Guard.RecordPass(postBytes-preBytes, oc.Stats.DegradedSeconds-preDegraded)
			if measuredClean {
				oc.Guard.MarkMeasured(dsig)
			}
			oc.rollbackIfNeeded(st, dsig, total, passFailed)
		}
	}
	if oc.Guard != nil && measuredClean {
		// Record after the rollback decision — the measurement must compete
		// against the previous best, not against itself.
		oc.Guard.ObserveMeasured(oc.curFreqKey, st, total)
	}
	if total < oc.bestForFreq {
		oc.bestForFreq = total
	}
	return total
}

// ctx returns the measurement-bounding context (Background when unset).
func (oc *OnlineCost) ctx() context.Context {
	if oc.Ctx != nil {
		return oc.Ctx
	}
	return context.Background()
}

// rollbackIfNeeded consults the guard about the just-measured design and,
// when it regressed past RollbackFactor × best (or failed), redeploys the
// best-known design, charging the deploy seconds into RepartitionSeconds
// (Deploy itself charges the moved bytes into the conservation identity).
func (oc *OnlineCost) rollbackIfNeeded(st *partition.State, dsig string, cost float64, failed bool) {
	to, ok := oc.Guard.ShouldRollback(oc.curFreqKey, st, cost, failed)
	if !ok {
		return
	}
	secs := oc.Guard.Rollback(to, dsig)
	oc.Stats.Rollbacks++
	oc.Stats.RollbackSeconds += secs
	oc.Stats.RepartitionSeconds += secs
}

// breakerPenalty prices a circuit-broken design without touching the
// engine: twice the best-known cost of the current mix when one exists,
// else the flat failure penalty per active query. bestForFreq is left
// untouched — a penalty must never become the cost to beat.
func (oc *OnlineCost) breakerPenalty(freq workload.FreqVector) float64 {
	if !math.IsInf(oc.bestForFreq, 1) {
		return 2 * oc.bestForFreq
	}
	active := 0
	for i := range oc.WL.Queries {
		if i < len(freq) && freq[i] != 0 {
			active++
		}
	}
	return oc.FailurePenaltySec * float64(active)
}

// retry re-measures one query whose batch execution failed with batchErr,
// using capped exponential backoff. The failed batch attempt counts as the
// first try, so the total attempt budget (1 + MaxRetries executions)
// matches the historical sequential path. Every attempt's consumed time
// (including the partial time of failed attempts and the backoff waits) is
// booked — fault recovery is real training time. The backoff advances the
// engine's simulated clock so crash windows can end while we wait.
// Availability losses (a crashed node, a lost shard, a network partition)
// only heal through a topology change, so they wait at the backoff cap
// immediately instead of creeping up to it; transient failures keep the
// exponential schedule.
func (oc *OnlineCost) retry(g *sqlparse.Graph, limit float64, batchErr error) (rt float64, aborted, degraded bool, err error) {
	err = batchErr
	backoff := oc.RetryBackoffSec
	for attempt := 1; attempt <= oc.MaxRetries; attempt++ {
		if oc.ctx().Err() != nil {
			// Cancelled: give up the remaining retry budget immediately. The
			// last attempt's error stands and the measurement is treated as
			// degraded (never cached), exactly like a budget-exhausted
			// failure.
			return rt, false, true, err
		}
		oc.Stats.Retries++
		wait := backoff
		if errors.Is(err, exec.ErrNodeDown) || errors.Is(err, exec.ErrShardLost) ||
			errors.Is(err, exec.ErrPartitioned) {
			wait = oc.RetryBackoffCapSec
		}
		if wait > oc.RetryBackoffCapSec {
			wait = oc.RetryBackoffCapSec
		}
		oc.Engine.AdvanceClock(wait)
		oc.Stats.ExecSeconds += wait
		oc.Stats.NaiveExecSeconds += wait
		backoff *= 2
		batch := oc.Engine.Exec(oc.ctx(), exec.Request{Queries: []exec.BatchQuery{{Graph: g, Limit: limit}}})
		rep, execErr := batch.Reports[0], batch.Errs[0]
		oc.Stats.QueriesExecuted += batch.Completed
		oc.Stats.ExecSeconds += rep.Seconds
		oc.Stats.NaiveExecSeconds += rep.Seconds
		oc.Stats.DegradedSeconds += rep.DegradedSeconds
		if execErr == nil {
			return rep.Seconds, rep.Aborted, rep.DegradedSeconds > 0, nil
		}
		rt, err = rep.Seconds, execErr
	}
	return rt, false, true, err
}

// failKey identifies a (query, table-design) measurement.
func failKey(query int, tableSig string) string {
	return fmt.Sprintf("%d|%s", query, tableSig)
}

// MarkFailed records that a query was observed to fail under a design
// outside WorkloadCost's own measurements — e.g. a live validation run of a
// suggested partitioning. Marked designs are excluded from cache-based
// ranking exactly like measurement failures.
func (oc *OnlineCost) MarkFailed(query int, st *partition.State) {
	if query < 0 || query >= len(oc.WL.Queries) {
		return
	}
	sig := st.TableSignature(oc.WL.Queries[query].Tables())
	oc.failedQ[failKey(query, sig)] = true
	oc.Stats.FailedQueries++
}

// KnownFailed reports whether any query active in the mix was observed to
// fail under this design.
func (oc *OnlineCost) KnownFailed(st *partition.State, freq workload.FreqVector) bool {
	for i, q := range oc.WL.Queries {
		if i >= len(freq) || freq[i] == 0 {
			continue
		}
		if oc.failedQ[failKey(i, st.TableSignature(q.Tables()))] {
			return true
		}
	}
	return false
}

// accountNaiveRepartition books what deploying every changed table at every
// state change would cost.
func (oc *OnlineCost) accountNaiveRepartition(st *partition.State) {
	if oc.naivePrev == nil {
		oc.naivePrev = st.Space().InitialState()
	}
	hw := oc.Engine.HW
	cat := oc.Engine.TrueCatalog()
	for _, table := range oc.naivePrev.DiffTables(st) {
		bytes := float64(cat.Bytes(table))
		var moved float64
		if _, partitioned := st.KeyOf(table); partitioned {
			moved = bytes * float64(hw.Nodes-1) / float64(hw.Nodes)
		} else {
			moved = bytes * float64(hw.Nodes-1)
		}
		oc.Stats.NaiveRepartitionSeconds += moved/(float64(hw.Nodes)*hw.NetBytesPerSec) + hw.RepartitionOverheadSec
	}
	oc.naivePrev = st
}

// freqKey canonicalizes a frequency vector for best-cost bookkeeping on its
// exact bit pattern (the %.4g formatting used previously collided for
// frequencies agreeing in the first four significant digits, silently
// sharing one bestForFreq — and thus one timeout budget — across distinct
// mixes).
func freqKey(freq workload.FreqVector) string {
	buf := make([]byte, 0, len(freq)*8)
	for _, f := range freq {
		bits := math.Float64bits(f)
		buf = append(buf,
			byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24),
			byte(bits>>32), byte(bits>>40), byte(bits>>48), byte(bits>>56))
	}
	return string(buf)
}

// MeasureWorkload runs every workload query once on the engine's deployed
// layout, as one batch, and returns Σ w_i·seconds_i summed in query order —
// the paper's evaluation metric ("total runtime of all queries").
func MeasureWorkload(e *exec.Engine, wl *workload.Workload) float64 {
	rep := e.Exec(context.Background(), exec.Request{Queries: exec.Queries(wl.Graphs(), 0)})
	total := 0.0
	for i, q := range wl.Queries {
		total += q.Weight * rep.Reports[i].Seconds
	}
	return total
}

// ComputeScaleFactors measures the §4.2 per-query factors
// S_i = c_full(P_offline, q_i) / c_sample(P_offline, q_i): both engines are
// deployed to the offline-phase partitioning and every query is executed
// once on each. setupSeconds is the simulated time this calibration costs
// (deploys plus the measurement runs) — callers book it into
// OnlineStats.SetupSeconds so bootstrap accounting doesn't get it for free.
func ComputeScaleFactors(full, sample *exec.Engine, wl *workload.Workload, pOffline *partition.State) (scale []float64, setupSeconds float64) {
	setupSeconds = full.Deploy(pOffline, nil)
	setupSeconds += sample.Deploy(pOffline, nil)
	// One batch per engine; the per-position reports are then consumed
	// interleaved (cf_i, cs_i, cf_i+1, …), which fixes the float-addition
	// order of the setup-time sum.
	req := exec.Request{Queries: exec.Queries(wl.Graphs(), 0)}
	repF := full.Exec(context.Background(), req)
	repS := sample.Exec(context.Background(), req)
	scale = make([]float64, len(wl.Queries))
	for i := range wl.Queries {
		cf := repF.Reports[i].Seconds
		cs := repS.Reports[i].Seconds
		setupSeconds += cf + cs
		if cs <= 0 {
			scale[i] = 1
			continue
		}
		scale[i] = cf / cs
	}
	return scale, setupSeconds
}

// TrainOnline refines a (typically offline-bootstrapped) advisor against
// measured runtimes. Per §4.2 the ε schedule resumes from
// hp.OnlineEpsilonFromEpisode rather than from full exploration.
func (a *Advisor) TrainOnline(oc *OnlineCost, sampler FreqSampler) error {
	if err := oc.Validate(); err != nil {
		return fmt.Errorf("core: online training: %w", err)
	}
	a.Agent.Epsilon = a.HP.DQN.EpsilonAfter(a.HP.OnlineEpsilonFromEpisode)
	if err := a.trainEpisodes(oc.WorkloadCost, sampler, a.HP.OnlineEpisodes, PhaseOnline); err != nil {
		return fmt.Errorf("core: online training: %w", err)
	}
	return nil
}

// SuggestBest runs the §6 inference rollout and then re-ranks its result
// against every design the online phase measured: the Query Runtime Cache
// makes the measured cost of any visited layout essentially free, so the
// advisor returns the maximum *observed* reward rather than trusting the
// Q-network's rollout alone. This damps DQN variance at small training
// budgets without any additional query execution.
func (a *Advisor) SuggestBest(freq workload.FreqVector, oc *OnlineCost) (*partition.State, float64, error) {
	best, bestReward, err := a.Suggest(freq)
	if err != nil {
		return nil, 0, fmt.Errorf("core: inference rollout: %w", err)
	}
	bestCost := oc.WorkloadCost(best, freq)
	// A rollout result already observed to lose queries — or vetoed by the
	// guard's validator under the cluster's current health — must not
	// anchor the ranking with its (stale or penalty) measured cost: any
	// surviving cached design beats it.
	if oc.KnownFailed(best, freq) {
		bestCost = math.Inf(1)
	}
	if oc.Guard != nil && oc.Guard.CheckDesign(best) != nil {
		bestCost = math.Inf(1)
	}
	// Scan visited designs in sorted-signature order so ties resolve
	// deterministically across runs.
	sigs := make([]string, 0, len(oc.Visited()))
	for sig := range oc.Visited() {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	for _, sig := range sigs {
		st := oc.Visited()[sig]
		if oc.Guard != nil && oc.Guard.CheckDesign(st) != nil {
			continue
		}
		if c, ok := oc.CachedCost(st, freq); ok && c < bestCost {
			bestCost = c
			best = st
		}
	}
	return best, bestReward, nil
}

// CachedCost computes the workload cost of a partitioning purely from the
// Query Runtime Cache; ok is false when any required runtime is missing (no
// query is executed).
func (oc *OnlineCost) CachedCost(st *partition.State, freq workload.FreqVector) (float64, bool) {
	total := 0.0
	for i, q := range oc.WL.Queries {
		if i >= len(freq) || freq[i] == 0 {
			continue
		}
		if oc.cache[i] == nil {
			return 0, false
		}
		sig := st.TableSignature(q.Tables())
		// Designs observed to lose a query under the fault regime must not
		// be ranked from stale cache entries measured before the failure.
		if oc.failedQ[failKey(i, sig)] {
			return 0, false
		}
		rt, ok := oc.cache[i][sig]
		if !ok {
			return 0, false
		}
		total += freq[i] * q.Weight * oc.scaleOf(i) * rt
	}
	return total, true
}
