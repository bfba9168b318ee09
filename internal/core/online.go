package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"partadvisor/internal/exec"
	"partadvisor/internal/partition"
	"partadvisor/internal/sqlparse"
	"partadvisor/internal/workload"
)

// ErrBadConfig is wrapped by every OnlineCost.Validate failure.
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

	// Ctx, when non-nil, bounds every measurement: batch execution stops at
	// cancellation through the frozen-cursor abort (the charged prefix keeps
	// exact accounting), the retry/backoff loop gives up before its next
	// attempt, and a cancelled pass is charged the finite breaker penalty
	// without caching anything. Long-running callers (the advisord tenant
	// loop) set it so a shutdown or deadline cuts a measurement mid-batch
	// instead of waiting out the pass.
	Ctx context.Context

	// Guard, when non-nil, arms the safety envelope of DESIGN.md §8 around
	// every measurement (see GuardConfig). Its state lives in this
	// OnlineCost, which, guarded or not, is called from one goroutine at a
	// time: the order of the calls sets the per-mix best cost, and with it
	// the timeout limits.
	Guard *GuardConfig

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

	// Guard state: designs with a clean full pass (no canary needed), the
	// best-known (design, cost) per frequency key, the budget window of the
	// last ≤ WindowPasses passes, and the rollback log.
	measured  map[string]bool
	best      map[string]bestEntry
	window    []passRecord
	rollbacks []RollbackRecord
}

// Fault tolerance (DESIGN.md §5). An execution that fails (injected crash
// or transient error) is retried up to maxRetries times with capped
// exponential backoff that advances the engine's simulated clock, so a
// crashed node can recover while we wait. An exhausted budget charges
// failurePenaltySec (or twice the best-known workload cost when one exists)
// and is never cached; circuitBreakAfter consecutive failing passes of one
// design trip its breaker, after which the design is charged the penalty
// without deploying or executing.
const (
	maxRetries         = 4
	retryBackoffSec    = 0.05
	retryBackoffCapSec = 1.0
	failurePenaltySec  = 10
	circuitBreakAfter  = 3
)

// MaxRetryWaitSec is the simulated time one query's retries wait out an
// availability loss before the measurement is abandoned: each retry of a
// crashed node, lost shard or partition waits at the backoff cap.
const MaxRetryWaitSec = maxRetries * retryBackoffCapSec

// NewOnlineCost builds the measured cost function with all optimizations
// enabled.
func NewOnlineCost(engine *exec.Engine, wl *workload.Workload, scale []float64) *OnlineCost {
	return &OnlineCost{
		Engine:      engine,
		WL:          wl,
		Scale:       scale,
		UseTimeouts: true,
		bestForFreq: math.Inf(1),
		cache:       make([]map[string]float64, len(wl.Queries)+wl.Reserved),
		visited:     make(map[string]*partition.State),
		failedQ:     make(map[string]bool),
		failStreak:  make(map[string]int),
		tripped:     make(map[string]bool),
		measured:    make(map[string]bool),
		best:        make(map[string]bestEntry),
	}
}

// Validate rejects a nonsensical Guard with errors wrapping ErrBadConfig.
// TrainOnline calls it before the first measurement; hand-rolled training
// loops should call it after arming the guard.
func (oc *OnlineCost) Validate() error {
	if oc.Guard == nil {
		return nil
	}
	return oc.Guard.validate()
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
// tables those queries touch. A design whose breaker is open, that the
// guard vetoes, or whose pass the guard's budget denies is charged the
// finite penalty without touching the engine; a pass cut by cancellation or
// by a regressing canary is charged the penalty after its prefix. The
// penalty never becomes the cost to beat.
func (oc *OnlineCost) WorkloadCost(st *partition.State, freq workload.FreqVector) float64 {
	if key := freqKey(freq); key != oc.curFreqKey {
		oc.curFreqKey = key
		oc.bestForFreq = math.Inf(1)
	}
	dsig := st.Signature()
	if oc.tripped[dsig] {
		return oc.penalize(&oc.Stats.CircuitBroken, freq)
	}
	if oc.vetoed(st) {
		// Never deployed, never registered as visited: SuggestBest must not
		// rank it.
		return oc.penalize(&oc.Stats.GuardVetoes, freq)
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
	clean := true
	if len(misses) > 0 {
		if oc.Guard != nil && oc.budgetExhausted() {
			// The agent is forced onto cached designs until older passes age
			// out of the window.
			return oc.penalize(&oc.Stats.BudgetDenials, freq)
		}
		var cancelled, canaryAborted bool
		total, clean, cancelled, canaryAborted = oc.measure(st, dsig, freq, total, misses)
		switch {
		case cancelled:
			return oc.penalize(nil, freq)
		case canaryAborted:
			return oc.penalize(&oc.Stats.CanaryAborts, freq)
		}
	}
	if oc.Guard != nil && clean {
		// After the rollback decision: the measurement competes against the
		// previous best, not against itself.
		oc.observeBest(st, total)
	}
	if total < oc.bestForFreq {
		oc.bestForFreq = total
	}
	return total
}

// measure is one measurement pass over the cache misses: pre-snapshot →
// lazy deploy → batch execution → settle each miss (retry, fail, cache) →
// breaker streak → regressed time → budget window → mark measured →
// rollback. It returns the pass total (total plus the misses' weighted
// runtimes), whether every miss was measured cleanly, and whether the batch
// was cut short by cancellation (which books only the charged prefix and the
// budget window) or by the canary.
func (oc *OnlineCost) measure(st *partition.State, dsig string, freq workload.FreqVector, total float64, misses []int) (cost float64, clean, cancelled, canaryAborted bool) {
	_, _, preBytes := oc.Engine.Counters()
	preDegraded := oc.Stats.DegradedSeconds
	preSpent := oc.Stats.ExecSeconds + oc.Stats.RepartitionSeconds

	// Lazy repartitioning: deploy only the tables the misses touch. Deploy
	// sums per-table seconds in list order; sort so the float-addition order
	// (and thus RepartitionSeconds, to the last ULP) doesn't inherit
	// map-iteration randomness.
	set := make(map[string]bool)
	for _, i := range misses {
		for _, t := range oc.WL.Queries[i].Tables() {
			set[t] = true
		}
	}
	tables := make([]string, 0, len(set))
	for t := range set {
		tables = append(tables, t)
	}
	sort.Strings(tables)
	oc.Stats.RepartitionSeconds += oc.Engine.Deploy(st, tables)

	// The §4.2 limits are computable before any execution: bestForFreq only
	// moves after the whole pass, so every miss shares the same budget rule
	// — which is what lets the misses run as one batch.
	hasBest := !math.IsInf(oc.bestForFreq, 1)
	weights := make([]float64, len(misses))
	limits := make([]float64, len(misses))
	for k, i := range misses {
		weights[k] = freq[i] * oc.WL.Queries[i].Weight * oc.scaleOf(i)
		if oc.UseTimeouts && hasBest && weights[k] > 0 {
			limits[k] = oc.bestForFreq / weights[k]
		}
	}
	// order maps batch position → miss index. The canary stage front-loads
	// the highest-weight misses (stable sort: ties keep query order) so the
	// first K batch positions are the top-K canary.
	order := make([]int, len(misses))
	for k := range order {
		order[k] = k
	}
	req := exec.Request{Queries: make([]exec.BatchQuery, len(misses))}
	if g := oc.Guard; g != nil && oc.needsCanary(dsig) && hasBest && g.CanaryQueries < len(misses) {
		sort.SliceStable(order, func(a, b int) bool { return weights[order[a]] > weights[order[b]] })
		// Abort from the in-order delivery callback: the decision is a pure
		// function of batch position, so the cut — and the charged prefix —
		// is identical at every worker count. Failed canary queries
		// contribute only their consumed (overhead) time, which
		// underestimates and so never aborts spuriously.
		abort := &exec.BatchAbort{}
		canaryCost, threshold := total, g.CanaryRegressionFactor*oc.bestForFreq
		req.Abort = abort
		req.OnResult = func(pos int, r exec.RunReport, err error) {
			if pos >= g.CanaryQueries {
				return
			}
			canaryCost += weights[order[pos]] * r.Seconds
			if canaryCost > threshold {
				abort.Set()
			}
		}
	}
	for pos, k := range order {
		req.Queries[pos] = exec.BatchQuery{Graph: oc.WL.Queries[misses[k]].Graph, Limit: limits[k]}
	}
	rep := oc.Engine.Exec(oc.ctx(), req)
	oc.charge(rep)

	// A cut batch is a cancellation unless the canary set the abort flag:
	// abort.Set is only ever called by the canary callback, so a set flag is
	// a genuine regression even if the caller happens to be shutting down.
	cut := rep.Completed < len(req.Queries)
	cancelled = cut && !(req.Abort != nil && req.Abort.Aborted()) && oc.ctx().Err() != nil
	failed := cut
	if !cut {
		for pos, k := range order {
			c, ok := oc.settle(st, misses[k], weights[k], limits[k], rep, pos)
			total += c
			failed = failed || !ok
		}
		// Only passes that measured something move the breaker: cache-hit
		// passes say nothing new about the design's health.
		if failed {
			oc.failStreak[dsig]++
			if oc.failStreak[dsig] >= circuitBreakAfter {
				oc.tripped[dsig] = true
				oc.Stats.BreakerTrips++
			}
		} else {
			delete(oc.failStreak, dsig)
		}
	}
	// A canary abort is regressed time by definition. A cancelled pass is
	// neither regressed nor grounds for a rollback: the caller is shutting
	// down, not observing a regression.
	if !cancelled && (cut || hasBest && total > regressedFactor*oc.bestForFreq) {
		oc.Stats.RegressedSeconds += oc.Stats.ExecSeconds + oc.Stats.RepartitionSeconds - preSpent
	}
	if oc.Guard != nil {
		// The budget window records what the pass moved before any rollback:
		// the rollback is a forced safety action, not exploration.
		_, _, postBytes := oc.Engine.Counters()
		oc.recordPass(postBytes-preBytes, oc.Stats.DegradedSeconds-preDegraded)
		if !failed {
			oc.measured[dsig] = true
		}
		if !cancelled {
			oc.rollbackIfNeeded(st, dsig, total, failed)
		}
	}
	return total, !failed, cancelled, cut && !cancelled
}

// settle books the outcome of query i at batch position pos and returns its
// weighted cost: a failed attempt falls back to the retry loop; an exhausted
// retry budget charges a penalty runtime and is remembered against the
// design; a clean runtime is cached. ok reports whether it was measured.
func (oc *OnlineCost) settle(st *partition.State, i int, weight, limit float64, rep exec.BatchReport, pos int) (cost float64, ok bool) {
	q := oc.WL.Queries[i]
	sig := st.TableSignature(q.Tables())
	r, err := rep.Reports[pos], rep.Errs[pos]
	rt, aborted, degraded := r.Seconds, r.Aborted, r.DegradedSeconds > 0
	if err != nil {
		rt, aborted, degraded, err = oc.retry(q.Graph, limit, err)
	}
	hasBest := !math.IsInf(oc.bestForFreq, 1)
	if err != nil {
		// The design loses this query under the current fault regime:
		// penalize it so the agent steers away, and never cache the
		// (meaningless) partial runtime. A failure observed only because the
		// context was cancelled is a shutdown artifact, not a verdict: it is
		// penalized this pass but not remembered against the design.
		if oc.ctx().Err() == nil {
			oc.Stats.FailedQueries++
			oc.failedQ[failKey(i, sig)] = true
		}
		rt = failurePenaltySec
		if hasBest && weight > 0 {
			rt = 2 * oc.bestForFreq / weight
		}
		return weight * rt, false
	}
	if aborted {
		oc.Stats.Aborts++
	} else if hasBest && weight > 0 {
		// Counterfactual (or realized-zero) timeout saving.
		if l := oc.bestForFreq / weight; rt > l {
			oc.Stats.TimeoutSavedSeconds += rt - l
		}
	}
	// A runtime measured while faults were active is noise (straggler or
	// degraded-network inflated); caching it would poison every later cost
	// of this design, so only clean measurements persist.
	if !degraded {
		oc.cache[i][sig] = rt
	}
	return weight * rt, true
}

// charge books one executed batch's consumed time.
func (oc *OnlineCost) charge(rep exec.BatchReport) {
	oc.Stats.QueriesExecuted += rep.Completed
	oc.Stats.ExecSeconds += rep.Seconds
	oc.Stats.NaiveExecSeconds += rep.Seconds
	oc.Stats.DegradedSeconds += rep.DegradedSeconds
}

// ctx returns the measurement-bounding context (Background when unset).
func (oc *OnlineCost) ctx() context.Context {
	if oc.Ctx != nil {
		return oc.Ctx
	}
	return context.Background()
}

// penalize is the exit of a measurement that yields no cost: it counts the
// reason (nil for a cancelled pass) and prices the design at twice the
// best-known cost of the current mix when one exists, else the flat failure
// penalty per active query. bestForFreq is left untouched — a penalty must
// never become the cost to beat.
func (oc *OnlineCost) penalize(reason *int, freq workload.FreqVector) float64 {
	if reason != nil {
		*reason++
	}
	if !math.IsInf(oc.bestForFreq, 1) {
		return 2 * oc.bestForFreq
	}
	active := 0
	for i := range oc.WL.Queries {
		if i < len(freq) && freq[i] != 0 {
			active++
		}
	}
	return failurePenaltySec * float64(active)
}

// retry re-measures one query whose batch execution failed with batchErr,
// using capped exponential backoff. The failed batch attempt counts as the
// first try, so the total attempt budget is 1 + maxRetries executions.
// Every attempt's consumed time (including the partial time of failed
// attempts and the backoff waits) is booked — fault recovery is real
// training time. Availability losses (a crashed node, a lost shard, a
// network partition) only heal through a topology change, so they wait at
// the backoff cap immediately instead of creeping up to it; transient
// failures keep the exponential schedule.
func (oc *OnlineCost) retry(g *sqlparse.Graph, limit float64, batchErr error) (rt float64, aborted, degraded bool, err error) {
	err = batchErr
	backoff := retryBackoffSec
	for attempt := 1; attempt <= maxRetries; attempt++ {
		if oc.ctx().Err() != nil {
			// Cancelled: give up the remaining budget immediately. The last
			// attempt's error stands and the measurement is treated as
			// degraded (never cached), exactly like an exhausted budget.
			return rt, false, true, err
		}
		oc.Stats.Retries++
		wait := math.Min(backoff, retryBackoffCapSec)
		if errors.Is(err, exec.ErrNodeDown) || errors.Is(err, exec.ErrShardLost) ||
			errors.Is(err, exec.ErrPartitioned) {
			wait = retryBackoffCapSec
		}
		oc.Engine.AdvanceClock(wait)
		oc.Stats.ExecSeconds += wait
		oc.Stats.NaiveExecSeconds += wait
		backoff *= 2
		batch := oc.Engine.Exec(oc.ctx(), exec.Request{Queries: []exec.BatchQuery{{Graph: g, Limit: limit}}})
		oc.charge(batch)
		rep := batch.Reports[0]
		if batch.Errs[0] == nil {
			return rep.Seconds, rep.Aborted, rep.DegradedSeconds > 0, nil
		}
		rt, err = rep.Seconds, batch.Errs[0]
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
	if err := a.trainEpisodes(oc.WorkloadCost, sampler, a.HP.OnlineEpisodes); err != nil {
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
	if oc.KnownFailed(best, freq) || oc.vetoed(best) {
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
		if oc.vetoed(st) {
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
