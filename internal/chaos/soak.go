// Package chaos holds the soak harnesses. Run is one seeded soak with four
// regimes: faults (generated crash/rejoin, partition, straggler, degraded
// link and transient-failure schedules, plus a node lost forever every
// third episode, over full train-and-suggest episodes of the online
// advisor), guarded (the same with the online guard armed), skew (an
// adversarial celebrity trace replayed against hot-shard detection and
// mitigation) and skew-faulty (the same with a node crashed at the first
// detection, rejoin and self-healing armed). Every episode runs twice, run
// and replay, each under a wall-clock watchdog. The invariants per regime:
//
//   - all: accounting conservation (BytesMoved = deployed + repaired bytes,
//     repaired = the repair-log sum, ExecSeconds finite and ≥ 0), the
//     watchdog, and bit-identical replay of the whole Outcome;
//   - faults, guarded: replica placement (a query errors iff a fragment it
//     needs has no accessible copy);
//   - guarded: rollback consistency and a replay-equal rollback digest;
//   - skew, skew-faulty: detector and mitigation engagement, heat bound;
//   - skew-faulty: self-healing ran a repair.
//
// RunCrashSoak (crash.go) is the process-level counterpart: it kill-9s the
// real advisord binary.
package chaos

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"partadvisor/advisor"
	"partadvisor/internal/benchmarks"
	"partadvisor/internal/core"
	"partadvisor/internal/exec"
	"partadvisor/internal/faults"
	"partadvisor/internal/partition"
)

// Regime selects what a soak's episodes run.
type Regime string

const (
	Faults     Regime = "faults"
	Guarded    Regime = "guarded"
	Skew       Regime = "skew"
	SkewFaulty Regime = "skew-faulty"
)

// ParseRegime returns the regime named s; an unknown name is an error.
func ParseRegime(s string) (Regime, error) {
	switch r := Regime(s); r {
	case Faults, Guarded, Skew, SkewFaulty:
		return r, nil
	}
	return "", fmt.Errorf("chaos: unknown soak regime %q (want faults, guarded, skew or skew-faulty)", s)
}

func (r Regime) skew() bool { return r == Skew || r == SkewFaulty }

const (
	// episodeDeadline is the per-run wall-clock watchdog: a run that stops
	// making progress becomes an invariant violation instead of a hang.
	episodeDeadline = 5 * time.Minute
	// heatBound is the post-mitigation invariant: a full measurement
	// window's max/mean heat for the hot table stays at or below it (the
	// detector's default threshold).
	heatBound = 2.0
)

// Config parameterizes a soak run.
type Config struct {
	// Regime is required: Run rejects an unknown or empty one.
	Regime Regime
	// Seed derives everything: database content, fault schedules, traces,
	// agent initialization. Identical seeds replay identical soaks.
	Seed int64
	// Episodes is the number of episodes (default 2).
	Episodes int
	// Scale multiplies the benchmark's generated row counts (default 0.2
	// for the microbenchmark of the fault regimes, 1 for the celebrity
	// benchmark of the skew regimes).
	Scale float64
	// Logf, when set, receives per-episode progress lines.
	Logf func(format string, args ...any)
	// Stop, when set, is polled between episodes: once true, the soak
	// returns the episodes completed so far (a graceful shutdown, not a
	// violation).
	Stop func() bool
}

// Outcome is the comparable digest of one episode run; the determinism
// invariant is outcome equality between run and replay. A field the
// episode's regime does not produce stays zero, and so does every field of
// an episode the watchdog stopped.
type Outcome struct {
	// Engine totals and the online layer's accounting.
	QueriesExecuted int
	Repartitions    int
	Repairs         int
	BytesMoved      int64
	DeployedBytes   int64
	RepairedBytes   int64
	Stats           core.OnlineStats

	// Design is the advisor's suggestion (fault regimes) or the final
	// mitigated layout (skew regimes), as a signature.
	Design string

	// Fault regimes: the schedule's composition — crash windows with a
	// rejoin (incl. recurring), crash windows without one, partition
	// windows — the suggestion's measured workload cost, and how many
	// placement probes errored.
	Crashes, Permanent, Partitions int
	Cost                           float64
	ProbeFailures                  int
	// RollbackDigest concatenates every rollback's (from, to, clock)
	// triple (guarded only): identical rollback decisions at identical
	// simulated instants; Stats covers the veto, canary-abort and
	// budget-denial counts.
	RollbackDigest string

	// Skew regimes: the trace's digest and event count, hot-shard reports,
	// adopted mitigations, the engine's final cumulative heat counters
	// folded, and the post-mitigation measurement window's imbalance.
	TraceDigest    uint64
	Events         int
	Detections     int
	Mitigations    int
	HeatDigest     uint64
	FinalImbalance float64
}

// Episode is one episode's outcome (from the first run; the replay must
// match it bit for bit) and its invariant verdicts.
type Episode struct {
	Episode int
	Seed    int64
	Outcome
	// Violations holds every invariant breach (empty = episode passed).
	Violations []string
}

// Report is a whole soak run.
type Report struct {
	Episodes []Episode
}

// Violations flattens every episode's breaches.
func (r *Report) Violations() []string {
	var out []string
	for _, e := range r.Episodes {
		for _, v := range e.Violations {
			out = append(out, fmt.Sprintf("episode %d: %s", e.Episode, v))
		}
	}
	return out
}

// Run executes the soak: cfg.Episodes episodes of cfg.Regime, each run
// twice under its derived seed with the regime's invariants evaluated on
// both runs. A non-nil error means the harness itself broke (or the regime
// is unknown); invariant breaches land in the report instead.
func Run(cfg Config) (*Report, error) {
	if _, err := ParseRegime(string(cfg.Regime)); err != nil {
		return nil, err
	}
	if cfg.Episodes <= 0 {
		cfg.Episodes = 2
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 0.2
		if cfg.Regime.skew() {
			cfg.Scale = 1
		}
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	rep := &Report{}
	for ep := 0; ep < cfg.Episodes; ep++ {
		if cfg.Stop != nil && cfg.Stop() {
			logf("%s: stop requested, finishing after %d/%d episodes", cfg.Regime, ep, cfg.Episodes)
			return rep, nil
		}
		seed := cfg.Seed + 7919*int64(ep)
		out, vio, err := replayTwice(func() (Outcome, []string, error) {
			if cfg.Regime.skew() {
				return runSkew(cfg.Scale, seed, cfg.Regime == SkewFaulty)
			}
			// Every third episode loses a node forever; the others only see
			// recoverable faults.
			return runFaults(cfg.Scale, seed, ep%3 == 2, cfg.Regime == Guarded)
		}, seed, cfg.Regime)
		if err != nil {
			return rep, err
		}
		rep.Episodes = append(rep.Episodes, Episode{Episode: ep, Seed: seed, Outcome: out, Violations: vio})
		logf("%s: episode %d/%d seed=%d %s violations=%d",
			cfg.Regime, ep+1, cfg.Episodes, seed, cfg.Regime.summary(out), len(vio))
	}
	return rep, nil
}

// summary is the regime's per-episode progress line.
func (r Regime) summary(o Outcome) string {
	if r.skew() {
		return fmt.Sprintf("events=%d detections=%d mitigations=%d repairs=%d final-imbalance=%.2f",
			o.Events, o.Detections, o.Mitigations, o.Repairs, o.FinalImbalance)
	}
	s := fmt.Sprintf("crashes=%d permanent=%d partitions=%d repairs=%d repaired=%dB failedq=%d",
		o.Crashes, o.Permanent, o.Partitions, o.Repairs, o.RepairedBytes, o.Stats.FailedQueries)
	if r == Guarded {
		s += fmt.Sprintf(" vetoes=%d canary=%d budget=%d rollbacks=%d",
			o.Stats.GuardVetoes, o.Stats.CanaryAborts, o.Stats.BudgetDenials, o.Stats.Rollbacks)
	}
	return s
}

// replayTwice runs one seeded episode twice — once to measure, once to
// check bit-identical replay — each under the wall-clock watchdog, and
// returns the first run's outcome with the breaches of both runs plus the
// determinism verdict. When the watchdog fires, the outcome is zero, vio
// holds only that breach, and the runner goroutine is abandoned — it holds
// no external resources, everything is in-memory and per-episode.
func replayTwice(run func() (Outcome, []string, error), seed int64, regime Regime) (out Outcome, vio []string, err error) {
	type result struct {
		out Outcome
		vio []string
		err error
	}
	var rs [2]result
	for i, pass := range []string{"run", "replay"} {
		ch := make(chan result, 1)
		go func() {
			o, v, e := run()
			ch <- result{o, v, e}
		}()
		select {
		case rs[i] = <-ch:
		case <-time.After(episodeDeadline):
			return out, []string{fmt.Sprintf("watchdog: %s of a %s episode still going after %v", pass, regime, episodeDeadline)}, nil
		}
		if rs[i].err != nil {
			return out, nil, rs[i].err
		}
	}
	vio = append(rs[0].vio, rs[1].vio...)
	if rs[0].out != rs[1].out {
		vio = append(vio, fmt.Sprintf("determinism: replay of seed %d diverged:\n  run    %+v\n  replay %+v",
			seed, rs[0].out, rs[1].out))
	}
	return rs[0].out, vio, nil
}

// conserve checks cost-accounting conservation on the quiescent engine —
// fault or no fault, the engine's byte totals split exactly and the online
// layer's time stays finite — and records the engine totals and online
// accounting in out. Direct counter reads are single-threaded here.
func conserve(e *exec.Engine, oc *core.OnlineCost, out *Outcome) []string {
	var vio []string
	queries, reparts, moved := e.Counters()
	repairs, repaired := e.RepairStats()
	var logBytes int64
	for _, r := range e.RepairLog() {
		logBytes += r.Bytes
	}
	if repaired != logBytes {
		vio = append(vio, fmt.Sprintf("conservation: RepairedBytes %d != repair-log sum %d", repaired, logBytes))
	}
	if moved != e.DeployedBytes+repaired {
		vio = append(vio, fmt.Sprintf("conservation: BytesMoved %d != DeployedBytes %d + RepairedBytes %d",
			moved, e.DeployedBytes, repaired))
	}
	if x := oc.Stats.ExecSeconds; math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
		vio = append(vio, fmt.Sprintf("accounting: ExecSeconds = %v", oc.Stats.ExecSeconds))
	}
	out.Stats = oc.Stats
	out.QueriesExecuted, out.Repartitions, out.Repairs = queries, reparts, repairs
	out.BytesMoved, out.DeployedBytes, out.RepairedBytes = moved, e.DeployedBytes, repaired
	return vio
}

// soakAdvisor puts a small advisor on the deployment, trains it offline on
// the cost model and online against the live engine (no sample: the soaks
// want the armed faults in the measured runs), inside the guard envelope
// when g is set, and returns the design it settles on for the uniform mix.
func soakAdvisor(dep *advisor.Deployment, seed int64, g *core.GuardConfig) (*partition.State, *core.OnlineCost, error) {
	hp := core.Test()
	hp.Episodes = 16
	hp.OnlineEpisodes = 10
	sess, err := dep.NewSession(hp, seed)
	if err != nil {
		return nil, nil, fmt.Errorf("chaos: build advisor: %w", err)
	}
	if err := sess.TrainOffline(); err != nil {
		return nil, nil, fmt.Errorf("chaos: offline training: %w", err)
	}
	oc := core.NewOnlineCost(dep.Engine, dep.Bench.Workload, nil)
	oc.Guard = g
	if err := sess.Advisor.TrainOnline(oc, nil); err != nil {
		return nil, nil, fmt.Errorf("chaos: online training: %w", err)
	}
	st, _, err := sess.Advisor.SuggestBest(dep.Bench.Workload.UniformFreq(), oc)
	if err != nil {
		return nil, nil, fmt.Errorf("chaos: suggestion: %w", err)
	}
	return st, oc, nil
}

// runFaults builds a fresh database + engine, arms a generated fault
// schedule and the self-healing layer, trains the advisor offline and
// online (inside the guard envelope when guarded), asks for a design, and
// evaluates the per-run invariants.
func runFaults(scale float64, seed int64, permanentLoss, guarded bool) (Outcome, []string, error) {
	var out Outcome
	var vio []string

	dep := advisor.NewDeployment(advisor.Micro(), advisor.MemoryCluster(), scale, seed)
	e, wl := dep.Engine, dep.Bench.Workload

	// Calibrate the schedule's time unit — one fault-free workload pass —
	// before any fault is armed.
	e.Deploy(dep.Space.InitialState(), nil)
	unit := e.Exec(context.Background(), exec.Request{Queries: exec.Queries(wl.Graphs(), 0)}).Seconds
	if unit <= 0 {
		return out, nil, fmt.Errorf("chaos: calibration workload consumed no simulated time")
	}

	rng := rand.New(rand.NewSource(seed))
	sched := buildSchedule(rng, e.HW.Nodes, unit, permanentLoss)
	out.Crashes, out.Permanent, out.Partitions = sched.Crashes, sched.Permanent, sched.Partitions
	inj, err := faults.New(sched.cfg)
	if err != nil {
		return out, nil, fmt.Errorf("chaos: generated schedule invalid: %w", err)
	}
	e.SetFaults(inj)
	e.ResetClock()
	e.SetSelfHeal(true)

	var g *core.GuardConfig
	if guarded {
		gcfg := core.DefaultGuardConfig()
		// The canary only arms when it is a strict prefix of a pass's cache
		// misses; the microbenchmark has two queries, so K=1.
		gcfg.CanaryQueries = 1
		g = &gcfg
	}
	st, oc, err := soakAdvisor(dep, seed, g)
	if err != nil {
		return out, nil, err
	}

	// Invariant: replica-placement consistency — a query errors iff some
	// fragment it needs has no accessible copy. Probed with Explain, a
	// pure diagnostic (no clock advance, no transient draws, no heal), so
	// the accessibility snapshot and the probe see the same instant.
	down, unreach := e.NodeStates()
	inacc := func(n int) bool { return down[n] || unreach[n] }
	for _, q := range wl.Queries {
		expectFail := false
		for _, tbl := range q.Tables() {
			if !e.Cluster().Available(tbl, inacc) {
				expectFail = true
			}
		}
		plan, _ := e.Explain(q.Graph)
		gotFail := false
		for _, line := range plan {
			if strings.HasPrefix(line, "ERROR:") {
				gotFail = true
			}
		}
		if gotFail {
			out.ProbeFailures++
		}
		if gotFail != expectFail {
			vio = append(vio, fmt.Sprintf(
				"placement: query %s errored=%v but fragment accessibility says shouldFail=%v",
				q.Name, gotFail, expectFail))
		}
	}

	// Invariant: cost-accounting conservation. Training is done and the
	// engine quiescent.
	vio = append(vio, conserve(e, oc, &out)...)

	// Guard invariants: every rollback must have left the deployed layout
	// bit-for-bit equal to the best-known design (the record carries the
	// post-deploy self-check), and the rollback sequence digested into the
	// outcome must replay identically.
	if g != nil {
		var dig strings.Builder
		for ri, r := range oc.Rollbacks() {
			if !r.Consistent {
				vio = append(vio, fmt.Sprintf(
					"rollback %d: deployed layout diverged from best-known design (%s -> %s at sim t=%g)",
					ri, r.FromSig, r.ToSig, r.At))
			}
			fmt.Fprintf(&dig, "%s>%s@%.17g;", r.FromSig, r.ToSig, r.At)
		}
		out.RollbackDigest = dig.String()
	}

	out.Design = st.Signature()
	out.Cost = oc.WorkloadCost(st, wl.UniformFreq())
	return out, vio, nil
}

// skewWindowPaceSec is the simulated think-time closing each traffic
// window: monitoring windows occupy a fixed slice of simulated time beyond
// the queries they run. The absolute value matters in skew-faulty — it is
// what carries the clock across the outage's rejoin instant mid-trace, so
// the lazy self-healer (which only acts when the engine does work) gets to
// observe the rejoin and run the catch-up repair with trace windows still
// remaining.
const skewWindowPaceSec = 0.25

// runSkew replays one adversarial trace against the detection and
// mitigation loop — with faulty, crashing a node at the first detection —
// and evaluates the per-run invariants.
func runSkew(scale float64, seed int64, faulty bool) (Outcome, []string, error) {
	var out Outcome
	var vio []string

	dep := advisor.NewDeployment(benchmarks.Celebrity(), advisor.DiskCluster(), scale, seed)
	e, sp, wl := dep.Engine, dep.Space, dep.Bench.Workload
	tr := benchmarks.CelebrityTrace(seed, benchmarks.CelebrityWindows)
	out.TraceDigest, out.Events = tr.Digest(), tr.Events()

	// The natural locality layout a static advisor would pick: orders
	// hash-partitioned by the customer FK — the layout the celebrity melts.
	oi := sp.TableIndex("orders")
	ki := sp.Tables[oi].KeyIndex(partition.Key{"o_c_id"})
	if ki < 0 {
		return out, nil, fmt.Errorf("skew: o_c_id is not a candidate key of orders")
	}
	cur := sp.Apply(sp.InitialState(), partition.Action{Kind: partition.ActPartition, Table: oi, Key: ki})
	e.Deploy(cur, nil)
	e.ResetClock()
	window := exec.Request{Queries: exec.Queries(wl.Graphs(), 0)}

	oc := core.NewOnlineCost(e, wl, nil)
	det := core.NewHotShardDetector()
	size := wl.Size()
	lastMitigation := -1
	armed := false
	for w := 0; w < benchmarks.CelebrityWindows; w++ {
		freq := tr.Mix(w, size)
		// Drive one traffic window directly through the engine (OnlineCost
		// caches per-design measurements, so it would execute nothing after
		// the first window and the detector would see only quiet deltas),
		// then let the window's think-time pass.
		e.Exec(context.Background(), window)
		e.AdvanceClock(skewWindowPaceSec)
		rep, hot := det.Observe(e.ShardHeat())
		if !hot {
			continue
		}
		out.Detections++
		if faulty && !armed {
			// The skew+chaos twist: a node dies the instant the advisor
			// reacts. The detection time is deterministic for a seed, so the
			// schedule — and the whole episode — replays bit for bit. The
			// outage outlasts the online-cost layer's whole retry budget
			// (per crashed query, retries wait at the backoff cap), so the
			// first measurement pass exhausts its retries while the node is
			// away and the candidate deploy that follows lands inside the
			// outage — a catch-up obligation self-healing must repair at
			// rejoin.
			armed = true
			now := e.SimNow()
			outage := float64(len(wl.Queries))*core.MaxRetryWaitSec + 1
			inj, err := faults.New(faults.Config{Crashes: []faults.NodeCrash{
				{Node: e.HW.Nodes - 1, Window: faults.Window{
					Start: now,
					End:   now + outage,
				}},
			}})
			if err != nil {
				return out, nil, fmt.Errorf("skew: fault schedule: %w", err)
			}
			e.SetFaults(inj)
			e.SetSelfHeal(true)
		}
		next, _, improved := core.MitigateHotShard(oc, cur, freq, rep.Table)
		if improved {
			cur = next
			out.Mitigations++
			lastMitigation = w
		}
	}

	// Invariant: the trace is adversarial by construction — the soak is
	// vacuous if the detector never fired or no mitigation engaged.
	if out.Detections == 0 {
		vio = append(vio, "engagement: detector never fired on a celebrity trace")
	}
	if out.Mitigations == 0 {
		vio = append(vio, "engagement: no mitigation adopted on a melting shard")
	}

	// Invariant: post-mitigation heat bound. One fresh measurement window
	// on the adopted layout must keep the hot table's max/mean heat at or
	// below the bound.
	pre := e.ShardHeat()
	if err := e.Exec(context.Background(), exec.Request{Queries: window.Queries[:1]}).Errs[0]; err != nil {
		return out, vio, fmt.Errorf("skew: post-mitigation probe: %w", err)
	}
	out.FinalImbalance = e.ShardHeat().Sub(pre).Imbalance("orders")
	if lastMitigation >= 0 && out.FinalImbalance > heatBound {
		vio = append(vio, fmt.Sprintf("heat bound: post-mitigation imbalance %.3f exceeds %.2f (layout %s)",
			out.FinalImbalance, heatBound, cur.String()))
	}

	// Invariant: cost-accounting conservation, fault or no fault.
	vio = append(vio, conserve(e, oc, &out)...)
	if faulty && out.Repairs == 0 {
		vio = append(vio, "engagement: skew-faulty crashed a node but self-healing never repaired")
	}

	out.HeatDigest = e.ShardHeat().Digest()
	out.Design = cur.Signature()
	return out, vio, nil
}
