package chaos

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"partadvisor/advisor"
	"partadvisor/internal/core"
	"partadvisor/internal/exec"
	"partadvisor/internal/faults"
	"partadvisor/internal/partition"
)

// Config parameterizes a soak run. The zero value is usable: defaults are
// filled in by Run.
type Config struct {
	// Seed derives everything: database content, fault schedules, agent
	// initialization. Identical seeds replay identical soaks.
	Seed int64
	// Episodes is the number of train-and-suggest episodes (default 2).
	// Every episode runs twice (run + replay) for the determinism check.
	Episodes int
	// Scale multiplies the microbenchmark's generated row counts
	// (default 0.2).
	Scale float64
	// EpisodeDeadline is the per-run wall-clock watchdog: a training loop
	// that stops making progress becomes an invariant violation instead of
	// a hang (default 2 minutes).
	EpisodeDeadline time.Duration
	// Logf, when set, receives per-episode progress lines.
	Logf func(format string, args ...any)
	// Guarded arms the core.DefaultGuardConfig safety envelope around each
	// episode's online training and enables two additional invariants:
	// every rollback must leave the deployed layout bit-for-bit equal to
	// the best-known design, and veto/canary/rollback counts must replay
	// identically.
	Guarded bool
	// Stop, when set, is polled between episodes: once true, the soak
	// returns the episodes completed so far (a graceful shutdown, not a
	// violation).
	Stop func() bool
}

func (c Config) withDefaults() Config {
	if c.Episodes <= 0 {
		c.Episodes = 2
	}
	if c.Scale <= 0 {
		c.Scale = 0.2
	}
	if c.EpisodeDeadline <= 0 {
		c.EpisodeDeadline = 2 * time.Minute
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// EpisodeReport is one episode's outcome and its invariant verdicts.
type EpisodeReport struct {
	Episode int
	Seed    int64

	// Schedule composition.
	Crashes    int // crash windows with a rejoin (incl. recurring)
	Permanent  int // crash windows without one (lost forever)
	Partitions int // network-partition windows

	// Engine and training totals (from the first run; the replay must
	// match them bit for bit).
	QueriesExecuted int
	Repartitions    int
	Repairs         int
	BytesMoved      int64
	DeployedBytes   int64
	RepairedBytes   int64
	Retries         int
	FailedQueries   int
	BreakerTrips    int

	// Guard accounting (zero unless Config.Guarded).
	GuardVetoes   int
	CanaryAborts  int
	BudgetDenials int
	Rollbacks     int

	// Suggestion is the design the advisor settled on, Cost its measured
	// workload cost.
	Suggestion string
	Cost       float64

	// Violations holds every invariant breach (empty = episode passed).
	Violations []string
}

// Report is a whole soak run.
type Report struct {
	Episodes []EpisodeReport
}

// Violations flattens every episode's breaches.
func (r *Report) Violations() []string {
	return violations(r.Episodes, func(e EpisodeReport) (int, []string) { return e.Episode, e.Violations })
}

// violations prefixes each episode's breaches with its number.
func violations[E any](episodes []E, of func(E) (episode int, breaches []string)) []string {
	var out []string
	for _, e := range episodes {
		ep, vio := of(e)
		for _, v := range vio {
			out = append(out, fmt.Sprintf("episode %d: %s", ep, v))
		}
	}
	return out
}

// Run executes the soak: cfg.Episodes episodes, each trained twice under
// its derived seed — once to measure, once to check bit-identical replay —
// with the conservation, placement and watchdog invariants evaluated on
// both runs. A non-nil error means the harness itself broke; invariant
// breaches land in the report instead.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	rep := &Report{}
	for ep := 0; ep < cfg.Episodes; ep++ {
		if cfg.Stop != nil && cfg.Stop() {
			cfg.Logf("chaos: stop requested, finishing after %d/%d episodes", ep, cfg.Episodes)
			return rep, nil
		}
		epSeed := cfg.Seed + 7919*int64(ep)
		// Every third episode loses a node forever; the others only see
		// recoverable faults.
		er, err := runEpisode(cfg, ep, epSeed, ep%3 == 2)
		if err != nil {
			return rep, err
		}
		rep.Episodes = append(rep.Episodes, er)
		guardLine := ""
		if cfg.Guarded {
			guardLine = fmt.Sprintf(" vetoes=%d canary=%d budget=%d rollbacks=%d",
				er.GuardVetoes, er.CanaryAborts, er.BudgetDenials, er.Rollbacks)
		}
		cfg.Logf("chaos: episode %d/%d seed=%d crashes=%d permanent=%d partitions=%d repairs=%d repaired=%dB failedq=%d violations=%d%s",
			ep+1, cfg.Episodes, epSeed, er.Crashes, er.Permanent, er.Partitions,
			er.Repairs, er.RepairedBytes, er.FailedQueries, len(er.Violations), guardLine)
	}
	return rep, nil
}

// outcome is the comparable digest of one episode run; the determinism
// invariant is outcome equality between run and replay.
type outcome struct {
	stats            core.OnlineStats
	queries, reparts int
	repairs          int
	moved            int64
	deployed         int64
	repaired         int64
	sig              string
	cost             float64
	probeFails       int
	// crashes, permanent and partitions summarize the generated schedule.
	crashes, permanent, partitions int
	// rollbackDigest concatenates every rollback's (from, to, clock)
	// triple: with Config.Guarded, replay equality of this string is the
	// deterministic-guard invariant (identical rollback decisions at
	// identical simulated instants; the embedded stats cover the veto,
	// canary-abort and budget-denial counts).
	rollbackDigest string
}

func runEpisode(cfg Config, ep int, epSeed int64, permanentLoss bool) (EpisodeReport, error) {
	er := EpisodeReport{Episode: ep, Seed: epSeed}
	out, vio, done, err := replayTwice(func() (outcome, []string, error) {
		return runOnce(cfg, epSeed, permanentLoss)
	}, cfg.EpisodeDeadline, epSeed, "training step")
	er.Violations = vio
	if err != nil || !done {
		return er, err
	}
	er.Crashes, er.Permanent, er.Partitions = out.crashes, out.permanent, out.partitions
	er.QueriesExecuted, er.Repartitions, er.Repairs = out.queries, out.reparts, out.repairs
	er.BytesMoved, er.DeployedBytes, er.RepairedBytes = out.moved, out.deployed, out.repaired
	er.Retries, er.FailedQueries = out.stats.Retries, out.stats.FailedQueries
	er.BreakerTrips = out.stats.BreakerTrips
	er.GuardVetoes, er.CanaryAborts = out.stats.GuardVetoes, out.stats.CanaryAborts
	er.BudgetDenials, er.Rollbacks = out.stats.BudgetDenials, out.stats.Rollbacks
	er.Suggestion, er.Cost = out.sig, out.cost
	return er, nil
}

// replayTwice is the episode loop both soaks share: it runs one seeded
// episode twice — once to measure, once to check bit-identical replay —
// each under a wall-clock watchdog, and returns the first run's outcome
// with the breaches of both runs plus the determinism verdict. done is
// false when the watchdog fired; vio then holds only that breach (stuck
// names what hung), and the runner goroutine is abandoned — it holds no
// external resources, everything is in-memory and per-episode.
func replayTwice[O comparable](run func() (O, []string, error), deadline time.Duration, seed int64, stuck string) (out O, vio []string, done bool, err error) {
	type result struct {
		out O
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
		case <-time.After(deadline):
			return out, []string{fmt.Sprintf("watchdog: %s still going after %v — stuck %s", pass, deadline, stuck)}, false, nil
		}
		if rs[i].err != nil {
			return out, nil, false, rs[i].err
		}
	}
	vio = append(rs[0].vio, rs[1].vio...)
	if rs[0].out != rs[1].out {
		vio = append(vio, fmt.Sprintf("determinism: replay of seed %d diverged:\n  run    %+v\n  replay %+v",
			seed, rs[0].out, rs[1].out))
	}
	return rs[0].out, vio, true, nil
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

// runOnce builds a fresh database + engine, arms a generated fault
// schedule and the self-healing layer, trains the advisor offline and
// online, asks for a design, and evaluates the per-run invariants.
func runOnce(cfg Config, epSeed int64, permanentLoss bool) (outcome, []string, error) {
	var out outcome
	var vio []string

	dep := advisor.NewDeployment(advisor.Micro(), advisor.MemoryCluster(), cfg.Scale, epSeed)
	e, wl := dep.Engine, dep.Bench.Workload

	// Calibrate the schedule's time unit — one fault-free workload pass —
	// before any fault is armed.
	e.Deploy(dep.Space.InitialState(), nil)
	unit := e.Exec(context.Background(), exec.Request{Queries: exec.Queries(wl.Graphs(), 0)}).Seconds
	if unit <= 0 {
		return out, nil, fmt.Errorf("chaos: calibration workload consumed no simulated time")
	}

	rng := rand.New(rand.NewSource(epSeed))
	sched := buildSchedule(rng, e.HW.Nodes, unit, permanentLoss)
	out.crashes, out.permanent, out.partitions = sched.Crashes, sched.Permanent, sched.Partitions
	inj, err := faults.New(sched.cfg)
	if err != nil {
		return out, nil, fmt.Errorf("chaos: generated schedule invalid: %w", err)
	}
	e.SetFaults(inj)
	e.ResetClock()
	e.SetSelfHeal(true)

	var g *core.GuardConfig
	if cfg.Guarded {
		gcfg := core.DefaultGuardConfig()
		// The canary only arms when it is a strict prefix of a pass's cache
		// misses; the microbenchmark has two queries, so K=1.
		gcfg.CanaryQueries = 1
		g = &gcfg
	}
	st, oc, err := soakAdvisor(dep, epSeed, g)
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
			out.probeFails++
		}
		if gotFail != expectFail {
			vio = append(vio, fmt.Sprintf(
				"placement: query %s errored=%v but fragment accessibility says shouldFail=%v",
				q.Name, gotFail, expectFail))
		}
	}

	// Invariant: cost-accounting conservation. Training is done and the
	// engine quiescent, so direct counter reads are single-threaded.
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
	if math.IsNaN(oc.Stats.ExecSeconds) || oc.Stats.ExecSeconds < 0 {
		vio = append(vio, fmt.Sprintf("accounting: ExecSeconds = %v", oc.Stats.ExecSeconds))
	}

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
		out.rollbackDigest = dig.String()
	}

	out.stats = oc.Stats
	out.queries, out.reparts, out.repairs = queries, reparts, repairs
	out.moved, out.deployed, out.repaired = moved, e.DeployedBytes, repaired
	out.sig = st.Signature()
	out.cost = oc.WorkloadCost(st, wl.UniformFreq())
	return out, vio, nil
}

// PermanentLossAdaptation trains the same-seeded advisor twice — once on a
// fault-free cluster, once under a schedule whose only fault is a node
// lost forever early in the online phase — and returns both suggested
// designs' signatures. Calling it twice with the same seed returns the
// identical pair: the adaptation is reproducible, not luck.
func PermanentLossAdaptation(seed int64, scale float64) (faultFree, faulted string, err error) {
	if scale <= 0 {
		scale = 0.2
	}
	suggest := func(lostNode int) (string, error) {
		dep := advisor.NewDeployment(advisor.Micro(), advisor.MemoryCluster(), scale, seed)
		if lostNode >= 0 {
			inj := faults.MustNew(faults.Config{Crashes: []faults.NodeCrash{
				{Node: lostNode, Window: faults.Window{Start: 1e-9, End: math.Inf(1)}},
			}})
			dep.Engine.SetFaults(inj)
			dep.Engine.SetSelfHeal(true)
		}
		st, _, err := soakAdvisor(dep, seed, nil)
		if err != nil {
			return "", err
		}
		return st.Signature(), nil
	}
	if faultFree, err = suggest(-1); err != nil {
		return "", "", err
	}
	if faulted, err = suggest(1); err != nil {
		return "", "", err
	}
	return faultFree, faulted, nil
}
