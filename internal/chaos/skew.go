package chaos

import (
	"context"
	"fmt"
	"math"
	"time"

	"partadvisor/advisor"
	"partadvisor/internal/benchmarks"
	"partadvisor/internal/core"
	"partadvisor/internal/exec"
	"partadvisor/internal/faults"
	"partadvisor/internal/partition"
)

// SkewConfig parameterizes the skew soak: adversarial traffic (Zipf-skewed
// keys plus a flash-crowd spike) replayed window by window against the
// hot-shard detection and mitigation loop, optionally composed with a
// crash/rejoin fault. The zero value is usable; Run fills in defaults.
type SkewConfig struct {
	// Seed derives the trace, the database and the fault window. Identical
	// seeds replay identical soaks.
	Seed int64
	// Episodes is the number of soak episodes (default 2). Every episode
	// runs twice (run + replay) for the determinism check.
	Episodes int
	// Scale multiplies the celebrity benchmark's generated row counts
	// (default 1 — the benchmark is small).
	Scale float64
	// Windows is the trace length per episode (default
	// benchmarks.CelebrityWindows).
	Windows int
	// HeatBound is the post-mitigation invariant: once a mitigation has
	// been adopted, a full measurement window's max/mean heat for the hot
	// table must stay at or below this bound (default 2, the detector's
	// default threshold).
	HeatBound float64
	// Faulty additionally crashes a node (with rejoin and self-healing
	// armed) at the exact moment the detector first fires — the unified
	// skew+chaos mode: the advisor reacts to the melting shard while a
	// node is away, so its mitigation deploys owe that node a catch-up
	// repair on rejoin. The conservation and determinism invariants must
	// hold through the repair traffic.
	Faulty bool
	// EpisodeDeadline is the per-run wall-clock watchdog (default 2
	// minutes).
	EpisodeDeadline time.Duration
	// Logf, when set, receives per-episode progress lines.
	Logf func(format string, args ...any)
	// Stop, when set, is polled between episodes: once true, the soak
	// returns the episodes completed so far.
	Stop func() bool
}

func (c SkewConfig) withDefaults() SkewConfig {
	if c.Episodes <= 0 {
		c.Episodes = 2
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Windows <= 0 {
		c.Windows = benchmarks.CelebrityWindows
	}
	if c.HeatBound <= 1 {
		c.HeatBound = 2
	}
	if c.EpisodeDeadline <= 0 {
		c.EpisodeDeadline = 2 * time.Minute
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// SkewEpisode is one skew-soak episode's outcome and invariant verdicts.
type SkewEpisode struct {
	Episode int
	Seed    int64

	// TraceDigest identifies the adversarial trace; Events its total event
	// count.
	TraceDigest uint64
	Events      int

	// Detections counts hot-shard reports, Mitigations the adopted layout
	// changes. HeatDigest folds the engine's final cumulative heat counters.
	Detections  int
	Mitigations int
	HeatDigest  uint64

	// Final layout and its post-mitigation measurement-window imbalance.
	Layout         string
	FinalImbalance float64

	// Engine totals from the first run (the replay must match bit for bit).
	QueriesExecuted int
	Repartitions    int
	Repairs         int
	BytesMoved      int64
	DeployedBytes   int64
	RepairedBytes   int64

	// Violations holds every invariant breach (empty = episode passed).
	Violations []string
}

// SkewReport is a whole skew soak.
type SkewReport struct {
	Episodes []SkewEpisode
}

// Violations flattens every episode's breaches.
func (r *SkewReport) Violations() []string {
	return violations(r.Episodes, func(e SkewEpisode) (int, []string) { return e.Episode, e.Violations })
}

// RunSkew executes the skew soak: cfg.Episodes episodes of adversarial
// traffic, each run twice under its derived seed — once to measure, once to
// check bit-identical replay — with the mitigation-engagement, heat-bound,
// conservation and watchdog invariants evaluated on both runs. A non-nil
// error means the harness itself broke; invariant breaches land in the
// report.
func RunSkew(cfg SkewConfig) (*SkewReport, error) {
	cfg = cfg.withDefaults()
	rep := &SkewReport{}
	for ep := 0; ep < cfg.Episodes; ep++ {
		if cfg.Stop != nil && cfg.Stop() {
			cfg.Logf("skew: stop requested, finishing after %d/%d episodes", ep, cfg.Episodes)
			return rep, nil
		}
		epSeed := cfg.Seed + 7919*int64(ep)
		er, err := runSkewEpisode(cfg, ep, epSeed)
		if err != nil {
			return rep, err
		}
		rep.Episodes = append(rep.Episodes, er)
		cfg.Logf("skew: episode %d/%d seed=%d events=%d detections=%d mitigations=%d repairs=%d final-imbalance=%.2f violations=%d",
			ep+1, cfg.Episodes, epSeed, er.Events, er.Detections, er.Mitigations,
			er.Repairs, er.FinalImbalance, len(er.Violations))
	}
	return rep, nil
}

// skewOutcome is the comparable digest of one episode run; the determinism
// invariant is outcome equality between run and replay.
type skewOutcome struct {
	traceDigest uint64
	heatDigest  uint64
	detections  int
	mitigations int
	layout      string
	finalIm     float64
	stats       core.OnlineStats
	queries     int
	reparts     int
	repairs     int
	moved       int64
	deployed    int64
	repaired    int64
}

func runSkewEpisode(cfg SkewConfig, ep int, epSeed int64) (SkewEpisode, error) {
	er := SkewEpisode{Episode: ep, Seed: epSeed}
	out, vio, done, err := replayTwice(func() (skewOutcome, []string, error) {
		return runSkewOnce(cfg, epSeed)
	}, cfg.EpisodeDeadline, epSeed, "mitigation loop")
	er.Violations = vio
	if err != nil || !done {
		return er, err
	}
	er.TraceDigest, er.HeatDigest = out.traceDigest, out.heatDigest
	er.Detections, er.Mitigations = out.detections, out.mitigations
	er.Layout, er.FinalImbalance = out.layout, out.finalIm
	er.QueriesExecuted, er.Repartitions, er.Repairs = out.queries, out.reparts, out.repairs
	er.BytesMoved, er.DeployedBytes, er.RepairedBytes = out.moved, out.deployed, out.repaired
	tr := benchmarks.CelebrityTrace(epSeed, cfg.Windows)
	er.Events = tr.Events()
	return er, nil
}

// skewWindowPaceSec is the simulated think-time closing each traffic
// window: monitoring windows occupy a fixed slice of simulated time beyond
// the queries they run. The absolute value matters in faulty mode — it is
// what carries the clock across the outage's rejoin instant mid-trace, so
// the lazy self-healer (which only acts when the engine does work) gets to
// observe the rejoin and run the catch-up repair with trace windows still
// remaining.
const skewWindowPaceSec = 0.25

// runSkewOnce replays one adversarial trace against the detection and
// mitigation loop and evaluates the per-run invariants.
func runSkewOnce(cfg SkewConfig, epSeed int64) (skewOutcome, []string, error) {
	var out skewOutcome
	var vio []string

	dep := advisor.NewDeployment(benchmarks.Celebrity(), advisor.DiskCluster(), cfg.Scale, epSeed)
	e, sp, wl := dep.Engine, dep.Space, dep.Bench.Workload
	tr := benchmarks.CelebrityTrace(epSeed, cfg.Windows)
	out.traceDigest = tr.Digest()

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
	det := core.NewHotShardDetector(core.HotShardConfig{})
	size := len(wl.UniformFreq())
	lastMitigation := -1
	armed := false
	for w := 0; w < cfg.Windows; w++ {
		freq := tr.Mix(w, size)
		zero := true
		for _, v := range freq {
			if v != 0 {
				zero = false
				break
			}
		}
		if zero {
			freq = wl.UniformFreq()
		}
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
		out.detections++
		if cfg.Faulty && !armed {
			// The unified skew+chaos twist: a node dies the instant the
			// advisor reacts. The detection time is deterministic for a
			// seed, so the schedule — and the whole episode — replays bit
			// for bit. The outage outlasts the online-cost layer's whole
			// retry budget (per crashed query, retries wait at the backoff
			// cap), so the first measurement pass exhausts its retries while
			// the node is away and the candidate deploy that follows lands
			// inside the outage — a catch-up obligation self-healing must
			// repair at rejoin.
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
			out.mitigations++
			lastMitigation = w
		}
	}

	// Invariant: the trace is adversarial by construction — the soak is
	// vacuous if the detector never fired or no mitigation engaged.
	if out.detections == 0 {
		vio = append(vio, "engagement: detector never fired on a celebrity trace")
	}
	if out.mitigations == 0 {
		vio = append(vio, "engagement: no mitigation adopted on a melting shard")
	}

	// Invariant: post-mitigation heat bound. One fresh measurement window
	// on the adopted layout must keep the hot table's max/mean heat at or
	// below the bound.
	pre := e.ShardHeat()
	if err := e.Exec(context.Background(), exec.Request{Queries: window.Queries[:1]}).Errs[0]; err != nil {
		return out, vio, fmt.Errorf("skew: post-mitigation probe: %w", err)
	}
	out.finalIm = e.ShardHeat().Sub(pre).Imbalance("orders")
	if lastMitigation >= 0 && out.finalIm > cfg.HeatBound {
		vio = append(vio, fmt.Sprintf("heat bound: post-mitigation imbalance %.3f exceeds %.2f (layout %s)",
			out.finalIm, cfg.HeatBound, cur.String()))
	}

	// Invariant: cost-accounting conservation, fault or no fault.
	queries, reparts, moved := e.Counters()
	repairs, repaired := e.RepairStats()
	if moved != e.DeployedBytes+repaired {
		vio = append(vio, fmt.Sprintf("conservation: BytesMoved %d != DeployedBytes %d + RepairedBytes %d",
			moved, e.DeployedBytes, repaired))
	}
	if math.IsNaN(oc.Stats.ExecSeconds) || oc.Stats.ExecSeconds < 0 {
		vio = append(vio, fmt.Sprintf("accounting: ExecSeconds = %v", oc.Stats.ExecSeconds))
	}
	if cfg.Faulty && repairs == 0 {
		vio = append(vio, "engagement: faulty mode crashed a node but self-healing never repaired")
	}

	out.heatDigest = e.ShardHeat().Digest()
	out.layout = cur.Signature()
	out.stats = oc.Stats
	out.queries, out.reparts, out.repairs = queries, reparts, repairs
	out.moved, out.deployed, out.repaired = moved, e.DeployedBytes, repaired
	return out, vio, nil
}
