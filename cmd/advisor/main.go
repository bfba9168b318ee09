// Command advisor trains a learned partitioning advisor for one of the
// built-in benchmark databases and prints the suggested partitioning for a
// workload mix — the end-to-end flow of the paper's Figure 1.
//
// Usage:
//
//	advisor -bench ssb|tpcds|tpcch|micro [-engine disk|memory] [-online]
//	        [-profile repro|paper|test] [-scale F] [-seed N]
//	        [-freq q1=2,q2=0.5] [-save model.bin] [-load model.bin]
//	        [-checkpoint ckpt.bin] [-checkpoint-every N] [-resume]
//	        [-halt-after N] [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// With -freq, the named queries get the given relative frequencies (others
// default to 1); the advisor then suggests the partitioning for that mix.
//
// With -checkpoint, training writes a crash-safe snapshot every
// -checkpoint-every offline episodes (atomic temp-file + rename) plus one
// at the offline/online boundary; -resume restarts a killed run from the
// snapshot and continues bit-identically, refusing a snapshot written for
// another -bench, -engine, -profile or -seed. -halt-after N stops training
// after N total episodes with exit code 3 — a controlled crash point for
// exercising the resume path.
//
// SIGINT/SIGTERM stop gracefully: the in-flight episode completes, a final
// checkpoint is written (when -checkpoint is set and the offline phase is
// running), and the process exits 0; a second signal exits immediately.
//
// With -guard (which needs -online), online refinement runs inside the
// safety envelope of DESIGN.md §8 (design validation, canary measurement,
// automatic rollback, exploration budgets); the -guard-* flags tune it and
// need -guard.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"partadvisor/advisor"
	"partadvisor/internal/benchmarks"
	"partadvisor/internal/core"
	"partadvisor/internal/datagen"
	"partadvisor/internal/exec"
	"partadvisor/internal/hardware"
	"partadvisor/internal/prof"
	"partadvisor/internal/workload"
)

func main() {
	def := core.DefaultGuardConfig()
	var (
		benchName  = flag.String("bench", "ssb", "benchmark: ssb, tpcds, tpcch, tpch or micro")
		engine     = flag.String("engine", "disk", "engine flavor: disk (Postgres-XL-like) or memory (System-X-like)")
		online     = flag.Bool("online", false, "refine online on a sampled database after offline training")
		profile    = flag.String("profile", "repro", "hyperparameter profile: repro, paper or test")
		scale      = flag.Float64("scale", 1, "data scale (1 = repro scale)")
		seed       = flag.Int64("seed", 1, "random seed")
		freqSpec   = flag.String("freq", "", "workload mix, e.g. q1=2,q2=0.5 (unnamed queries get 1)")
		savePath   = flag.String("save", "", "save the trained Q-network to this file")
		loadPath   = flag.String("load", "", "load a Q-network instead of offline training (under the -profile it was saved with: the hidden layers must match)")
		ckptPath   = flag.String("checkpoint", "", "write crash-safe training checkpoints to this file")
		ckptEvery  = flag.Int("checkpoint-every", 10, "offline episodes between checkpoints")
		resume     = flag.Bool("resume", false, "resume training from the -checkpoint file")
		haltAfter  = flag.Int("halt-after", 0, "stop after N total training episodes with exit code 3 (testing)")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")

		guardOn          = flag.Bool("guard", false, "guard online refinement (validation, canary, rollback, budgets)")
		guardCanary      = flag.Int("guard-canary", def.CanaryQueries, "canary queries before a full pass on a new design (0 disables)")
		guardCanaryF     = flag.Float64("guard-canary-factor", def.CanaryRegressionFactor, "abort the pass when the canary exceeds this multiple of the best-known cost")
		guardRollbackF   = flag.Float64("guard-rollback-factor", def.RollbackFactor, "roll back designs regressing past this multiple of the best-known cost (0 disables)")
		guardWindow      = flag.Int("guard-window", def.WindowPasses, "exploration-budget sliding window in measurement passes (0 disables)")
		guardWindowBytes = flag.Int64("guard-window-bytes", def.WindowBytes, "bytes-moved cap per budget window (0 = unlimited)")
		guardWindowDeg   = flag.Float64("guard-window-degraded-sec", def.WindowDegradedSec, "degraded-execution seconds cap per budget window (0 = unlimited)")
		guardMaxBytes    = flag.Int64("guard-max-table-bytes", def.MaxTableBytes, "per-table deployed-footprint ceiling in bytes (0 = unlimited)")
	)
	flag.Parse()
	var set []string
	flag.Visit(func(f *flag.Flag) { set = append(set, f.Name) })
	for _, err := range []error{datagen.CheckScale(*scale), checkGuard(*online, *guardOn, set)} {
		if err != nil {
			fmt.Fprintf(os.Stderr, "advisor: %v\n", err)
			flag.Usage()
			os.Exit(2)
		}
	}
	if stop := prof.StartCPU(*cpuProfile); stop != nil {
		defer stop()
	}
	if *resume && *ckptPath == "" {
		fail("-resume requires -checkpoint")
	}
	if *resume && *loadPath != "" {
		fail("-resume and -load are mutually exclusive")
	}

	b := benchmarks.ByName(*benchName)
	if b == nil {
		fail("unknown benchmark %q (want ssb, tpcds, tpcch, tpch or micro)", *benchName)
	}
	hp := pickProfile(*profile, b.ComplexSchema())
	hw, ok := hardware.ByName(*engine)
	if !ok {
		fail("unknown engine %q (want disk or memory)", *engine)
	}

	fmt.Printf("generating %s at scale %g...\n", b.Name, *scale)
	sess, err := advisor.NewDeployment(b, hw, *scale, *seed).NewSession(hp, *seed)
	if err != nil {
		fail("%v", err)
	}
	adv := sess.Advisor
	run := &trainRun{
		adv:       adv,
		path:      *ckptPath,
		every:     *ckptEvery,
		label:     runLabel(b.Name, *engine, *profile, *seed),
		haltAfter: *haltAfter,
		signaled:  trapSignals("advisor"),
	}
	adv.Stop = run.stop
	if *resume {
		if err := run.resume(); err != nil {
			fail("resume: %v", err)
		}
		fmt.Printf("resumed from %s (%d episodes already trained)\n", *ckptPath, adv.EpisodesTrained)
	}

	if *loadPath != "" {
		blob, err := os.ReadFile(*loadPath)
		if err != nil {
			fail("load: %v", err)
		}
		if err := adv.LoadModel(blob); err != nil {
			fail("load: %v", err)
		}
		adv.InferCost = sess.OfflineCost()
		fmt.Printf("loaded model from %s\n", *loadPath)
	} else {
		fmt.Printf("offline training: %d episodes (network-centric cost model)...\n", hp.Episodes)
		start := time.Now()
		run.offline = true
		err := sess.TrainOffline()
		run.offline = false
		if err != nil {
			run.exitIfStopped(err)
			fail("offline training: %v", err)
		}
		fmt.Printf("offline training done in %s (%d steps)\n", time.Since(start).Round(time.Millisecond), adv.StepsTrained)
		// Boundary checkpoint: resumed runs restart online training from
		// here (the online phase itself is deterministic given this state).
		if run.path != "" {
			run.save()
		}
	}

	if *online {
		fmt.Printf("online refinement: %d episodes on a sampled database...\n", hp.OnlineEpisodes)
		sample := sess.SampleEngine(0.2, 50, *seed+1)
		oc, err := sess.PrepareOnline(sample)
		if err != nil {
			fail("%v", err)
		}
		if *guardOn {
			oc.Guard = &core.GuardConfig{
				MaxTableBytes:          *guardMaxBytes,
				CanaryQueries:          *guardCanary,
				CanaryRegressionFactor: *guardCanaryF,
				RollbackFactor:         *guardRollbackF,
				WindowPasses:           *guardWindow,
				WindowBytes:            *guardWindowBytes,
				WindowDegradedSec:      *guardWindowDeg,
			}
			if err := oc.Validate(); err != nil {
				fail("guard: %v", err)
			}
		}
		start := time.Now()
		if err := sess.RefineOnline(oc); err != nil {
			run.exitIfStopped(err)
			fail("online training: %v", err)
		}
		fmt.Printf("online training done in %s (executed %d queries, %d cache hits, %.3g sim s)\n",
			time.Since(start).Round(time.Millisecond), oc.Stats.QueriesExecuted, oc.Stats.CacheHits, oc.Stats.TotalSeconds())
		if *guardOn {
			fmt.Printf("guard: %d vetoes, %d canary aborts, %d budget denials, %d rollbacks (%.3g sim s), %.3g regressed sim s\n",
				oc.Stats.GuardVetoes, oc.Stats.CanaryAborts, oc.Stats.BudgetDenials,
				oc.Stats.Rollbacks, oc.Stats.RollbackSeconds, oc.Stats.RegressedSeconds)
		}
	}

	if *savePath != "" {
		blob, err := adv.SaveModel()
		if err != nil {
			fail("save: %v", err)
		}
		if err := os.WriteFile(*savePath, blob, 0o644); err != nil {
			fail("save: %v", err)
		}
		fmt.Printf("saved model to %s\n", *savePath)
	}

	freq, err := parseFreq(b.Workload, *freqSpec)
	if err != nil {
		fail("%v", err)
	}
	st, reward, err := adv.Suggest(freq)
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("\nsuggested partitioning (reward %.3f):\n  %s\n", reward, st)
	sess.Engine.Deploy(st, nil)
	total := sess.Engine.Exec(context.Background(), exec.Request{Queries: exec.Queries(b.Workload.Graphs(), 0)}).Seconds
	fmt.Printf("measured workload runtime under this partitioning: %.4g sim s\n", total)
	prof.WriteHeap(*memProfile)
}

func pickProfile(name string, complexSchema bool) core.Hyperparams {
	switch name {
	case "repro":
		return core.Repro(complexSchema)
	case "paper":
		return core.Paper(complexSchema)
	case "test":
		return core.Test()
	}
	fail("unknown profile %q (want repro, paper or test)", name)
	return core.Hyperparams{}
}

// parseFreq parses "q1=2,q2=0.5" into a normalized frequency vector; queries
// not named default to frequency 1.
func parseFreq(wl *workload.Workload, spec string) (workload.FreqVector, error) {
	freq := wl.UniformFreq()
	if spec == "" {
		return freq, nil
	}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad -freq entry %q (want name=value)", part)
		}
		idx := wl.QueryIndex(kv[0])
		if idx < 0 {
			return nil, fmt.Errorf("-freq: no query %q in workload (have %v)", kv[0], queryNames(wl))
		}
		v, err := strconv.ParseFloat(kv[1], 64)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("-freq: bad value %q for %s", kv[1], kv[0])
		}
		freq[idx] = v
	}
	return freq.Normalize(), nil
}

func queryNames(wl *workload.Workload) []string {
	out := make([]string, len(wl.Queries))
	for i, q := range wl.Queries {
		out[i] = q.Name
	}
	return out
}

// trainRun is the CLI's training policy, applied from the advisor's
// per-episode Stop hook: periodic offline snapshots, the -halt-after
// controlled crash and the graceful SIGINT/SIGTERM stop.
type trainRun struct {
	adv       *core.Advisor
	path      string // -checkpoint; empty disables snapshots
	every     int
	label     string
	haltAfter int
	signaled  func() bool
	// offline is set while the offline phase trains. Only it is
	// snapshotted: the online phase's measured-runtime cache lives in the
	// cost function, outside the checkpoint, so a resumed run replays
	// online training from the offline boundary instead.
	offline bool
	halted  bool
}

// runLabel names the run configuration a checkpoint belongs to.
func runLabel(bench, engine, profile string, seed int64) string {
	return fmt.Sprintf("%s/%s/%s/seed%d", bench, engine, profile, seed)
}

// stop is the advisor's Stop hook. In order: snapshot every -checkpoint-every
// offline episodes; halt at -halt-after total episodes without a further
// snapshot, as a crash would; on a signal, snapshot once more if still
// offline and stop.
func (r *trainRun) stop() bool {
	snapshot := r.offline && r.path != ""
	if snapshot && r.every > 0 && r.adv.EpisodesTrained%r.every == 0 {
		r.save()
	}
	if r.haltAfter > 0 && r.adv.EpisodesTrained >= r.haltAfter {
		r.halted = true
		return true
	}
	if !r.signaled() {
		return false
	}
	if snapshot {
		r.save()
	}
	return true
}

// save writes the training state, stamped with the run label, to -checkpoint.
func (r *trainRun) save() {
	ck, err := r.adv.Checkpoint()
	if err == nil {
		ck.Label = r.label
		err = core.WriteCheckpoint(r.path, ck)
	}
	if err != nil {
		fail("checkpoint at episode %d: %v", r.adv.EpisodesTrained, err)
	}
}

// resume restores the -checkpoint snapshot, refusing one written for
// another run configuration.
func (r *trainRun) resume() error {
	ck, err := core.LoadCheckpoint(r.path)
	if err != nil {
		return err
	}
	if ck.Label != "" && ck.Label != r.label {
		return fmt.Errorf("checkpoint label %q does not match run %q", ck.Label, r.label)
	}
	return r.adv.Restore(ck)
}

// exitIfStopped ends the process when the Stop hook cut training short:
// exit code 3 after -halt-after distinguishes "halted as requested, resume
// from the checkpoint" from real failures; a graceful SIGINT/SIGTERM stop
// exits 0.
func (r *trainRun) exitIfStopped(err error) {
	if !errors.Is(err, core.ErrStopped) {
		return
	}
	switch {
	case r.halted:
		fmt.Printf("halted after %d episodes (resume with -resume)\n", r.adv.EpisodesTrained)
		os.Exit(3)
	case r.path != "":
		fmt.Printf("stopped after %d episodes; checkpoint at %s (resume with -resume)\n",
			r.adv.EpisodesTrained, r.path)
	default:
		fmt.Printf("stopped after %d episodes\n", r.adv.EpisodesTrained)
	}
	os.Exit(0)
}

// trapSignals installs the graceful-shutdown handler: the first
// SIGINT/SIGTERM raises the returned stop flag (polled by the training loop
// after each episode), a second one exits immediately.
func trapSignals(name string) func() bool {
	var stopped atomic.Bool
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		stopped.Store(true)
		fmt.Fprintf(os.Stderr, "%s: signal received; finishing the current episode (send again to exit now)\n", name)
		<-ch
		fmt.Fprintf(os.Stderr, "%s: second signal; exiting immediately\n", name)
		os.Exit(1)
	}()
	return stopped.Load
}

// checkGuard rejects guard flags that would be silently ignored: -guard
// without -online, or a -guard-* flag (set names the flags given on the
// command line) without -guard.
func checkGuard(online, guardOn bool, set []string) error {
	if guardOn && !online {
		return fmt.Errorf("-guard requires -online (the guard wraps online refinement)")
	}
	for _, name := range set {
		if !guardOn && strings.HasPrefix(name, "guard-") {
			return fmt.Errorf("-%s requires -guard", name)
		}
	}
	return nil
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "advisor: "+format+"\n", args...)
	os.Exit(1)
}
