// Command expdriver regenerates the paper's evaluation: every table and
// figure of §7, printed as text tables with the same rows/series the paper
// reports.
//
// Usage:
//
//	expdriver [-exp <id>] [-profile repro|paper|test] [-scale F] [-seed N] [-list]
//	          [-chaos] [-chaos-episodes N] [-guard]
//	          [-skew] [-skew-faulty]
//	          [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// Run "expdriver -list" for the experiment ids. Without -exp, all
// experiments run (minutes at the default repro profile). With -chaos, the
// driver runs the chaos soak harness instead of the paper experiments and
// exits non-zero on any invariant violation; -guard arms the online guard
// inside the soak, adding the rollback-consistency and guarded-replay
// invariants. With -skew, the driver runs the hot-shard skew soak (seeded
// adversarial traffic against the detection/mitigation loop); -skew-faulty
// additionally crashes a node at detection time with self-healing armed.
//
// SIGINT/SIGTERM stop the driver gracefully: the in-flight experiment or
// chaos episode finishes, partial results are printed, and the process
// exits 0. A second signal exits immediately.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"partadvisor/internal/chaos"
	"partadvisor/internal/experiments"
	"partadvisor/internal/prof"
)

func main() {
	var (
		exp        = flag.String("exp", "", "experiment id (empty = all); see -list")
		profile    = flag.String("profile", "repro", "hyperparameter profile: repro, paper or test")
		scale      = flag.Float64("scale", 0, "data scale override (default: profile's)")
		seed       = flag.Int64("seed", 0, "seed override (default: profile's)")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		chaosRun   = flag.Bool("chaos", false, "run the chaos soak harness instead of experiments")
		chaosEps   = flag.Int("chaos-episodes", 3, "chaos soak episodes (with -chaos or -skew)")
		guarded    = flag.Bool("guard", false, "arm the online guard in the chaos soak (with -chaos)")
		skewRun    = flag.Bool("skew", false, "run the hot-shard skew soak instead of experiments")
		skewFaulty = flag.Bool("skew-faulty", false, "compose the skew soak with a crash/rejoin fault (with -skew)")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	)
	flag.Parse()
	// 0 means "the profile's scale"; anything else must be a usable scale.
	if *scale < 0 || math.IsNaN(*scale) || math.IsInf(*scale, 1) {
		fmt.Fprintf(os.Stderr, "expdriver: -scale must be a positive number (or 0 for the profile's), got %g\n", *scale)
		flag.Usage()
		os.Exit(2)
	}
	if stop := prof.StartCPU(*cpuProfile); stop != nil {
		defer stop()
	}

	if *list {
		fmt.Println(strings.Join(experiments.IDs(), "\n"))
		return
	}

	stop := trapSignals("expdriver")

	if *chaosRun {
		cfg := chaos.Config{Episodes: *chaosEps, Seed: 1, Guarded: *guarded, Stop: stop,
			Logf: func(format string, args ...any) {
				fmt.Printf(format+"\n", args...)
			}}
		if *seed != 0 {
			cfg.Seed = *seed
		}
		if *scale > 0 {
			cfg.Scale = *scale
		}
		start := time.Now()
		rep, err := chaos.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "expdriver: chaos harness: %v\n", err)
			os.Exit(1)
		}
		if vio := rep.Violations(); len(vio) > 0 {
			for _, v := range vio {
				fmt.Fprintf(os.Stderr, "INVARIANT VIOLATION: %s\n", v)
			}
			os.Exit(1)
		}
		mode := ""
		if *guarded {
			mode = " (guarded)"
		}
		fmt.Printf("chaos soak%s passed: %d episodes, 0 violations, %s (seed %d)\n",
			mode, len(rep.Episodes), time.Since(start).Round(time.Millisecond), cfg.Seed)
		return
	}

	if *skewRun {
		cfg := chaos.SkewConfig{Episodes: *chaosEps, Seed: 1, Faulty: *skewFaulty, Stop: stop,
			Logf: func(format string, args ...any) {
				fmt.Printf(format+"\n", args...)
			}}
		if *seed != 0 {
			cfg.Seed = *seed
		}
		if *scale > 0 {
			cfg.Scale = *scale
		}
		start := time.Now()
		rep, err := chaos.RunSkew(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "expdriver: skew harness: %v\n", err)
			os.Exit(1)
		}
		if vio := rep.Violations(); len(vio) > 0 {
			for _, v := range vio {
				fmt.Fprintf(os.Stderr, "INVARIANT VIOLATION: %s\n", v)
			}
			os.Exit(1)
		}
		mode := ""
		if *skewFaulty {
			mode = " (faulty)"
		}
		fmt.Printf("skew soak%s passed: %d episodes, 0 violations, %s (seed %d)\n",
			mode, len(rep.Episodes), time.Since(start).Round(time.Millisecond), cfg.Seed)
		return
	}

	var cfg experiments.Config
	switch *profile {
	case "repro":
		cfg = experiments.ReproConfig()
	case "paper":
		cfg = experiments.PaperConfig()
	case "test":
		cfg = experiments.TestConfig()
	default:
		fmt.Fprintf(os.Stderr, "unknown profile %q (want repro, paper or test)\n", *profile)
		os.Exit(2)
	}
	if *scale > 0 {
		cfg.Scale = *scale
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	cfg.Stop = stop

	start := time.Now()
	var (
		results []*experiments.Result
		err     error
	)
	if *exp == "" {
		results, err = experiments.RunAll(cfg)
	} else {
		results, err = experiments.Run(*exp, cfg)
	}
	for _, r := range results {
		fmt.Println(r.Render())
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "expdriver: %v\n", err)
		os.Exit(1)
	}
	if stop() {
		fmt.Printf("stopped after %d experiments in %s (profile %s, scale %g, seed %d)\n",
			len(results), time.Since(start).Round(time.Millisecond), *profile, cfg.Scale, cfg.Seed)
		return
	}
	fmt.Printf("done in %s (profile %s, scale %g, seed %d)\n", time.Since(start).Round(time.Millisecond), *profile, cfg.Scale, cfg.Seed)
	prof.WriteHeap(*memProfile)
}

// trapSignals arms graceful shutdown: the first SIGINT/SIGTERM flips the
// returned flag (polled between experiments and chaos episodes) so in-flight
// work finishes and partial results print; a second signal exits immediately.
func trapSignals(name string) func() bool {
	var stopped atomic.Bool
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ch
		stopped.Store(true)
		fmt.Fprintf(os.Stderr, "%s: signal received; finishing in-flight work (send again to exit now)\n", name)
		<-ch
		fmt.Fprintf(os.Stderr, "%s: second signal; exiting immediately\n", name)
		os.Exit(1)
	}()
	return stopped.Load
}
