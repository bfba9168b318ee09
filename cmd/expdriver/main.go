// Command expdriver regenerates the paper's evaluation: every table and
// figure of §7, printed as text tables with the same rows/series the paper
// reports.
//
// Usage:
//
//	expdriver [-exp <id>] [-profile repro|paper|test] [-scale F] [-seed N] [-list]
//	          [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	expdriver -soak faults|guarded|skew|skew-faulty [-soak-episodes N] [-scale F] [-seed N]
//
// Run "expdriver -list" for the experiment ids; an id it does not list is
// a usage error (exit 2). Without -exp, every experiment but ablations
// runs (minutes at the default repro profile): ablations reports training
// wall time, which would keep the full run's output from repeating byte
// for byte, so it runs only as "-exp ablations". With -soak, the
// driver runs one regime of the seeded soak harness (internal/chaos)
// instead of the paper experiments and exits 1 on any invariant violation.
// An unknown regime, -soak-episodes below 1, or -exp, -profile or -list
// alongside -soak is a usage error (exit 2).
//
// SIGINT/SIGTERM stop the driver gracefully: the in-flight experiment or
// soak episode finishes, partial results are printed, and the process
// exits 0. A second signal exits immediately.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"partadvisor/internal/chaos"
	"partadvisor/internal/datagen"
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
		soak       = flag.String("soak", "", "run a soak regime instead of the experiments: faults, guarded, skew or skew-faulty")
		soakEps    = flag.Int("soak-episodes", 3, "soak episodes (with -soak)")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	)
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := checkFlags(*exp, *scale, *soak, *soakEps, set); err != nil {
		fmt.Fprintf(os.Stderr, "expdriver: %v\n", err)
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

	if set["soak"] {
		cfg := chaos.Config{Regime: chaos.Regime(*soak), Seed: 1, Episodes: *soakEps, Scale: *scale, Stop: stop,
			Logf: func(format string, args ...any) {
				fmt.Printf(format+"\n", args...)
			}}
		if *seed != 0 {
			cfg.Seed = *seed
		}
		start := time.Now()
		rep, err := chaos.Run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "expdriver: soak harness: %v\n", err)
			os.Exit(1)
		}
		if vio := rep.Violations(); len(vio) > 0 {
			for _, v := range vio {
				fmt.Fprintf(os.Stderr, "INVARIANT VIOLATION: %s\n", v)
			}
			os.Exit(1)
		}
		fmt.Printf("%s soak passed: %d episodes, 0 violations, %s (seed %d)\n",
			cfg.Regime, len(rep.Episodes), time.Since(start).Round(time.Millisecond), cfg.Seed)
		prof.WriteHeap(*memProfile)
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

// checkFlags rejects what the driver would otherwise run with a flag
// silently ignored or defaulted.
func checkFlags(exp string, scale float64, soak string, soakEps int, set map[string]bool) error {
	if exp != "" && !slices.Contains(experiments.IDs(), exp) {
		return fmt.Errorf("-exp: unknown experiment %q (see -list)", exp)
	}
	// 0 means "the profile's scale"; anything else must be a usable scale.
	if scale != 0 {
		if err := datagen.CheckScale(scale); err != nil {
			return fmt.Errorf("-scale: %w (or 0 for the profile's)", err)
		}
	}
	if !set["soak"] {
		if set["soak-episodes"] {
			return fmt.Errorf("-soak-episodes requires -soak")
		}
		return nil
	}
	if _, err := chaos.ParseRegime(soak); err != nil {
		return err
	}
	if soakEps < 1 {
		return fmt.Errorf("-soak-episodes must be at least 1, got %d", soakEps)
	}
	for _, name := range []string{"exp", "profile", "list"} {
		if set[name] {
			return fmt.Errorf("-%s does not apply to -soak", name)
		}
	}
	return nil
}

// trapSignals arms graceful shutdown: the first SIGINT/SIGTERM flips the
// returned flag (polled between experiments and soak episodes) so in-flight
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
