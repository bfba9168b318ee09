// Command advisord hosts many independent tenant databases — each with
// its own schema, workload, simulated engine and guarded online advisor —
// behind one HTTP API with admission control, weighted-fair scheduling,
// request deadlines and graceful degradation (DESIGN.md §9).
//
// Usage:
//
//	advisord -state-dir DIR [-addr :8080] [-workers N] [-tenant-queue N]
//	         [-global-queue N] [-advise-ms N] [-checkpoint-every-ms N]
//	         [-drain-sec F] [-preload N] [-bench micro] [-scale F]
//	         [-offline-episodes N]
//
// API (see internal/serve):
//
//	POST   /tenants              create a tenant (JSON TenantSpec)
//	GET    /tenants              list tenants with stats
//	DELETE /tenants/{id}         delete a tenant
//	POST   /tenants/{id}/batch   run a query batch (admission-controlled)
//	GET    /tenants/{id}/stats   per-tenant stats (never shed)
//	GET    /tenants/{id}/explain?query=q1
//	GET    /healthz              liveness + degradation tier (never shed)
//	GET    /readyz               readiness (503 until recovery completes)
//	GET    /statz                global service stats
//
// -state-dir DIR is required: tenant specs persist in an fsync'd
// manifest, advisor state is checkpointed in the background into verified
// generation files (the newest three are kept), and every start recovers
// each tenant from the newest generation that passes integrity
// verification. Startup has one order: the listener comes up (healthz
// answers; request paths answer 503 + Retry-After), the fleet is
// recovered, -preload N tops it up with tenants t1..tN that the manifest
// does not already hold, and then /readyz flips to 200.
//
// SIGINT/SIGTERM shut down gracefully: the listener stops accepting, the
// admission gate closes (new work answers 503), queued and running batches
// drain, every tenant's advising goroutine stops at an episode boundary,
// and each tenant writes a final checkpoint generation, which the next
// start restores. A second signal exits immediately.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"partadvisor/internal/datagen"
	"partadvisor/internal/serve"
)

func main() {
	cfg := serve.DefaultConfig()
	var (
		addr     = flag.String("addr", ":8080", "HTTP listen address")
		drainSec = flag.Float64("drain-sec", 30, "max seconds to drain admitted work at shutdown")
		ckptMS   = flag.Int64("checkpoint-every-ms", cfg.CheckpointEvery.Milliseconds(), "background checkpoint interval (ms)")
		preload  = flag.Int("preload", 0, "create this many tenants (t1..tN) at startup")
		bench    = flag.String("bench", "micro", "benchmark for preloaded tenants")
		scale    = flag.Float64("scale", 0.1, "data scale for preloaded tenants")
		episodes = flag.Int("offline-episodes", 4, "offline bootstrap episodes for preloaded tenants")
		adviseMS = flag.Int64("advise-ms", cfg.AdviseEvery.Milliseconds(), "default per-tenant advising period (ms)")
	)
	flag.StringVar(&cfg.StateDir, "state-dir", "", "durable state directory: tenant manifest and checkpoint generations (required)")
	flag.IntVar(&cfg.MaxConcurrent, "workers", cfg.MaxConcurrent, "worker pool size (global execution semaphore)")
	flag.IntVar(&cfg.MaxTenantQueue, "tenant-queue", cfg.MaxTenantQueue, "per-tenant queue bound")
	flag.IntVar(&cfg.MaxGlobalQueue, "global-queue", cfg.MaxGlobalQueue, "global queue bound")
	flag.Parse()
	usage := func(err error) {
		fmt.Fprintln(os.Stderr, "advisord:", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := checkFlags(cfg.StateDir, *scale, *adviseMS, *ckptMS, *drainSec); err != nil {
		usage(err)
	}
	cfg.CheckpointEvery = time.Duration(*ckptMS) * time.Millisecond
	cfg.AdviseEvery = time.Duration(*adviseMS) * time.Millisecond

	srv, err := serve.NewServer(cfg)
	if err != nil {
		usage(err)
	}
	srv.Start()

	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Printf("advisord: listening on %s (%d workers, queue %d)\n", *addr, cfg.MaxConcurrent, cfg.MaxGlobalQueue)

	// The listener is already up (healthz live, request paths 503 +
	// Retry-After), so recovery time is visible to probes instead of
	// looking like a dead host. Recover the fleet, top up with preload,
	// then open the gates.
	recovered, err := srv.Recover()
	if err != nil {
		fmt.Fprintln(os.Stderr, "advisord: recover:", err)
		os.Exit(2)
	}
	for _, tr := range recovered.Tenants {
		switch {
		case tr.Err != "":
			fmt.Fprintf(os.Stderr, "advisord: recovery: tenant %s FAILED: %s\n", tr.ID, tr.Err)
		case tr.FreshBootstrap:
			fmt.Printf("advisord: recovery: tenant %s fresh bootstrap — no verified checkpoint (found %d, corrupt %d, %.0fms)\n",
				tr.ID, tr.Generations, tr.CorruptSkipped, tr.DurationSec*1000)
		default:
			fmt.Printf("advisord: recovery: tenant %s restored generation %d (found %d, corrupt %d, %.0fms)\n",
				tr.ID, tr.RestoredGen, tr.Generations, tr.CorruptSkipped, tr.DurationSec*1000)
		}
	}
	for i := 1; i <= *preload; i++ {
		id := fmt.Sprintf("t%d", i)
		if _, exists := srv.Tenant(id); exists {
			continue // recovered from the manifest
		}
		spec := serve.TenantSpec{
			ID:              id,
			Bench:           *bench,
			Scale:           *scale,
			Seed:            int64(i),
			OfflineEpisodes: *episodes,
		}
		start := time.Now()
		if _, err := srv.CreateTenant(spec); err != nil {
			fmt.Fprintln(os.Stderr, "advisord: preload:", err)
			os.Exit(2)
		}
		fmt.Printf("advisord: tenant %s ready (%s %g, bootstrap %.0fms)\n",
			spec.ID, spec.Bench, spec.Scale, time.Since(start).Seconds()*1000)
	}
	srv.MarkReady()
	fmt.Printf("advisord: ready (%d tenants, recovery %.0fms)\n",
		len(srv.TenantList()), recovered.DurationSec*1000)

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "advisord: listener:", err)
		os.Exit(1)
	case s := <-sig:
		fmt.Printf("advisord: %v: draining\n", s)
	}
	go func() { // second signal: give up on graceful
		<-sig
		fmt.Fprintln(os.Stderr, "advisord: forced exit")
		os.Exit(1)
	}()

	// Shutdown ordering: stop accepting first (listener), then close the
	// admission gate and drain the scheduler, then write the final
	// generations.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*drainSec*float64(time.Second)))
	defer cancel()
	srv.BeginDrain()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "advisord: http shutdown:", err)
	}
	rep, err := srv.Shutdown(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "advisord: shutdown:", err)
	}
	st := srv.Stats()
	fmt.Printf("advisord: drained=%v served=%d shed=%d deadline_misses=%d\n",
		rep.Drained, st.Served, st.ShedQueue+st.ShedPriority, st.DeadlineMisses)
	for _, path := range rep.Checkpoints {
		fmt.Printf("advisord: checkpoint %s\n", path)
	}
	fmt.Println("advisord: shutdown complete")
	if err != nil || !rep.Drained {
		os.Exit(1)
	}
}

// maxIntervalMS bounds every interval flag: one hour, the bound
// serve.Config.Validate puts on AdviseEvery.
const maxIntervalMS = serve.MaxAdviseEveryMS

// checkFlags rejects flags advisord cannot run with. The intervals are
// checked on the flag values, before any time.Duration is formed from
// them: past the bound the conversion wraps, to a checkpoint interval of
// microseconds or a drain deadline that has already passed.
func checkFlags(stateDir string, scale float64, adviseMS, ckptMS int64, drainSec float64) error {
	if stateDir == "" {
		return errors.New("-state-dir is required")
	}
	if err := datagen.CheckScale(scale); err != nil {
		return err
	}
	for _, f := range []struct {
		name string
		ms   int64
	}{{"-advise-ms", adviseMS}, {"-checkpoint-every-ms", ckptMS}} {
		if f.ms <= 0 || f.ms > maxIntervalMS {
			return fmt.Errorf("%s %d outside (0, %d]", f.name, f.ms, maxIntervalMS)
		}
	}
	if !(drainSec > 0 && drainSec <= maxIntervalMS/1000) { // also rejects NaN
		return fmt.Errorf("-drain-sec %g outside (0, %d]", drainSec, maxIntervalMS/1000)
	}
	return nil
}
