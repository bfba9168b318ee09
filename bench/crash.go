package main

import (
	"fmt"
	"time"

	"partadvisor/internal/serve"
)

const (
	// crashCycleSeconds is what one cycle takes on the sizing host: the
	// traffic below, about one second of Recover, and a batch per tenant.
	crashCycleSeconds = 2.8
	// crashTraffic is how long one closed-loop client drives the fleet
	// before each halt: several 200 ms advising cycles and at least two
	// 500 ms checkpoint intervals per tenant.
	crashTraffic = 1200 * time.Millisecond
)

// crashBenches is the recovered fleet: small and large schemas, so the
// per-tenant bootstrap that recovery repeats differs by an order of
// magnitude across tenants.
var crashBenches = []string{"micro", "micro", "ssb", "ssb", "tpcch", "tpch"}

// runCrash halts a six-tenant server under traffic and recovers it from
// its state directory, repeatedly. One operation is one Server.Recover();
// a work unit is one recovered tenant.
func runCrash(r *run) error {
	cfg := serve.DefaultConfig()
	cfg.MaxConcurrent = r.clients
	cfg.CheckpointEvery = 500 * time.Millisecond
	cfg.AdviseEvery = 200 * time.Millisecond
	createMS := make(map[string][]float64)
	plans := planTenants(r.seed, crashBenches...)

	f, err := setupFleet(r, &cfg, plans, createMS, false)
	if err != nil {
		return err
	}
	// f is replaced every cycle (nil between halt and recovery); stop
	// whichever fleet is running at return.
	defer func() {
		if f != nil {
			f.stop()
		}
	}()

	cycles := max(3, int(float64(r.seconds)/crashCycleSeconds))
	lastGen := make(map[string]int64)
	var haltMS []float64
	checkpoints := int64(0)
	for c := 0; c < cycles; c++ {
		root := r.rec.begin("crash.cycle", noSpan, c)
		id := r.rec.begin("serve.traffic", root, c)
		replies, _ := f.closedLoop(r, 1, crashTraffic)
		r.rec.end(id)
		for _, p := range replies {
			r.check(p.ok(), "cycle %d traffic batch: %v", c, p)
		}
		checkpoints += f.srv.Stats().Checkpoints

		// The crash: no drain, no final checkpoint. What survives is what
		// the background checkpointer had made durable.
		f.closeListener()
		id = r.rec.begin("serve.halt", root, c)
		start := time.Now()
		f.srv.Halt()
		haltMS = append(haltMS, time.Since(start).Seconds()*1e3)
		r.rec.end(id)
		f = nil

		srv, err := serve.NewServer(cfg)
		if err != nil {
			return fmt.Errorf("cycle %d: reopen state directory: %w", c, err)
		}
		id = r.rec.begin("serve.recover", root, c)
		start = time.Now()
		rep, err := srv.Recover()
		took := time.Since(start)
		r.rec.end(id)
		if err != nil {
			srv.Halt()
			return fmt.Errorf("cycle %d: Recover: %w", c, err)
		}
		r.opMS = append(r.opMS, took.Seconds()*1e3)
		r.workSec += took.Seconds()
		r.workUnits += float64(len(rep.Tenants))

		r.check(len(rep.Tenants) == len(plans), "cycle %d: %d tenants recovered, want %d", c, len(rep.Tenants), len(plans))
		for _, tr := range rep.Tenants {
			prev, seen := lastGen[tr.ID]
			ok := tr.Err == "" && tr.RestoredGen >= 0 && !tr.FreshBootstrap && (!seen || tr.RestoredGen >= prev)
			r.check(ok, "cycle %d tenant %s: restored generation %d (previous %d), fresh=%v, err=%q",
				c, tr.ID, tr.RestoredGen, prev, tr.FreshBootstrap, tr.Err)
			lastGen[tr.ID] = tr.RestoredGen
		}
		srv.MarkReady()
		srv.Start()
		if f, err = listen(r, srv, plans); err != nil {
			srv.Halt()
			return err
		}
		id = r.rec.begin("serve.first_batches", root, c)
		for t := range plans {
			p := f.post(t, id, c)
			r.check(p.ok(), "cycle %d first batch of %s after recovery: %v", c, plans[t].spec.ID, p)
		}
		r.rec.end(id)
		r.rec.end(root)
	}
	r.notes["cycles"] = cycles
	r.notes["tenants"] = len(plans)
	r.notes["recover_s"] = median(r.opMS) / 1e3
	if r.rec == nil {
		return nil
	}

	r.layer["serve.recover_ms"] = median(r.opMS)
	r.layer["serve.recover_per_tenant_ms"] = median(r.opMS) / float64(len(plans))
	r.layer["serve.halt_ms"] = median(haltMS)
	r.layer["serve.checkpoints_written"] = float64(checkpoints)
	createTenantMetrics(r, createMS, plans)
	return nil
}
