package main

import (
	"sync"
	"time"

	"partadvisor/internal/serve"
)

const (
	// steadyRate is the open loop's fixed arrival rate: about half of what
	// the 2-core sizing host sustains, so queues stay short and a shed is
	// a failure.
	steadyRate = 80.0
	// The steady phase takes 55 % and the saturation phase 30 % of the run
	// length; three set-ups take the rest.
	steadyShare, saturationShare = 0.55, 0.30
)

// serveBenches is the tenant mix: two tiny databases and two star schemas.
var serveBenches = []string{"micro", "micro", "ssb", "ssb"}

// runServe drives an in-process advisord over loopback HTTP on fixed
// layouts while its tenants' advising loops run. One operation is one
// POST /tenants/{id}/batch of the steady (open loop) phase, timed from
// its due time; ops_per_s is the closed-loop capacity in batches/s.
func runServe(r *run) error {
	cfg := serve.DefaultConfig()
	cfg.MaxConcurrent = r.clients
	createMS := make(map[string][]float64)
	plans := planTenants(r.seed, serveBenches...)

	f, err := setupFleet(r, &cfg, plans, createMS, true)
	if err != nil {
		return err
	}
	defer f.stop()

	// Queue depth is sampled from the public stats while load runs.
	depthMax, stopPoll := pollQueueDepth(f.srv)

	samples := f.openLoop(r, steadyRate, openLoopCount(steadyRate, phase(r.seconds, steadyShare)))
	var lateMS, execMS, nonexecMS []float64
	for _, s := range samples {
		r.check(s.ok(), "steady batch: %v", s.reply)
		r.opMS = append(r.opMS, s.done.Sub(s.due).Seconds()*1e3)
		lateMS = append(lateMS, lateness(s.due, s.released).Seconds()*1e3)
		if s.ok() {
			execMS = append(execMS, s.resp.WallMS)
			nonexecMS = append(nonexecMS, s.done.Sub(s.sent).Seconds()*1e3-s.resp.WallMS)
		}
	}
	if latenessInvalid(lateMS, steadyRate) {
		r.fail("steady phase invalid: generator ran late (median %.3f ms, gap %.1f ms)", median(lateMS), 1e3/steadyRate)
	}

	replies, elapsed := f.closedLoop(r, r.clients, phase(r.seconds, saturationShare))
	var satMS []float64
	for _, p := range replies {
		if r.check(p.ok(), "saturation batch: %v", p) {
			r.workUnits++
			satMS = append(satMS, p.done.Sub(p.sent).Seconds()*1e3)
		}
	}
	r.workSec = elapsed.Seconds()
	stopPoll()

	st := f.srv.Stats()
	shed := st.ShedQueue + st.ShedPriority
	if shed > 0 {
		r.fail("%d batches shed below every queue bound", shed)
	}
	r.notes["steady_requests"] = len(samples)
	r.notes["steady_rate_per_s"] = steadyRate
	r.notes["saturation_requests"] = len(replies)
	r.notes["saturation_clients"] = r.clients
	r.notes["batch_p50_ms"] = median(r.opMS)
	r.notes["capacity_bps"] = r.workUnits / r.workSec
	r.notes["generator_late_max_ms"] = maxOf(lateMS)
	if r.rec == nil {
		return nil
	}

	r.layer["serve.exec_wall_p50_ms"] = median(execMS)
	r.layer["serve.nonexec_p50_ms"] = median(nonexecMS)
	r.layer["serve.batch_p99_ms"] = percentile(r.opMS, 99)
	r.layer["serve.saturated_p50_ms"] = median(satMS)
	r.layer["serve.queue_depth_max"] = float64(*depthMax)
	r.layer["serve.shed"] = float64(shed)
	r.layer["serve.deadline_misses"] = float64(st.DeadlineMisses)
	r.layer["serve.generator_late_p50_ms"] = median(lateMS)
	r.layer["serve.generator_late_max_ms"] = maxOf(lateMS)
	r.layer["serve.advise_cycles"] = float64(st.AdviseCycles)
	r.layer["serve.advise_paused_cycles"] = float64(st.PausedCycles)
	r.layer["serve.checkpoints_written"] = float64(st.Checkpoints)
	createTenantMetrics(r, createMS, plans)
	return nil
}

// createTenantMetrics reports tenant creation per benchmark, and the sum
// over one fleet: the bootstrap that recovery repeats.
func createTenantMetrics(r *run, createMS map[string][]float64, plans []tenantPlan) {
	fleetMS := 0.0
	for _, p := range plans {
		fleetMS += median(createMS[p.spec.Bench])
	}
	for bench, ms := range createMS {
		r.layer["serve.create_tenant_ms."+bench] = median(ms)
	}
	r.layer["serve.create_fleet_ms"] = fleetMS
}

// pollQueueDepth samples Server.Stats().QueueDepth every 20 ms until
// stop is called, keeping the maximum.
func pollQueueDepth(srv *serve.Server) (depthMax *int, stop func()) {
	depthMax = new(int)
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				*depthMax = max(*depthMax, srv.Stats().QueueDepth)
			}
		}
	}()
	return depthMax, func() {
		close(quit)
		wg.Wait()
	}
}
