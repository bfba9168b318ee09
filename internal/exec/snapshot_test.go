package exec

import (
	"context"
	"runtime"
	"testing"
	"time"

	"partadvisor/internal/faults"
	"partadvisor/internal/hardware"
)

// snapshotFaultCfg arms every fault class at once (crash, straggler,
// transient failures) so the worker-count sweeps below exercise the full
// faulted execution path, not just the happy path.
func snapshotFaultCfg() faults.Config {
	return faults.Config{
		Seed:                 23,
		TransientFailureRate: 0.25,
		Crashes:              []faults.NodeCrash{{Node: 3, Window: faults.Window{Start: 0, End: 1e9}}},
		Stragglers: []faults.Straggler{
			{Node: 0, Factor: 3, Window: faults.Window{Start: 0, End: 1e9}},
		},
	}
}

// TestBatchBitIdenticalAcrossWorkerCounts sweeps workers ∈ {1, 2, NumCPU}
// with a fully armed fault schedule and asserts the entire BatchReport —
// every per-position report, every error, and all totals — is bit-identical
// to the single-worker run. This pins the snapshot-execution refactor to
// the determinism contract: per-worker arenas and lock-free snapshot reads
// must not leak into results.
func TestBatchBitIdenticalAcrossWorkerCounts(t *testing.T) {
	data := engData(50, 400, 1200, 1)
	gs := batchGraphs(t)

	run := func(workers int) (BatchReport, []string) {
		e := New(engSchema(), data, hardware.PostgresXLDisk(), Disk)
		e.SetFaults(faults.MustNew(snapshotFaultCfg()))
		rep := e.Exec(context.Background(), Request{Queries: Queries(gs, 0), Workers: workers})
		errs := make([]string, len(rep.Errs))
		for i, err := range rep.Errs {
			if err != nil {
				errs[i] = err.Error()
			}
		}
		return rep, errs
	}

	base, baseErrs := run(1)
	sawErr := false
	for _, s := range baseErrs {
		if s != "" {
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatal("armed schedule produced no failures; sweep would not exercise the fault path")
	}

	for _, workers := range []int{2, runtime.NumCPU()} {
		rep, errs := run(workers)
		if rep.Seconds != base.Seconds || rep.Aborts != base.Aborts ||
			rep.DegradedSeconds != base.DegradedSeconds || rep.Completed != base.Completed {
			t.Fatalf("workers=%d totals diverge: %+v vs %+v", workers, rep, base)
		}
		for i := range gs {
			if rep.Reports[i] != base.Reports[i] {
				t.Fatalf("workers=%d query %d report diverges: %+v vs %+v",
					workers, i, rep.Reports[i], base.Reports[i])
			}
			if errs[i] != baseErrs[i] {
				t.Fatalf("workers=%d query %d error diverges: %q vs %q", workers, i, errs[i], baseErrs[i])
			}
		}
	}
}

// TestBatchAbortBitIdenticalAcrossWorkerCounts fires an abort mid-batch
// (from the in-order result callback, with faults armed) and asserts the
// frozen-cursor contract survives snapshot execution: the charged prefix,
// its per-position reports and the discarded tail are identical at every
// worker count.
func TestBatchAbortBitIdenticalAcrossWorkerCounts(t *testing.T) {
	data := engData(50, 400, 1200, 1)
	gs := batchGraphs(t)
	cut := len(gs) / 3

	run := func(workers int) BatchReport {
		e := New(engSchema(), data, hardware.PostgresXLDisk(), Disk)
		e.SetFaults(faults.MustNew(snapshotFaultCfg()))
		var abort BatchAbort
		return e.Exec(context.Background(), Request{Queries: Queries(gs, 0), Workers: workers, Abort: &abort,
			OnResult: func(pos int, rep RunReport, err error) {
				if pos == cut {
					abort.Set()
				}
			}})
	}

	base := run(1)
	if base.Completed != cut+1 {
		t.Fatalf("Completed = %d, want %d", base.Completed, cut+1)
	}
	for _, workers := range []int{2, runtime.NumCPU()} {
		rep := run(workers)
		if rep.Completed != base.Completed || rep.Seconds != base.Seconds {
			t.Fatalf("workers=%d aborted prefix diverges: (%d, %v) vs (%d, %v)",
				workers, rep.Completed, rep.Seconds, base.Completed, base.Seconds)
		}
		for i := range gs {
			if rep.Reports[i] != base.Reports[i] {
				t.Fatalf("workers=%d query %d report diverges after abort", workers, i)
			}
			if i >= rep.Completed && rep.Errs[i] != ErrBatchAborted {
				t.Fatalf("workers=%d discarded position %d has err %v", workers, i, rep.Errs[i])
			}
		}
	}
}

// TestScratchRecycledAcrossBatches runs consecutive batches on one engine
// and checks (a) results never drift — a later batch against the same
// deployment produces the same report as the first, so nothing leaks from
// one batch into the next through recycled arenas or executor buffers —
// and (b) the scratch pool is actually recycled: after a warm-up batch,
// later batches allocate no new scratches and the warm arenas stop
// growing.
func TestScratchRecycledAcrossBatches(t *testing.T) {
	e := New(engSchema(), engData(50, 400, 1200, 1), hardware.PostgresXLDisk(), Disk)
	gs := batchGraphs(t)
	workers := 4

	base := e.Exec(context.Background(), Request{Queries: Queries(gs, 0), Workers: workers})
	e.mu.Lock()
	if len(e.scratches) != workers {
		t.Fatalf("scratch pool holds %d after a %d-worker batch", len(e.scratches), workers)
	}
	var warm int64
	for _, s := range e.scratches {
		warm += s.ar.Footprint()
	}
	e.mu.Unlock()

	for round := 0; round < 3; round++ {
		e.ResetClock()
		rep := e.Exec(context.Background(), Request{Queries: Queries(gs, 0), Workers: workers})
		if rep.Seconds != base.Seconds || rep.Completed != base.Completed {
			t.Fatalf("round %d totals drift: %v vs %v", round, rep.Seconds, base.Seconds)
		}
		for i := range gs {
			if rep.Reports[i] != base.Reports[i] {
				t.Fatalf("round %d query %d report drifts: %+v vs %+v",
					round, i, rep.Reports[i], base.Reports[i])
			}
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.scratches) != workers {
		t.Fatalf("scratch pool grew to %d; batches are not recycling", len(e.scratches))
	}
	var after int64
	for _, s := range e.scratches {
		after += s.ar.Footprint()
	}
	// The work-stealing dispatch may hand a different query mix to each
	// worker per round, so every arena can warm up to the heaviest query's
	// demand — the footprint of a single arena that served the whole batch
	// alone. The pool must stay under workers x that high-water mark
	// (round-count-independent); anything past it is a cross-round leak.
	solo := New(engSchema(), engData(50, 400, 1200, 1), hardware.PostgresXLDisk(), Disk)
	solo.Exec(context.Background(), Request{Queries: Queries(gs, 0), Workers: 1})
	solo.mu.Lock()
	soloFootprint := solo.scratches[0].ar.Footprint()
	solo.mu.Unlock()
	if bound := int64(workers)*soloFootprint + int64(workers)*1024; after > bound {
		t.Fatalf("arena footprint grew %d -> %d across identical batches (bound %d)", warm, after, bound)
	}
}

// TestReadAccessorsLockFree pins the lock-free accessor contract: every
// read-only accessor must return while the engine mutex is held (as it is
// for the whole duration of a running batch). Before snapshot execution
// these calls deadlocked until the batch finished.
func TestReadAccessorsLockFree(t *testing.T) {
	e := New(engSchema(), engData(30, 150, 300, 2), hardware.PostgresXLDisk(), Disk)
	e.SetFaults(faults.MustNew(snapshotFaultCfg()))
	g := engGraph(t, "SELECT * FROM orders o, customer c WHERE o.o_c_id = c.c_id")

	e.mu.Lock() // simulate a long-running batch holding the mutex
	defer e.mu.Unlock()

	done := make(chan struct{})
	go func() {
		defer close(done)
		if q, _, _ := e.Counters(); q != 0 {
			t.Errorf("Counters queries = %d", q)
		}
		if tv := e.TopologyView(); tv.Live != e.HW.Nodes-1 { // one crashed node
			t.Errorf("TopologyView live = %d", tv.Live)
		}
		if rows, bytes := e.TableFootprint("orders"); rows == 0 || bytes == 0 {
			t.Error("TableFootprint returned empty")
		}
		if d := e.CurrentDesign("orders"); d.Replicated {
			t.Errorf("CurrentDesign = %v, want the initial round-robin design", d)
		}
		if plan, _ := e.Explain(g); len(plan) == 0 {
			t.Error("Explain returned empty plan")
		}
		e.SimNow()
		e.RepairStats()
		e.RepairLog()
		e.NodeStates()
	}()

	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("read accessors blocked behind the engine mutex")
	}
}
