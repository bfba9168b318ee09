package serve

import (
	"context"
	"errors"
	"testing"
	"time"
)

func schedConfig() Config {
	cfg := DefaultConfig()
	cfg.MaxConcurrent = 2
	cfg.MaxTenantQueue = 4
	cfg.MaxGlobalQueue = 6
	return cfg
}

func noopTask() *task { return newTask(0, func() {}) }

// TestAdmissionBounds: per-tenant and global queue caps shed with the
// right sentinel, and a closed scheduler rejects everything.
func TestAdmissionBounds(t *testing.T) {
	s := newScheduler(schedConfig()) // workers not started: nothing drains
	a := s.addTenant("a", 1)
	b := s.addTenant("b", 1)

	for i := 0; i < 4; i++ {
		if err := s.submit(a, noopTask()); err != nil {
			t.Fatalf("submit a[%d]: %v", i, err)
		}
	}
	if err := s.submit(a, noopTask()); !errors.Is(err, ErrTenantQueueFull) {
		t.Fatalf("tenant cap: got %v, want ErrTenantQueueFull", err)
	}
	// The global bound (6) trips before b's tenant bound (4).
	for i := 0; i < 2; i++ {
		if err := s.submit(b, noopTask()); err != nil {
			t.Fatalf("submit b[%d]: %v", i, err)
		}
	}
	if err := s.submit(b, noopTask()); !errors.Is(err, ErrGlobalQueueFull) {
		t.Fatalf("global cap: got %v, want ErrGlobalQueueFull", err)
	}
	if got := s.depth(); got != 6 {
		t.Fatalf("depth = %d, want 6", got)
	}
	if occ := s.occupancy(); occ != 1 {
		t.Fatalf("occupancy = %v, want 1", occ)
	}

	s.close()
	if err := s.submit(b, noopTask()); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed: got %v, want ErrClosed", err)
	}
}

// drainOrder dispatches every queued task synchronously (no workers) and
// returns the tenant ids in dispatch order.
func drainOrder(s *scheduler, n int) []string {
	var order []string
	for i := 0; i < n; i++ {
		tk := s.next()
		if tk == nil {
			break
		}
		order = append(order, tk.tq.id)
		// Return the slot without the wall-clock rate meter noise.
		s.mu.Lock()
		tk.tq.inflight--
		s.mu.Unlock()
	}
	return order
}

// TestWeightedFairDispatch: with saturated queues, a weight-2 tenant gets
// at most its 2/3 share (+ε) of dispatches even though it has far more
// queued work, and the weight-1 tenant is never starved.
func TestWeightedFairDispatch(t *testing.T) {
	cfg := schedConfig()
	cfg.MaxTenantQueue = 200
	cfg.MaxGlobalQueue = 1000
	s := newScheduler(cfg)
	hot := s.addTenant("hot", 2)
	cold := s.addTenant("cold", 1)
	for i := 0; i < 180; i++ { // hot has 3x the backlog
		if err := s.submit(hot, noopTask()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 60; i++ {
		if err := s.submit(cold, noopTask()); err != nil {
			t.Fatal(err)
		}
	}
	window := 90 // cold's queue covers 1/3 of it
	order := drainOrder(s, window)
	hotN := 0
	for _, id := range order {
		if id == "hot" {
			hotN++
		}
	}
	share := float64(hotN) / float64(window)
	want := 2.0 / 3.0
	if share > want+0.05 {
		t.Fatalf("hot tenant got %.2f of dispatches, want <= %.2f + eps", share, want)
	}
	if share < want-0.05 {
		t.Fatalf("hot tenant got %.2f of dispatches, want >= %.2f - eps (weights must matter)", share, want)
	}
	// Interleaving, not phases: cold appears within any 4-dispatch run.
	maxRun, run := 0, 0
	for _, id := range order {
		if id == "hot" {
			run++
			if run > maxRun {
				maxRun = run
			}
		} else {
			run = 0
		}
	}
	if maxRun > 3 {
		t.Fatalf("hot tenant ran %d consecutive dispatches; fair queueing should interleave", maxRun)
	}
}

// TestIdleTenantVtimeLift: a tenant that was idle while another burned
// virtual time must not monopolize the workers when it wakes up — its
// vtime is lifted to the backlogged minimum at enqueue.
func TestIdleTenantVtimeLift(t *testing.T) {
	cfg := schedConfig()
	cfg.MaxTenantQueue = 200
	cfg.MaxGlobalQueue = 1000
	s := newScheduler(cfg)
	a := s.addTenant("a", 1)
	b := s.addTenant("b", 1)
	for i := 0; i < 50; i++ {
		if err := s.submit(a, noopTask()); err != nil {
			t.Fatal(err)
		}
	}
	drainOrder(s, 30) // a accrues vtime 30 while b sleeps
	for i := 0; i < 50; i++ {
		if err := s.submit(b, noopTask()); err != nil {
			t.Fatal(err)
		}
	}
	order := drainOrder(s, 20)
	bN := 0
	for _, id := range order {
		if id == "b" {
			bN++
		}
	}
	if bN > 12 {
		t.Fatalf("woken tenant got %d of 20 dispatches; banked idle vtime must not buy a monopoly", bN)
	}
	if bN < 8 {
		t.Fatalf("woken tenant got only %d of 20 dispatches; lift must not punish it either", bN)
	}
}

// TestCancelQueuedNeverRuns: a task cancelled while queued is swept, not
// executed, and the queue accounting stays consistent.
func TestCancelQueuedNeverRuns(t *testing.T) {
	s := newScheduler(schedConfig())
	a := s.addTenant("a", 1)
	ran := false
	dead := newTask(0, func() { ran = true })
	live := noopTask()
	if err := s.submit(a, dead); err != nil {
		t.Fatal(err)
	}
	if err := s.submit(a, live); err != nil {
		t.Fatal(err)
	}
	if !dead.CancelQueued() {
		t.Fatal("CancelQueued on a queued task returned false")
	}
	select {
	case <-dead.cancelled:
	default:
		t.Fatal("winning CancelQueued did not close the cancelled channel")
	}
	got := s.next()
	if got != live {
		t.Fatalf("next() returned the cancelled task")
	}
	if ran {
		t.Fatal("cancelled task ran")
	}
	if d := s.depth(); d != 0 {
		t.Fatalf("depth = %d after sweeping, want 0", d)
	}
	if live.CancelQueued() {
		t.Fatal("CancelQueued succeeded on a running task")
	}
}

// TestSubmitAfterRemoveTenant: a submit racing removeTenant must be
// refused — admitting into a deregistered queue would strand the task
// (next() only scans registered queues) and leak global-queue occupancy.
func TestSubmitAfterRemoveTenant(t *testing.T) {
	s := newScheduler(schedConfig())
	a := s.addTenant("a", 1)
	queued := noopTask()
	if err := s.submit(a, queued); err != nil {
		t.Fatal(err)
	}
	s.removeTenant("a")
	select {
	case <-queued.cancelled:
	default:
		t.Fatal("removeTenant did not cancel the queued task")
	}
	if err := s.submit(a, noopTask()); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("submit into removed tenant: %v, want ErrUnknownTenant", err)
	}
	if d := s.depth(); d != 0 {
		t.Fatalf("depth = %d after remove + refused submit, want 0", d)
	}
	// Re-adding the id builds a fresh queue; a stale handle stays refused.
	s.addTenant("a", 1)
	if err := s.submit(a, noopTask()); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("submit via stale queue handle: %v, want ErrUnknownTenant", err)
	}
}

// TestDrainStopsWorkers: close + drain finishes queued work, stops the
// pool, and a second drain is a no-op.
func TestDrainStopsWorkers(t *testing.T) {
	cfg := schedConfig()
	cfg.MaxConcurrent = 3
	s := newScheduler(cfg)
	a := s.addTenant("a", 1)
	s.start()
	done := make(chan struct{}, 4)
	for i := 0; i < 4; i++ {
		err := s.submit(a, newTask(0, func() {
			time.Sleep(5 * time.Millisecond)
			done <- struct{}{}
		}))
		if err != nil {
			t.Fatal(err)
		}
	}
	s.close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if len(done) != 4 {
		t.Fatalf("only %d of 4 queued tasks ran before drain returned", len(done))
	}
}
