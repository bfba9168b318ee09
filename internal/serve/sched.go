package serve

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// task states. A task moves queued → running (claimed by a worker) or
// queued → cancelled (its deadline expired / its submitter gave up while
// it was still waiting). The transitions are CAS-guarded so exactly one
// side wins.
const (
	taskQueued int32 = iota
	taskRunning
	taskCancelled
)

// task is one admitted unit of work waiting for a worker slot.
type task struct {
	tq    *tenantQueue
	state atomic.Int32
	// cost is the fair-share charge of the task (the server uses the
	// batch's query count; 0 defaults to 1).
	cost float64
	// run executes the work; it is invoked by exactly one worker after a
	// successful queued→running claim and must honor ctx itself.
	run func()
	// cancelled is closed exactly once, by whichever side wins the
	// queued→cancelled CAS. The scheduler cancels queued tasks itself
	// (removeTenant, drain deadline); without this signal a submitter
	// whose context never fires — or whose own CancelQueued loses the
	// race to the scheduler's — would wait forever for a run() that is
	// never going to happen.
	cancelled chan struct{}
}

func newTask(cost float64, run func()) *task {
	return &task{cost: cost, run: run, cancelled: make(chan struct{})}
}

// CancelQueued tries to withdraw the task before a worker claims it.
// It reports true when the task was still queued — the work will never
// start, so the submitter may answer immediately. False means the task
// is past queued: either a worker claimed it (the submitter must wait
// for the result; the propagated context makes that prompt) or another
// canceller won, which the t.cancelled close announces.
func (t *task) CancelQueued() bool {
	if t.state.CompareAndSwap(taskQueued, taskCancelled) {
		close(t.cancelled)
		return true
	}
	return false
}

// tenantQueue is one tenant's scheduling state inside the scheduler.
type tenantQueue struct {
	id     string
	weight float64
	q      []*task
	// vtime is the tenant's virtual time: it advances by cost/weight per
	// dispatched task, and dispatch always picks the backlogged tenant
	// with the smallest vtime (ties broken by id for determinism).
	vtime    float64
	inflight int
}

// scheduler implements bounded admission plus weighted-fair dispatch over
// a fixed worker pool.
type scheduler struct {
	cfg Config

	mu      sync.Mutex
	cond    *sync.Cond
	tenants map[string]*tenantQueue
	queued  int // total queued across tenants (counts cancelled-but-unswept)
	closed  bool
	stopped bool
	wg      sync.WaitGroup

	// rate is a coarse completions-per-second meter (ring of per-second
	// buckets) used to compute honest Retry-After hints.
	rateBuckets [rateWindow + 1]int64
	rateSecs    [rateWindow + 1]int64

	// counters for /statz.
	dispatched atomic.Int64
	completed  atomic.Int64
	cancelled  atomic.Int64
}

// rateWindow is how many whole seconds of completions feed the
// Retry-After estimate.
const rateWindow = 4

func newScheduler(cfg Config) *scheduler {
	s := &scheduler{cfg: cfg, tenants: make(map[string]*tenantQueue)}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// start launches the worker pool.
func (s *scheduler) start() {
	s.wg.Add(s.cfg.MaxConcurrent)
	for i := 0; i < s.cfg.MaxConcurrent; i++ {
		go s.worker()
	}
}

// addTenant registers a tenant's queue. Weight <= 0 defaults to 1.
func (s *scheduler) addTenant(id string, weight float64) *tenantQueue {
	if weight <= 0 || math.IsNaN(weight) {
		weight = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	tq := &tenantQueue{id: id, weight: weight}
	s.tenants[id] = tq
	return tq
}

// removeTenant deregisters a tenant and cancels everything still queued
// for it. In-flight work is unaffected (the worker holds the task).
func (s *scheduler) removeTenant(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tq := s.tenants[id]
	if tq == nil {
		return
	}
	for _, t := range tq.q {
		if t.CancelQueued() {
			s.cancelled.Add(1)
		}
		s.queued--
	}
	tq.q = nil
	delete(s.tenants, id)
	s.cond.Broadcast()
}

// submit admits a task into the tenant's queue or sheds it. The returned
// error is nil (admitted), ErrClosed, ErrUnknownTenant,
// ErrGlobalQueueFull or ErrTenantQueueFull.
func (s *scheduler) submit(tq *tenantQueue, t *task) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.tenants[tq.id] != tq {
		// The tenant was removed (or replaced) between the caller's lookup
		// and this submit: removeTenant drained this queue under the same
		// lock, so admitting now would strand the task — next() only scans
		// registered queues — and permanently inflate s.queued.
		return ErrUnknownTenant
	}
	if s.queued >= s.cfg.MaxGlobalQueue {
		return ErrGlobalQueueFull
	}
	if len(tq.q) >= s.cfg.MaxTenantQueue {
		return ErrTenantQueueFull
	}
	if len(tq.q) == 0 {
		// The tenant was idle: lift its virtual time to the minimum of the
		// currently backlogged tenants so it re-enters the fair race at
		// "now" instead of spending banked idle time starving everyone.
		if v, ok := s.minBackloggedVtime(); ok && tq.vtime < v {
			tq.vtime = v
		}
	}
	t.tq = tq
	tq.q = append(tq.q, t)
	s.queued++
	s.cond.Signal()
	return nil
}

// minBackloggedVtime returns the smallest vtime among tenants with queued
// work. Caller holds s.mu.
func (s *scheduler) minBackloggedVtime() (float64, bool) {
	v, ok := 0.0, false
	for _, tq := range s.tenants {
		if len(tq.q) == 0 {
			continue
		}
		if !ok || tq.vtime < v {
			v, ok = tq.vtime, true
		}
	}
	return v, ok
}

// next blocks until a dispatchable task exists (returning it after
// charging the tenant's virtual time) or the scheduler stops (returning
// nil). Caller is a worker goroutine.
func (s *scheduler) next() *task {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.stopped {
			return nil
		}
		// Sweep cancelled heads and pick the eligible (backlogged, under
		// its in-flight cap) tenant with the smallest virtual time.
		var pick *tenantQueue
		for _, tq := range s.tenants {
			for len(tq.q) > 0 && tq.q[0].state.Load() == taskCancelled {
				tq.q = tq.q[1:]
				s.queued--
			}
			if len(tq.q) == 0 || tq.inflight >= maxTenantInflight {
				continue
			}
			if pick == nil || tq.vtime < pick.vtime ||
				(tq.vtime == pick.vtime && tq.id < pick.id) {
				pick = tq
			}
		}
		if pick == nil {
			s.cond.Wait()
			continue
		}
		t := pick.q[0]
		pick.q = pick.q[1:]
		s.queued--
		if !t.state.CompareAndSwap(taskQueued, taskRunning) {
			// Lost the race to a late cancel; it was already uncounted from
			// the queue above, so just look again.
			continue
		}
		cost := t.cost
		if cost <= 0 {
			cost = 1
		}
		pick.vtime += cost / pick.weight
		pick.inflight++
		s.dispatched.Add(1)
		return t
	}
}

// finish returns a worker slot after a task ran.
func (s *scheduler) finish(tq *tenantQueue) {
	s.mu.Lock()
	tq.inflight--
	now := time.Now().Unix()
	slot := int(now % int64(len(s.rateBuckets)))
	if s.rateSecs[slot] != now {
		s.rateSecs[slot] = now
		s.rateBuckets[slot] = 0
	}
	s.rateBuckets[slot]++
	s.mu.Unlock()
	s.completed.Add(1)
	s.cond.Signal()
}

func (s *scheduler) worker() {
	defer s.wg.Done()
	for {
		t := s.next()
		if t == nil {
			return
		}
		t.run()
		s.finish(t.tq)
	}
}

// depth returns the current global queue depth.
func (s *scheduler) depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}

// occupancy returns queued / MaxGlobalQueue, the overload controller's
// input signal.
func (s *scheduler) occupancy() float64 {
	return float64(s.depth()) / float64(s.cfg.MaxGlobalQueue)
}

// inflightTotal returns the number of tasks currently executing.
func (s *scheduler) inflightTotal() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, tq := range s.tenants {
		n += tq.inflight
	}
	return n
}

// completionRate estimates completions per second over the recent window
// (excluding the in-progress second).
func (s *scheduler) completionRate() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := time.Now().Unix()
	var sum int64
	for i := range s.rateBuckets {
		if sec := s.rateSecs[i]; sec != now && sec >= now-rateWindow {
			sum += s.rateBuckets[i]
		}
	}
	return float64(sum) / rateWindow
}

// retryAfter computes an honest Retry-After hint in whole seconds: the
// time to drain the current backlog at the observed completion rate,
// clamped to [1, 30].
func (s *scheduler) retryAfter() int {
	rate := s.completionRate()
	depth := float64(s.depth() + s.inflightTotal())
	secs := 1.0
	if rate > 0 {
		secs = math.Ceil(depth / rate)
	}
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return int(secs)
}

// close stops admitting new work; queued and running work continues.
func (s *scheduler) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// drain waits for every queued and in-flight task to finish (the caller
// must have closed admission first), then stops the workers. When ctx
// expires first, still-queued tasks are cancelled, and the workers stop
// after their current task.
func (s *scheduler) drain(ctx context.Context) error {
	var err error
	deadline := ctx.Done()
	for {
		s.mu.Lock()
		idle := s.queued == 0
		for _, tq := range s.tenants {
			if tq.inflight > 0 {
				idle = false
			}
		}
		s.mu.Unlock()
		if idle {
			break
		}
		select {
		case <-deadline:
			err = ctx.Err()
			s.mu.Lock()
			for _, tq := range s.tenants {
				for _, t := range tq.q {
					if t.CancelQueued() {
						s.cancelled.Add(1)
					}
				}
				tq.q, s.queued = nil, s.queued-len(tq.q)
			}
			s.mu.Unlock()
		case <-time.After(5 * time.Millisecond):
			continue
		}
		break
	}
	s.mu.Lock()
	s.stopped = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	return err
}
