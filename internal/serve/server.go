package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"partadvisor/internal/core"
	"partadvisor/internal/durable"
)

// Server hosts the tenants, the admission-controlled scheduler and the
// overload controller. Build with NewServer, then Start, serve Handler()
// over HTTP, Recover and MarkReady; shut down with BeginDrain + Shutdown.
type Server struct {
	cfg   Config
	fs    durable.FS
	sched *scheduler
	ov    *overload

	// reg is the durable tenant manifest. ready gates the HTTP request
	// paths: it starts false and flips true at MarkReady, once recovery
	// (and the operator's preload) completes.
	reg      *registry
	ready    atomic.Bool
	recovery atomic.Pointer[RecoveryReport]

	// deleting holds the ids whose DeleteTenant has not returned: a create
	// of one is refused, or the delete's directory removal could take the
	// new tenant's checkpoint directory with it.
	mu       sync.RWMutex
	tenants  map[string]*Tenant
	deleting map[string]bool

	draining atomic.Bool
	start    time.Time

	tickCancel context.CancelFunc
	tickDone   chan struct{}

	// Global request-path counters for /statz.
	served         atomic.Int64
	shedQueue      atomic.Int64
	shedPriority   atomic.Int64
	rejectedClosed atomic.Int64
	deadlineMisses atomic.Int64
}

// NewServer validates the config, opens (or initializes) the durable
// tenant manifest under StateDir — a corrupt manifest fails construction
// with ErrCorruptManifest — and builds an idle server that starts
// not-ready: call Recover, then MarkReady.
func NewServer(cfg Config) (*Server, error) { return newServer(cfg, durable.OS) }

// newServer is NewServer with every write under the state directory going
// through fs.
func newServer(cfg Config, fs durable.FS) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	reg, err := openRegistry(fs, cfg.StateDir)
	if err != nil {
		return nil, err
	}
	return &Server{
		cfg:      cfg,
		fs:       fs,
		sched:    newScheduler(cfg),
		ov:       newOverload(cfg),
		reg:      reg,
		tenants:  make(map[string]*Tenant),
		deleting: make(map[string]bool),
		start:    time.Now(),
	}, nil
}

// Ready reports whether the server accepts tenant and batch requests
// over HTTP: false until MarkReady.
func (s *Server) Ready() bool { return s.ready.Load() }

// MarkReady opens the HTTP request paths after recovery and preload.
func (s *Server) MarkReady() { s.ready.Store(true) }

// Start launches the worker pool and the overload tick loop.
func (s *Server) Start() {
	s.sched.start()
	ctx, cancel := context.WithCancel(context.Background())
	s.tickCancel = cancel
	s.tickDone = make(chan struct{})
	go func() {
		defer close(s.tickDone)
		tick := time.NewTicker(s.cfg.TickEvery)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				s.ov.Observe(s.sched.occupancy())
			}
		}
	}()
}

// Tier returns the current degradation tier.
func (s *Server) Tier() Tier { return s.ov.Tier() }

// Draining reports whether shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// CreateTenant builds, registers and starts a tenant. Creation is
// synchronous (data generation + offline bootstrap) and does not pass
// through admission control — it is an administrative operation.
func (s *Server) CreateTenant(spec TenantSpec) (*Tenant, error) {
	if s.draining.Load() {
		return nil, ErrClosed
	}
	if err := spec.normalize(); err != nil {
		return nil, err
	}
	s.mu.RLock()
	_, exists := s.tenants[spec.ID]
	exists = exists || s.deleting[spec.ID]
	s.mu.RUnlock()
	if exists {
		return nil, fmt.Errorf("serve: tenant %q already exists", spec.ID)
	}
	t, err := newTenant(spec, s.cfg, s.fs)
	if err != nil {
		return nil, err
	}
	if err := s.register(t, true); err != nil {
		return nil, err
	}
	t.startAdvising()
	return t, nil
}

// register installs a built tenant into the server. With persist set it
// also records the spec in the manifest inside the same critical
// section, so a crash immediately after CreateTenant returns cannot lose
// the tenant, and a concurrent duplicate create cannot interleave between
// the map insert and the manifest write.
func (s *Server) register(t *Tenant, persist bool) error {
	t.paused = func() bool { return s.ov.Tier() >= TierPauseAdvising || s.draining.Load() }
	s.mu.Lock()
	abort := func(err error) error {
		s.mu.Unlock()
		t.discard()
		return err
	}
	if _, raced := s.tenants[t.Spec.ID]; raced {
		return abort(fmt.Errorf("serve: tenant %q already exists", t.Spec.ID))
	}
	if persist {
		if err := s.reg.put(t.Spec); err != nil {
			return abort(err)
		}
	}
	t.tq = s.sched.addTenant(t.Spec.ID, t.Spec.Weight)
	s.tenants[t.Spec.ID] = t
	s.mu.Unlock()
	return nil
}

// DeleteTenant stops a tenant's advising loop, cancels its queued work
// and removes it. In-flight batches finish on their own.
func (s *Server) DeleteTenant(id string) error {
	s.mu.Lock()
	t := s.tenants[id]
	delete(s.tenants, id)
	if t != nil {
		s.deleting[id] = true
	}
	s.mu.Unlock()
	if t == nil {
		return ErrUnknownTenant
	}
	defer func() {
		s.mu.Lock()
		delete(s.deleting, id)
		s.mu.Unlock()
	}()
	s.sched.removeTenant(id)
	t.stopAdvising()
	// Manifest first, then the checkpoint files: a crash in between leaves
	// orphan generations that recovery sweeps, never a manifest entry with
	// no way to rebuild the tenant.
	if err := s.reg.delete(id); err != nil {
		return err
	}
	s.fs.RemoveAll(t.ckptDir)
	return nil
}

// TenantRecovery reports one tenant's recovery outcome.
type TenantRecovery struct {
	ID string `json:"id"`
	// Generations is how many checkpoint generation files were found on
	// disk (verified or not).
	Generations int `json:"generations_found"`
	// CorruptSkipped counts generations that failed integrity
	// verification or restore and were skipped on the fallback ladder.
	CorruptSkipped int `json:"corrupt_skipped"`
	// RestoredGen is the generation the tenant resumed from; -1 means a
	// fresh bootstrap (no generation survived verification).
	RestoredGen int64 `json:"restored_generation"`
	// FreshBootstrap is set when no verified checkpoint was usable and
	// the tenant restarted from its deterministic offline bootstrap.
	FreshBootstrap bool `json:"fresh_bootstrap"`
	// Err records a tenant whose rebuild failed outright (bad spec,
	// resource exhaustion); the tenant is absent from the server.
	Err string `json:"error,omitempty"`
	// DurationSec is the wall-clock this tenant's recovery took: the
	// deployment build, the restore attempts and, on fallback, the
	// bootstrap.
	DurationSec float64 `json:"duration_sec"`
}

// RecoveryReport summarizes a Recover pass; it is also served by /readyz
// once the server is ready.
type RecoveryReport struct {
	Tenants     []TenantRecovery `json:"tenants"`
	DurationSec float64          `json:"duration_sec"`
}

// Recovery returns the last Recover report, or nil.
func (s *Server) Recovery() *RecoveryReport { return s.recovery.Load() }

// Recover rebuilds the tenant fleet from the durable manifest, on
// min(GOMAXPROCS, tenants) goroutines. Each tenant is rebuilt by
// recoverTenant: its deployment, then the newest checkpoint generation that
// verifies and restores, down to a fresh bootstrap only if none does. The
// report lists the tenants in manifest (sorted-id) order whatever order
// they finished in. Orphan checkpoint directories with no manifest entry
// (a crash mid-delete) are removed. Call before Start-ing traffic; finish
// with MarkReady.
func (s *Server) Recover() (*RecoveryReport, error) {
	began := time.Now()
	specs := s.reg.list()
	rep := &RecoveryReport{Tenants: make([]TenantRecovery, len(specs))}
	work := make(chan int, len(specs))
	for i := range specs {
		work <- i
	}
	close(work)
	var wg sync.WaitGroup
	for w := 0; w < min(runtime.GOMAXPROCS(0), len(specs)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				rep.Tenants[i] = s.recoverTenant(specs[i])
			}
		}()
	}
	wg.Wait()
	known := make(map[string]bool, len(specs))
	for _, spec := range specs {
		known[spec.ID] = true
	}
	// Sweep checkpoint directories for tenants the manifest no longer
	// records: DeleteTenant removes the manifest entry first, so a crash
	// between the two leaves exactly this debris.
	if entries, err := os.ReadDir(filepath.Join(s.reg.dir, ckptSubdir)); err == nil {
		for _, e := range entries {
			if e.IsDir() && !known[e.Name()] {
				s.fs.RemoveAll(generationDir(s.reg.dir, e.Name()))
			}
		}
	}
	rep.DurationSec = time.Since(began).Seconds()
	s.recovery.Store(rep)
	return rep, nil
}

// recoverTenant rebuilds one tenant from its spec and starts it. It builds
// the deployment with an untrained advisor, sweeps temp debris, and walks
// the checkpoint generations newest-first: the first that passes integrity
// verification and restores is what the tenant resumes from, each corrupt
// or unrestorable one is counted and skipped. Only when no generation
// restores does the tenant run its offline bootstrap, which stands up the
// same advisor CreateTenant did.
func (s *Server) recoverTenant(spec TenantSpec) (tr TenantRecovery) {
	began := time.Now()
	tr = TenantRecovery{ID: spec.ID, RestoredGen: -1}
	defer func() { tr.DurationSec = time.Since(began).Seconds() }()
	t, err := buildTenant(spec, s.cfg, s.fs)
	if err != nil {
		tr.Err = err.Error()
		return tr
	}
	durable.SweepTemp(s.fs, t.ckptDir)
	gens, err := listGenerations(t.ckptDir)
	if errors.Is(err, os.ErrNotExist) {
		// CreateTenant makes the directory before the manifest names the
		// tenant; a state directory written before it did can lack one.
		err = durable.MakeDir(s.fs, t.ckptDir)
	}
	if err != nil {
		tr.Err = err.Error()
		t.discard()
		return tr
	}
	tr.Generations = len(gens)
	if len(gens) > 0 {
		// Monotonic numbering: resume past the newest file even if it is
		// corrupt and we restore an older one.
		t.nextGen.Store(gens[0].Gen + 1)
	}
	for _, g := range gens {
		data, err := os.ReadFile(g.Path)
		var ck *core.Checkpoint
		if err == nil {
			ck, err = core.DecodeCheckpoint(data)
		}
		if err != nil {
			tr.CorruptSkipped++
			continue
		}
		if err := t.restoreCheckpoint(ck); err != nil {
			tr.CorruptSkipped++
			continue
		}
		tr.RestoredGen = int64(g.Gen)
		break
	}
	if tr.RestoredGen < 0 {
		tr.FreshBootstrap = true
		if err := t.bootstrap(); err != nil {
			tr.Err = err.Error()
			t.discard()
			return tr
		}
	}
	t.restoredGen.Store(tr.RestoredGen)
	if err := s.register(t, false); err != nil {
		tr.Err = err.Error()
		return tr
	}
	t.startAdvising()
	return tr
}

// Halt stops the server abruptly without writing any durable state —
// no final checkpoints, no manifest update. It models a crash for the
// recovery tests (the process-level soak uses a real SIGKILL): queued
// work is cancelled, workers stop after their current task, advising
// loops stop at the next episode boundary. The on-disk state afterwards
// is whatever the background checkpointer last persisted.
func (s *Server) Halt() {
	s.draining.Store(true)
	s.sched.close()
	if s.tickCancel != nil {
		s.tickCancel()
		<-s.tickDone
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	s.sched.drain(cancelled)
	for _, t := range s.TenantList() {
		t.stopAdvising()
	}
}

// Tenant looks a tenant up.
func (s *Server) Tenant(id string) (*Tenant, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tenants[id]
	return t, ok
}

// TenantList returns the tenants sorted by id.
func (s *Server) TenantList() []*Tenant {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*Tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Spec.ID < out[j].Spec.ID })
	return out
}

// SubmitBatch admits a batch for a tenant and returns a wait function
// that blocks for the result. Admission errors come back immediately:
// shed errors (IsShed) carry a Retry-After hint via RetryAfter.
func (s *Server) SubmitBatch(ctx context.Context, t *Tenant, names []string, repeat int, limit float64, priority int) (func() (BatchResult, error), error) {
	if s.draining.Load() {
		s.rejectedClosed.Add(1)
		return nil, ErrClosed
	}
	if s.ov.Tier() >= TierShedLowPriority && priority <= 0 {
		t.shed.Add(1)
		s.shedPriority.Add(1)
		return nil, ErrShedPriority
	}
	qs, labels, err := t.resolveQueries(names, repeat, limit)
	if err != nil {
		return nil, err
	}
	done := make(chan BatchResult, 1)
	tk := newTask(float64(len(qs)), nil)
	tk.run = func() {
		done <- t.execBatch(ctx, qs, labels)
	}
	if err := s.sched.submit(t.tq, tk); err != nil {
		switch {
		case IsShed(err):
			t.shed.Add(1)
			s.shedQueue.Add(1)
		case errors.Is(err, ErrClosed):
			s.rejectedClosed.Add(1)
		}
		return nil, err
	}
	serve := func(res BatchResult) (BatchResult, error) {
		s.served.Add(1)
		if res.DeadlineMiss {
			s.deadlineMisses.Add(1)
		}
		return res, nil
	}
	wait := func() (BatchResult, error) {
		select {
		case res := <-done:
			return serve(res)
		case <-tk.cancelled:
			// The scheduler withdrew the task before a worker claimed it
			// (tenant deleted, or the drain deadline cleared the queue):
			// run() will never execute, so answer now instead of waiting
			// for a result that cannot come.
			return BatchResult{}, ErrCancelled
		case <-ctx.Done():
			if tk.CancelQueued() {
				// Never started: the deadline (or the client) expired while
				// queued. Nothing was charged and nothing executed, so the
				// batch counter is not advanced — only the miss is recorded.
				t.deadlineMisses.Add(1)
				s.deadlineMisses.Add(1)
				s.served.Add(1)
				return BatchResult{Requested: len(qs), DeadlineMiss: true, Cancelled: true}, nil
			}
			// Past queued: either a worker claimed it — the propagated
			// context aborts the batch at the frozen cursor, so its result
			// arrives promptly — or the scheduler's cancel won the race.
			select {
			case res := <-done:
				return serve(res)
			case <-tk.cancelled:
				return BatchResult{}, ErrCancelled
			}
		}
	}
	return wait, nil
}

// RetryAfter returns the current honest Retry-After hint in seconds.
func (s *Server) RetryAfter() int { return s.sched.retryAfter() }

// GlobalStats is the /statz payload.
type GlobalStats struct {
	UptimeSec      float64 `json:"uptime_sec"`
	Tier           int     `json:"tier"`
	TierName       string  `json:"tier_name"`
	Ready          bool    `json:"ready"`
	Draining       bool    `json:"draining"`
	Tenants        int     `json:"tenants"`
	QueueDepth     int     `json:"queue_depth"`
	QueueCap       int     `json:"queue_cap"`
	Inflight       int     `json:"inflight"`
	Workers        int     `json:"workers"`
	Served         int64   `json:"served"`
	ShedQueue      int64   `json:"shed_queue"`
	ShedPriority   int64   `json:"shed_priority"`
	RejectedClosed int64   `json:"rejected_closed"`
	DeadlineMisses int64   `json:"deadline_misses"`
	Dispatched     int64   `json:"dispatched"`
	Completed      int64   `json:"completed"`
	Cancelled      int64   `json:"cancelled"`
	Escalations    int64   `json:"tier_escalations"`
	Recoveries     int64   `json:"tier_recoveries"`
	PausedCycles   int64   `json:"advise_paused_cycles"`
	AdviseCycles   int64   `json:"advise_cycles"`
	RatePerSec     float64 `json:"completion_rate_per_sec"`
	Checkpoints    int64   `json:"checkpoints_written"`
	CheckpointErrs int64   `json:"checkpoint_errors"`
}

// Stats assembles the global statistics snapshot.
func (s *Server) Stats() GlobalStats {
	g := GlobalStats{
		UptimeSec:      time.Since(s.start).Seconds(),
		Tier:           int(s.ov.Tier()),
		TierName:       s.ov.Tier().String(),
		Ready:          s.ready.Load(),
		Draining:       s.draining.Load(),
		QueueDepth:     s.sched.depth(),
		QueueCap:       s.cfg.MaxGlobalQueue,
		Inflight:       s.sched.inflightTotal(),
		Workers:        s.cfg.MaxConcurrent,
		Served:         s.served.Load(),
		ShedQueue:      s.shedQueue.Load(),
		ShedPriority:   s.shedPriority.Load(),
		RejectedClosed: s.rejectedClosed.Load(),
		DeadlineMisses: s.deadlineMisses.Load(),
		Dispatched:     s.sched.dispatched.Load(),
		Completed:      s.sched.completed.Load(),
		Cancelled:      s.sched.cancelled.Load(),
		Escalations:    s.ov.escalations.Load(),
		Recoveries:     s.ov.recoveries.Load(),
		RatePerSec:     s.sched.completionRate(),
	}
	for _, t := range s.TenantList() {
		g.Tenants++
		g.PausedCycles += t.pausedCycles.Load()
		g.AdviseCycles += t.adviseCycles.Load()
		g.Checkpoints += t.ckptWrites.Load()
		g.CheckpointErrs += t.ckptErrs.Load()
	}
	return g
}

// BeginDrain closes admission: new batch submissions (and tenant
// creations) are rejected from now on, while queued and running work
// keeps draining. Health and stats stay available. Idempotent.
func (s *Server) BeginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.sched.close()
	}
}

// ShutdownReport summarizes a graceful shutdown.
type ShutdownReport struct {
	Drained     bool
	Checkpoints []string
}

// Shutdown drains the scheduler (bounded by ctx), stops the overload
// loop and every tenant's advising goroutine at an episode boundary, and
// writes one final checkpoint generation per tenant: it captures every
// episode trained since the last background checkpoint, and the next
// Recover restores it. Call BeginDrain (and drain the HTTP listener)
// first.
func (s *Server) Shutdown(ctx context.Context) (ShutdownReport, error) {
	s.BeginDrain()
	rep := ShutdownReport{Drained: true}
	if err := s.sched.drain(ctx); err != nil {
		rep.Drained = false
	}
	if s.tickCancel != nil {
		s.tickCancel()
		<-s.tickDone
	}
	var firstErr error
	for _, t := range s.TenantList() {
		t.stopAdvising()
		path, err := t.saveGeneration()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		rep.Checkpoints = append(rep.Checkpoints, path)
	}
	return rep, firstErr
}
