package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"partadvisor/advisor"
	"partadvisor/internal/benchmarks"
	"partadvisor/internal/core"
	"partadvisor/internal/datagen"
	"partadvisor/internal/durable"
	"partadvisor/internal/exec"
	"partadvisor/internal/hardware"
	"partadvisor/internal/workload"
)

// TenantSpec configures one tenant database at creation time.
type TenantSpec struct {
	// ID names the tenant and its checkpoint directory: unique, 1–64
	// characters of [A-Za-z0-9._-], and neither "." nor "..".
	ID string `json:"id"`
	// Bench picks the benchmark database: ssb, tpcds, tpcch, tpch or
	// micro (default micro — the smallest, sized for many tenants per
	// process).
	Bench string `json:"bench"`
	// Engine picks disk (Postgres-XL-like, default) or memory (System-X).
	Engine string `json:"engine"`
	// Scale is the data scale (default 0.3), at most datagen.MaxScale.
	Scale float64 `json:"scale"`
	// Seed seeds data generation and the advisor (default 1).
	Seed int64 `json:"seed"`
	// Weight is the tenant's fair-share weight (default 1).
	Weight float64 `json:"weight"`
	// OfflineEpisodes bootstraps the advisor against the cost model at
	// creation (default 30; 0 keeps the default).
	OfflineEpisodes int `json:"offline_episodes"`
	// OnlineEpisodes is the per-advise-cycle online refinement episode
	// budget (default 2).
	OnlineEpisodes int `json:"online_episodes"`
	// NoGuard disables the DESIGN.md §8 safety envelope around the
	// tenant's online advising (on by default).
	NoGuard bool `json:"no_guard"`
	// AdviseEveryMS overrides the server's default advising period, up to
	// MaxAdviseEveryMS.
	AdviseEveryMS int64 `json:"advise_every_ms"`
}

// Upper bounds on the spec fields a client sets freely. The episode caps
// are several times the largest hyperparameter profile's budgets (1200
// offline, 120 online); past them a create or an advise cycle would hold a
// core for hours. The advising period is capped at an hour, far below
// where its conversion to a time.Duration would overflow.
const (
	MaxOfflineEpisodes = 10000
	MaxOnlineEpisodes  = 1000
	MaxTenantWeight    = 1000
	MaxAdviseEveryMS   = 3_600_000
)

// normalize validates the id, the scale and the bounded fields and applies
// spec defaults.
func (sp *TenantSpec) normalize() error {
	if !validTenantID(sp.ID) {
		return fmt.Errorf("serve: tenant id %q: want 1-64 characters of [A-Za-z0-9._-], not . or ..", sp.ID)
	}
	if sp.Bench == "" {
		sp.Bench = "micro"
	}
	if sp.Engine == "" {
		sp.Engine = "disk"
	}
	if sp.Scale <= 0 {
		sp.Scale = 0.3
	}
	if err := datagen.CheckScale(sp.Scale); err != nil {
		return fmt.Errorf("serve: tenant %s: %w", sp.ID, err)
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	if sp.Weight <= 0 {
		sp.Weight = 1
	}
	if sp.OfflineEpisodes <= 0 {
		sp.OfflineEpisodes = 30
	}
	if sp.OnlineEpisodes <= 0 {
		sp.OnlineEpisodes = 2
	}
	switch {
	case sp.OfflineEpisodes > MaxOfflineEpisodes:
		return fmt.Errorf("serve: tenant %s: offline_episodes %d exceeds %d", sp.ID, sp.OfflineEpisodes, MaxOfflineEpisodes)
	case sp.OnlineEpisodes > MaxOnlineEpisodes:
		return fmt.Errorf("serve: tenant %s: online_episodes %d exceeds %d", sp.ID, sp.OnlineEpisodes, MaxOnlineEpisodes)
	case !(sp.Weight <= MaxTenantWeight):
		return fmt.Errorf("serve: tenant %s: weight %g exceeds %d", sp.ID, sp.Weight, MaxTenantWeight)
	case sp.AdviseEveryMS > MaxAdviseEveryMS:
		return fmt.Errorf("serve: tenant %s: advise_every_ms %d exceeds %d", sp.ID, sp.AdviseEveryMS, MaxAdviseEveryMS)
	}
	return nil
}

// validTenantID reports whether id is safe as a single path component under
// the state directory: no separator, no parent reference, nothing a
// filesystem or a URL would reinterpret.
func validTenantID(id string) bool {
	if len(id) == 0 || len(id) > 64 || id == "." || id == ".." {
		return false
	}
	for _, c := range id {
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '.' || c == '_' || c == '-') {
			return false
		}
	}
	return true
}

// TenantStats is the published per-tenant statistics snapshot. The batch
// and shed counters are live atomics re-read at serialization time; the
// advisor fields are refreshed by the advising goroutine after every
// cycle, so reading stats never blocks behind a running measurement.
type TenantStats struct {
	ID     string  `json:"id"`
	Bench  string  `json:"bench"`
	Weight float64 `json:"weight"`

	// Request-path counters.
	Batches        int64 `json:"batches"`
	Queries        int64 `json:"queries"`
	Shed           int64 `json:"shed"`
	DeadlineMisses int64 `json:"deadline_misses"`

	// Advising-loop counters.
	AdviseCycles   int64 `json:"advise_cycles"`
	PausedCycles   int64 `json:"paused_cycles"`
	PauseInterrupt int64 `json:"pause_interrupts"`
	Deploys        int64 `json:"advise_deploys"`

	// Engine accounting (lock-free published view).
	QueriesExecuted int     `json:"engine_queries"`
	Repartitions    int     `json:"repartitions"`
	BytesMoved      int64   `json:"bytes_moved"`
	SimSeconds      float64 `json:"sim_seconds"`

	// Advisor state as of the last completed cycle.
	EpisodesTrained int               `json:"episodes_trained"`
	BestCost        float64           `json:"best_cost"`
	Design          map[string]string `json:"design"`
	Online          core.OnlineStats  `json:"online"`

	// Durability counters. RestoredGeneration is the checkpoint
	// generation this tenant was recovered from, or -1 when it started
	// fresh.
	CheckpointsWritten int64 `json:"checkpoints_written"`
	CheckpointErrors   int64 `json:"checkpoint_errors"`
	RestoredGeneration int64 `json:"restored_generation"`
}

// advisorSnap is the advising goroutine's published view of the mutable
// advisor state (everything in TenantStats that isn't an atomic counter
// or a lock-free engine accessor).
type advisorSnap struct {
	episodes int
	bestCost float64
	online   core.OnlineStats
}

// Tenant is one hosted database: engine + workload + monitor + guarded
// online advisor. The advisor and online cost are owned exclusively by
// the advising goroutine; the request path touches only the engine (which
// has its own serialization), the monitor (under monMu) and atomics.
type Tenant struct {
	Spec TenantSpec

	// dep is the substrate (data, engine, cost model) and hp the advisor's
	// hyperparameters: together with the spec's seed they stand up a fresh
	// advisor on demand (see freshAdvisor).
	dep *advisor.Deployment
	hp  core.Hyperparams

	eng *exec.Engine
	wl  *workload.Workload
	adv *core.Advisor
	oc  *core.OnlineCost
	tq  *tenantQueue

	mon   *workload.Monitor
	monMu sync.Mutex

	// paused is supplied by the server: it reports whether the overload
	// controller demands advising be paused.
	paused func() bool

	advCtx    context.Context
	advCancel context.CancelFunc
	advDone   chan struct{}

	// Generational checkpointing. fs, ckptDir and ckptEvery are set once
	// at construction; lastCkpt is set by a restore and then owned by the
	// advising goroutine (zero means write at the first tick). nextGen is
	// the next generation number to write — recovery seeds it past the
	// newest file found on disk (even a corrupt one) so generation numbers
	// are monotonic across restarts.
	fs        durable.FS
	ckptDir   string
	ckptEvery time.Duration
	lastCkpt  time.Time

	nextGen     atomic.Uint64
	restoredGen atomic.Int64
	ckptWrites  atomic.Int64
	ckptErrs    atomic.Int64

	batches        atomic.Int64
	queries        atomic.Int64
	shed           atomic.Int64
	deadlineMisses atomic.Int64
	adviseCycles   atomic.Int64
	pausedCycles   atomic.Int64
	pauseInterrupt atomic.Int64
	deploys        atomic.Int64

	snap atomic.Pointer[advisorSnap]
}

// newTenant builds the tenant, bootstraps its advisor and creates its
// checkpoint directory: what CreateTenant stands up. Recovery falls back
// to the same bootstrap when no checkpoint generation restores. It does
// not start the advising loop. Build and bootstrap are deterministic in
// the spec, so the same spec always bootstraps the same advisor and
// deploys the same design.
func newTenant(spec TenantSpec, cfg Config, fs durable.FS) (*Tenant, error) {
	t, err := buildTenant(spec, cfg, fs)
	if err != nil {
		return nil, err
	}
	if err := t.bootstrap(); err != nil {
		t.discard()
		return nil, err
	}
	if err := durable.MakeDir(fs, t.ckptDir); err != nil {
		t.discard()
		return nil, fmt.Errorf("serve: tenant %s: %w", spec.ID, err)
	}
	return t, nil
}

// buildTenant stands up everything of a tenant except what its advisor has
// learned: the deployment (data generation and engine build, deterministic
// from the spec), an untrained advisor inferring on the deployment's
// offline cost, the guarded online cost over the engine and the tenant's
// context. It touches no file. The engine keeps the layout it was
// loaded with until bootstrap or restoreCheckpoint deploys a design.
func buildTenant(spec TenantSpec, cfg Config, fs durable.FS) (*Tenant, error) {
	if err := spec.normalize(); err != nil {
		return nil, err
	}
	b := benchmarks.ByName(spec.Bench)
	if b == nil {
		return nil, fmt.Errorf("serve: unknown benchmark %q", spec.Bench)
	}
	hw, ok := hardware.ByName(spec.Engine)
	if !ok {
		return nil, fmt.Errorf("serve: unknown engine flavor %q", spec.Engine)
	}
	if spec.AdviseEveryMS <= 0 {
		spec.AdviseEveryMS = cfg.AdviseEvery.Milliseconds()
	}
	hp := core.Test()
	hp.Episodes = spec.OfflineEpisodes
	hp.OnlineEpisodes = spec.OnlineEpisodes
	hp.OnlineEpsilonFromEpisode = spec.OfflineEpisodes / 2
	dep := advisor.NewDeployment(b, hw, spec.Scale, spec.Seed)

	oc := core.NewOnlineCost(dep.Engine, b.Workload, nil)
	if !spec.NoGuard {
		g := core.DefaultGuardConfig()
		oc.Guard = &g
	}
	ctx, cancel := context.WithCancel(context.Background())
	// Measurements are bounded by the tenant's lifetime.
	oc.Ctx = ctx
	t := &Tenant{
		Spec:      spec,
		dep:       dep,
		hp:        hp,
		eng:       dep.Engine,
		wl:        b.Workload,
		oc:        oc,
		mon:       workload.NewMonitor(b.Workload),
		advCtx:    ctx,
		advCancel: cancel,
		advDone:   make(chan struct{}),
		fs:        fs,
		ckptDir:   generationDir(cfg.StateDir, spec.ID),
		ckptEvery: cfg.CheckpointEvery,
	}
	adv, err := t.freshAdvisor()
	if err != nil {
		cancel()
		return nil, err
	}
	t.adv = adv
	t.snap.Store(&advisorSnap{})
	t.restoredGen.Store(-1)
	return t, nil
}

// freshAdvisor puts a new, untrained advisor on the tenant's deployment.
// Its RNG sits at the construction position, at or before that of any
// checkpoint this spec wrote, so core's fast-forward restore always
// reaches it. The per-episode Stop poll is bounded by the tenant's
// lifetime and the overload controller's pause demand.
func (t *Tenant) freshAdvisor() (*core.Advisor, error) {
	sess, err := t.dep.NewSession(t.hp, t.Spec.Seed)
	if err != nil {
		return nil, fmt.Errorf("serve: tenant %s: %w", t.Spec.ID, err)
	}
	adv := sess.Advisor
	adv.InferCost = t.dep.OfflineCost()
	adv.Stop = func() bool {
		return t.advCtx.Err() != nil || (t.paused != nil && t.paused())
	}
	return adv, nil
}

// bootstrap trains the tenant's untrained advisor offline against the cost
// model, then suggests a design for the uniform mix and deploys it.
func (t *Tenant) bootstrap() error {
	if err := t.adv.TrainOffline(t.dep.OfflineCost(), nil); err != nil {
		return fmt.Errorf("serve: tenant %s offline bootstrap: %w", t.Spec.ID, err)
	}
	st, _, err := t.adv.Suggest(t.wl.UniformFreq())
	if err != nil {
		return fmt.Errorf("serve: tenant %s bootstrap suggestion: %w", t.Spec.ID, err)
	}
	t.eng.Deploy(st, nil)
	t.snap.Store(&advisorSnap{episodes: t.adv.EpisodesTrained})
	return nil
}

// discard releases a tenant whose advising loop never started.
func (t *Tenant) discard() {
	t.advCancel()
	close(t.advDone)
}

// startAdvising launches the background advising loop.
func (t *Tenant) startAdvising() {
	go t.adviseLoop(time.Duration(t.Spec.AdviseEveryMS) * time.Millisecond)
}

// stopAdvising cancels the loop and waits for it to exit. Safe to call
// more than once.
func (t *Tenant) stopAdvising() {
	t.advCancel()
	<-t.advDone
}

// adviseLoop periodically rotates the observed workload window, refines
// the advisor online against the live engine (inside the guard envelope),
// and deploys the best-known design for the observed mix. Under overload
// tier >= 1 the loop idles: cycles are skipped before they start, and the
// Stop poll cuts an in-flight cycle at its next episode boundary.
func (t *Tenant) adviseLoop(every time.Duration) {
	defer close(t.advDone)
	// Generation 0 is written here, not in CreateTenant: the advising
	// goroutine is the advisor's single owner, so writing from the loop
	// needs no locking. A tenant that dies before its first interval
	// still recovers — from this bootstrap snapshot.
	if t.nextGen.Load() == 0 {
		t.saveGeneration()
		t.lastCkpt = time.Now()
	}
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-t.advCtx.Done():
			return
		case <-tick.C:
		}
		if t.paused != nil && t.paused() {
			t.pausedCycles.Add(1)
		} else {
			t.adviseOnce()
		}
		t.maybeCheckpoint()
	}
}

// maybeCheckpoint writes a new checkpoint generation if the interval has
// elapsed. Called only from the advising goroutine between cycles — an
// episode boundary, so the advisor is never snapshotted mid-step.
func (t *Tenant) maybeCheckpoint() {
	if time.Since(t.lastCkpt) < t.ckptEvery {
		return
	}
	t.saveGeneration()
	t.lastCkpt = time.Now()
}

// saveGeneration writes the next checkpoint generation atomically into
// the tenant's directory, which exists from creation on, and prunes old
// ones. Single-owner: callers are the advising goroutine (at an episode
// boundary) or the server after stopAdvising.
func (t *Tenant) saveGeneration() (string, error) {
	gen := t.nextGen.Add(1) - 1
	path := generationPath(t.ckptDir, gen)
	ck, err := t.adv.Checkpoint()
	var data []byte
	if err == nil {
		data, err = core.EncodeCheckpoint(ck)
	}
	if err == nil {
		err = durable.Replace(t.fs, path, data)
	}
	if err != nil {
		t.ckptErrs.Add(1)
		return "", fmt.Errorf("serve: tenant %s generation %d: %w", t.Spec.ID, gen, err)
	}
	t.ckptWrites.Add(1)
	t.pruneGenerations()
	return path, nil
}

// pruneGenerations removes all but the newest checkpointKeep generations.
func (t *Tenant) pruneGenerations() {
	gens, err := listGenerations(t.ckptDir)
	if err != nil || len(gens) <= checkpointKeep {
		return
	}
	for _, g := range gens[checkpointKeep:] {
		t.fs.Remove(g.Path)
	}
}

// restoreCheckpoint restores a verified checkpoint into a fresh advisor on
// the tenant's deployment and deploys its suggestion for the uniform mix,
// so the engine's layout matches the restored policy. The tenant's advisor
// is replaced only on success: a Restore that fails part-way leaves the
// tenant's advisor untouched, and the next attempt starts fresh again. The
// restored state is on disk already, so the checkpoint interval restarts
// now. Must run before startAdvising.
func (t *Tenant) restoreCheckpoint(ck *core.Checkpoint) error {
	adv, err := t.freshAdvisor()
	if err != nil {
		return err
	}
	if err := adv.Restore(ck); err != nil {
		return err
	}
	st, _, err := adv.Suggest(t.wl.UniformFreq())
	if err != nil {
		return fmt.Errorf("serve: tenant %s post-restore suggestion: %w", t.Spec.ID, err)
	}
	t.adv = adv
	t.eng.Deploy(st, nil)
	t.snap.Store(&advisorSnap{episodes: adv.EpisodesTrained})
	t.lastCkpt = time.Now()
	return nil
}

// adviseOnce runs one advising cycle against the current observed mix.
func (t *Tenant) adviseOnce() {
	t.monMu.Lock()
	observed := t.mon.Observed()
	mix := t.mon.Rotate()
	t.monMu.Unlock()
	if observed == 0 {
		// Nothing seen this window: nothing to adapt to.
		return
	}
	sampler := func(*rand.Rand) workload.FreqVector { return mix }
	err := t.adv.TrainOnline(t.oc, sampler)
	interrupted := errors.Is(err, core.ErrStopped)
	if interrupted {
		t.pauseInterrupt.Add(1)
	} else if err != nil {
		// Configuration errors cannot heal by retrying; record the cycle
		// and keep serving traffic with the current design.
		t.adviseCycles.Add(1)
		t.publishSnap(mix)
		return
	}
	if !interrupted && t.advCtx.Err() == nil {
		// Deploy the best-known design for the observed mix (the runtime
		// cache makes ranking visited designs nearly free, and Deploy
		// no-ops per table when the design is already in place).
		if st, _, err := t.adv.SuggestBest(mix, t.oc); err == nil && st != nil {
			_, before, _ := t.eng.Counters()
			t.eng.Deploy(st, nil)
			if _, after, _ := t.eng.Counters(); after != before {
				t.deploys.Add(1)
			}
		}
	}
	t.adviseCycles.Add(1)
	t.publishSnap(mix)
}

// publishSnap refreshes the lock-free advisor snapshot after a cycle.
func (t *Tenant) publishSnap(mix workload.FreqVector) {
	ns := &advisorSnap{
		episodes: t.adv.EpisodesTrained,
		online:   t.oc.Stats,
	}
	if c, ok := bestCachedCost(t.oc, mix); ok {
		ns.bestCost = c
	}
	t.snap.Store(ns)
}

// bestCachedCost returns the cheapest fully-cached cost over the visited
// designs for the mix.
func bestCachedCost(oc *core.OnlineCost, mix workload.FreqVector) (float64, bool) {
	best, ok := 0.0, false
	for _, st := range oc.Visited() {
		if c, hit := oc.CachedCost(st, mix); hit && (!ok || c < best) {
			best, ok = c, true
		}
	}
	return best, ok
}

// Stats assembles the tenant's published statistics.
func (t *Tenant) Stats() TenantStats {
	qx, reps, moved := t.eng.Counters()
	s := TenantStats{
		ID:              t.Spec.ID,
		Bench:           t.Spec.Bench,
		Weight:          t.Spec.Weight,
		Batches:         t.batches.Load(),
		Queries:         t.queries.Load(),
		Shed:            t.shed.Load(),
		DeadlineMisses:  t.deadlineMisses.Load(),
		AdviseCycles:    t.adviseCycles.Load(),
		PausedCycles:    t.pausedCycles.Load(),
		PauseInterrupt:  t.pauseInterrupt.Load(),
		Deploys:         t.deploys.Load(),
		QueriesExecuted: qx,
		Repartitions:    reps,
		BytesMoved:      moved,
		SimSeconds:      t.eng.SimNow(),
		Design:          make(map[string]string),

		CheckpointsWritten: t.ckptWrites.Load(),
		CheckpointErrors:   t.ckptErrs.Load(),
		RestoredGeneration: t.restoredGen.Load(),
	}
	if snap := t.snap.Load(); snap != nil {
		s.EpisodesTrained = snap.episodes
		s.BestCost = snap.bestCost
		s.Online = snap.online
	}
	for _, tbl := range t.eng.Schema.TableNames() {
		s.Design[tbl] = t.eng.CurrentDesign(tbl).String()
	}
	return s
}

// BatchResult is the outcome of one admitted batch execution.
type BatchResult struct {
	Requested    int
	Completed    int
	SimSeconds   float64
	Aborts       int
	DeadlineMiss bool
	// Cancelled marks a request whose deadline expired while it was still
	// queued: nothing executed, nothing was charged, and the tenant's
	// batch counter was not advanced.
	Cancelled bool
}

// execBatch runs an admitted batch on the tenant's engine under ctx, fanned
// out over GOMAXPROCS workers, and feeds the charged prefix into the
// workload monitor. names[i] labels
// qs[i] for monitor accounting.
func (t *Tenant) execBatch(ctx context.Context, qs []exec.BatchQuery, names []string) BatchResult {
	rep := t.eng.Exec(ctx, exec.Request{Queries: qs})
	res := BatchResult{
		Requested:    len(qs),
		Completed:    rep.Completed,
		SimSeconds:   rep.Seconds,
		Aborts:       rep.Aborts,
		DeadlineMiss: ctx.Err() != nil,
	}
	t.batches.Add(1)
	t.queries.Add(int64(rep.Completed))
	if res.DeadlineMiss {
		t.deadlineMisses.Add(1)
	}
	t.monMu.Lock()
	for i := 0; i < rep.Completed; i++ {
		// Only charged executions feed the observed mix.
		_ = t.mon.Record(names[i], 1)
	}
	t.monMu.Unlock()
	return res
}

// maxBatchPositions bounds queries × repeat of one batch. Both factors
// arrive in a request body, and their product sizes an allocation.
const maxBatchPositions = 4096

// resolveQueries maps query names (empty = the whole workload), repeated
// `repeat` times (0 = once), to batch entries. It rejects negative values
// and batches over maxBatchPositions.
func (t *Tenant) resolveQueries(names []string, repeat int, limit float64) ([]exec.BatchQuery, []string, error) {
	if repeat < 0 || limit < 0 {
		return nil, nil, fmt.Errorf("serve: repeat %d and limit_sec %g must not be negative", repeat, limit)
	}
	if repeat == 0 {
		repeat = 1
	}
	if len(names) == 0 {
		names = make([]string, len(t.wl.Queries))
		for i, q := range t.wl.Queries {
			names[i] = q.Name
		}
	}
	if repeat > maxBatchPositions || len(names) > maxBatchPositions/repeat {
		return nil, nil, fmt.Errorf("serve: batch of %d queries x %d repeats exceeds %d positions", len(names), repeat, maxBatchPositions)
	}
	qs := make([]exec.BatchQuery, 0, len(names)*repeat)
	labels := make([]string, 0, len(names)*repeat)
	for r := 0; r < repeat; r++ {
		for _, n := range names {
			q := t.wl.Query(n)
			if q == nil {
				return nil, nil, fmt.Errorf("serve: tenant %s has no query %q", t.Spec.ID, n)
			}
			qs = append(qs, exec.BatchQuery{Graph: q.Graph, Limit: limit})
			labels = append(labels, n)
		}
	}
	return qs, labels, nil
}

// Explain returns the tenant engine's plan for a named query (lock-free:
// it never waits behind running batches).
func (t *Tenant) Explain(name string) ([]string, float64, error) {
	q := t.wl.Query(name)
	if q == nil {
		return nil, 0, fmt.Errorf("serve: tenant %s has no query %q", t.Spec.ID, name)
	}
	plan, sec := t.eng.Explain(q.Graph)
	return plan, sec, nil
}
