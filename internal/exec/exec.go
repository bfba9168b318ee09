package exec

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"

	"partadvisor/internal/faults"
	"partadvisor/internal/partition"
	"partadvisor/internal/sqlparse"
)

// ErrBatchAborted marks a batch position that was never charged because the
// batch stopped early: either the abort signal fired before the position
// was dispatched, or its speculative result was discarded to keep the
// charged prefix deterministic (see Exec).
var ErrBatchAborted = errors.New("exec: batch aborted before this query")

// BatchAbort is a caller-owned early-stop signal for a running batch.
// Deterministic policies (the guard's canary threshold) set it from the
// batch's in-order result callback; external events (a shutdown request)
// may Set it from any goroutine at any time.
type BatchAbort struct{ flag atomic.Bool }

// Set requests the batch to stop dispatching new queries.
func (a *BatchAbort) Set() { a.flag.Store(true) }

// Aborted reports whether the abort has fired.
func (a *BatchAbort) Aborted() bool { return a.flag.Load() }

// BatchQuery pairs one query with its §4.2 time limit (0 = none): the query
// is killed once its accumulated simulated time reaches the limit, and its
// consumed time is clamped to it.
type BatchQuery struct {
	Graph *sqlparse.Graph
	Limit float64
}

// Queries pairs every graph with one uniform time limit (0 = none).
func Queries(gs []*sqlparse.Graph, limit float64) []BatchQuery {
	qs := make([]BatchQuery, len(gs))
	for i, g := range gs {
		qs[i] = BatchQuery{Graph: g, Limit: limit}
	}
	return qs
}

// RunReport is the outcome of one query execution.
type RunReport struct {
	// Seconds is the simulated time consumed (partial on failure: the
	// scheduler aborts as soon as it discovers missing data).
	Seconds float64
	// Aborted reports a §4.2 timeout abort.
	Aborted bool
	// DegradedSeconds is how much of the execution overlapped an active
	// fault window — runtimes with DegradedSeconds > 0 are not
	// steady-state measurements and must not be cached as such.
	DegradedSeconds float64
}

// BatchReport aggregates one Exec. Per-query results are indexed by the
// query's position in the request, and the scalar totals are reduced in
// position order, so the report is bit-identical regardless of worker count
// or completion order.
type BatchReport struct {
	// Reports holds each query's outcome at its batch position. Positions
	// at or past Completed are zero (never charged).
	Reports []RunReport
	// Errs holds each query's injected failure (nil on success);
	// ErrBatchAborted for positions the batch never charged.
	Errs []error
	// Completed is the length of the charged position prefix: positions
	// [0, Completed) executed and are summed into the totals. It equals
	// len(Reports) unless an abort fired.
	Completed int
	// Seconds is Σ Reports[i].Seconds in position order over the charged
	// prefix.
	Seconds float64
	// Aborts counts §4.2 timeout aborts.
	Aborts int
	// DegradedSeconds is Σ Reports[i].DegradedSeconds in position order.
	DegradedSeconds float64
}

// Request is one measurement: "run these queries under that partitioning".
type Request struct {
	// Queries are executed as one batch; a single query is a batch of one.
	Queries []BatchQuery
	// Workers bounds the worker pool: <= 0 uses GOMAXPROCS. The caller's
	// goroutine is always one of the workers, so 1 runs inline.
	Workers int
	// Abort, when non-nil, stops the batch early once Set.
	Abort *BatchAbort
	// OnResult, when non-nil, receives every charged result in strict
	// position order. It must not call back into the engine.
	OnResult func(pos int, rep RunReport, err error)
	// Design selects the layout: nil measures the deployed one, non-nil
	// prices that partitioning as a what-if overlay without deploying it.
	Design *partition.State
}

// Exec is the one way to run queries on the engine.
//
// Every request freezes what its workers read — a layout snapshot, the
// fault state, the simulated instant — once at the start, and the workers
// execute against it entirely lock-free, each with its own scratch arena
// checked out of the engine pool. All queries of a request are submitted at
// the same simulated instant. The two kinds of request differ only in which
// snapshot they read and what they commit afterwards:
//
//	                     deployed (Design == nil)        what-if (Design != nil)
//	layout               deployed snapshot               deployed snapshot overlaid with
//	                                                     Design's shard sets (materialized
//	                                                     through the cluster's shard LRU)
//	engine mutex         held for the whole request      held only to build the overlay and
//	                                                     check scratches in and out
//	faults               fault state at request start;   not consulted
//	                     transient verdicts from
//	                     (seed, batch number, position)
//	clock                starts at SimNow, advances by   pinned to 0, untouched
//	                     the charged prefix's Seconds
//	counters, heat,      charged prefix committed and    untouched: nothing is published
//	published view       republished
//
// A deployed request therefore serializes against mutations (Deploy,
// BulkLoad, Analyze, other requests) as a whole, while read-only accessors
// keep serving the previously published view; what-if requests run in
// parallel with each other and with deployed operations, and equal
// deploying the design and measuring the same batch on a fault-free engine,
// bit for bit.
//
// Abort contract: OnResult is invoked in strict position order as the
// contiguous completed prefix extends. Once Abort fires — from inside
// OnResult, externally, or because ctx is done — no new positions are
// dispatched, no further results are delivered, and the report charges
// exactly the positions delivered so far (Completed). Workers may have
// speculatively executed later positions; their results are discarded
// (zeroed, Errs = ErrBatchAborted), which keeps the charged prefix a pure
// function of position-ordered results: an abort raised only from OnResult
// cuts the batch at the same position for every worker count. Cancellation
// is an external abort — the cut position depends on timing, the accounting
// of whatever prefix was charged is exact — and a ctx that is already done
// charges nothing and leaves the clock untouched.
//
// Determinism contract: results are a pure function of (layout, optimizer
// catalog, schedule, clock, batch number, positions) — identical across
// runs and across any Workers/GOMAXPROCS values — and with no injector
// armed a query's report is the same whether it runs alone or at any
// position of a larger batch.
func (e *Engine) Exec(ctx context.Context, r Request) BatchReport {
	qs := r.Queries
	rep := BatchReport{
		Reports: make([]RunReport, len(qs)),
		Errs:    make([]error, len(qs)),
	}
	if len(qs) == 0 {
		return rep
	}
	abort := r.Abort
	if ctx.Done() != nil {
		if abort == nil {
			abort = &BatchAbort{}
		}
		if ctx.Err() != nil {
			// Already done: abort synchronously so nothing is dispatched
			// (AfterFunc alone fires in its own goroutine and could race the
			// first dispatches).
			abort.Set()
		} else {
			stop := context.AfterFunc(ctx, abort.Set)
			defer stop()
		}
	}
	aborted := func() bool { return abort != nil && abort.Aborted() }
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(qs) {
		workers = len(qs)
	}
	whatIf := r.Design != nil

	e.mu.Lock()
	defer e.mu.Unlock()
	// Everything a worker reads below is frozen for the request: the layout
	// snapshot, the fault context, the injector (immutable) and the overhead
	// constant. Workers touch no mutable engine state at all.
	var (
		lay   *layoutSnap
		inj   *faults.Injector
		fc    *faultCtx
		batch uint64
		start float64
		// heats captures each position's heat entries; only the charged prefix
		// is merged below, so speculatively executed positions past an abort
		// contribute nothing and the cumulative matrix stays a pure function of
		// the charged prefix.
		heats [][]heatEntry
	)
	if whatIf {
		lay = e.overlayLocked(r.Design)
	} else {
		defer e.publishLocked()
		e.healLocked()
		batch = e.batchSeq
		e.batchSeq++
		start = e.simNow
		inj = e.faults
		fc = e.faultCtx()
		lay = e.layoutLocked()
		heats = make([][]heatEntry, len(qs))
	}
	overhead := e.HW.QueryOverheadSec
	scratches := e.grabScratchesLocked(workers)

	runOne := func(s *execScratch, i int) {
		if inj != nil && inj.TransientFailureAt(batch, i) {
			// The query dies before doing real work (worker restart,
			// connection reset): only the fixed per-query overhead is lost.
			rep.Reports[i] = RunReport{
				Seconds:         overhead,
				DegradedSeconds: inj.DegradedOverlap(start, start+overhead),
			}
			rep.Errs[i] = &TransientError{At: start}
			return
		}
		x := s.prepare(lay, qs[i].Graph, qs[i].Limit, start, fc)
		sec, timedOut := x.run()
		out := RunReport{Seconds: sec, Aborted: timedOut}
		if inj != nil {
			out.DegradedSeconds = inj.DegradedOverlap(start, start+sec)
		}
		rep.Reports[i] = out
		rep.Errs[i] = x.err
		if heats != nil && len(x.heat) > 0 {
			heats[i] = append([]heatEntry(nil), x.heat...)
		}
		s.release() // rewind the arena; the report holds only scalars
	}

	// Delivery state: results are handed to OnResult in strict position
	// order; frozen stops delivery (and the Completed count) at the moment
	// the abort is observed, so speculatively executed later positions never
	// count.
	var dmu sync.Mutex
	done := make([]bool, len(qs))
	cursor := 0
	frozen := false
	deliver := func(i int) {
		dmu.Lock()
		defer dmu.Unlock()
		done[i] = true
		for !frozen && cursor < len(qs) && done[cursor] {
			if r.OnResult != nil {
				r.OnResult(cursor, rep.Reports[cursor], rep.Errs[cursor])
			}
			cursor++
			if aborted() {
				frozen = true
			}
		}
	}
	var next atomic.Int64
	next.Store(-1)
	work := func(s *execScratch) {
		for !aborted() {
			i := int(next.Add(1))
			if i >= len(qs) {
				return
			}
			runOne(s, i)
			deliver(i)
		}
	}
	// The caller's goroutine is the first worker; the rest start beside it.
	dispatch := func() {
		var wg sync.WaitGroup
		wg.Add(workers - 1)
		for _, s := range scratches[1:] {
			go func(s *execScratch) {
				defer wg.Done()
				work(s)
			}(s)
		}
		work(scratches[0])
		wg.Wait()
	}
	if whatIf {
		func() {
			e.mu.Unlock()
			defer e.mu.Lock()
			dispatch()
		}()
	} else {
		dispatch()
	}
	e.putScratchesLocked(scratches)

	rep.Completed = cursor
	for i := cursor; i < len(qs); i++ {
		rep.Reports[i] = RunReport{}
		rep.Errs[i] = ErrBatchAborted
	}
	for i := 0; i < cursor; i++ {
		rep.Seconds += rep.Reports[i].Seconds
		if rep.Reports[i].Aborted {
			rep.Aborts++
		}
		rep.DegradedSeconds += rep.Reports[i].DegradedSeconds
	}
	if !whatIf {
		e.QueriesExecuted += cursor
		for i := 0; i < cursor; i++ {
			e.mergeHeat(heats[i])
		}
		e.simNow += rep.Seconds
	}
	return rep
}

// RunBatch and EvalDesignSnapshot are the two spellings bench/sweep.go
// compiles against; bench/ is frozen for this change, so they stay as
// one-line forms over Exec until a benchmark PR moves it onto Exec.

// RunBatch measures the graphs on the deployed layout with a uniform limit.
func (e *Engine) RunBatch(gs []*sqlparse.Graph, limit float64) BatchReport {
	return e.Exec(context.Background(), Request{Queries: Queries(gs, limit)})
}

// EvalDesignSnapshot prices qs under the not-yet-deployed design st.
func (e *Engine) EvalDesignSnapshot(st *partition.State, qs []BatchQuery, workers int) BatchReport {
	return e.Exec(context.Background(), Request{Queries: qs, Workers: workers, Design: st})
}

// overlayLocked returns the deployed layout snapshot with every table whose
// design differs under st replaced by st's shard sets, materialized through
// the cluster's LRU shard cache (a design the training loop later commits
// to is then a pointer swap). The deployed snapshot itself is never touched.
// The caller must hold e.mu.
func (e *Engine) overlayLocked(st *partition.State) *layoutSnap {
	base := e.layoutLocked()
	lay := base
	for _, name := range e.Schema.TableNames() {
		want := designOf(st, name)
		t := base.table(name)
		if t.design.Equal(want) {
			continue
		}
		if lay == base {
			// First differing table: fork the snapshot (a map of pointers —
			// no data is copied) so base stays untouched for other readers.
			lay = &layoutSnap{
				rev:    base.rev,
				tables: make(map[string]*tableSnap, len(base.tables)),
				estCat: base.estCat,
				schema: base.schema,
				hw:     base.hw,
			}
			for n, ts := range base.tables {
				lay.tables[n] = ts
			}
		}
		shards, replica := e.cluster.MaterializeDesign(name, want)
		lay.tables[name] = &tableSnap{
			shards:   shards,
			replica:  replica,
			design:   want,
			rowWidth: t.rowWidth,
			rows:     t.rows,
			bytes:    t.bytes,
		}
	}
	return lay
}
