package exec

// The contract suite of Engine.Exec: one set of table-driven tests over two
// databases (the micro schema of this package's tests and SSB), every worker
// count of workerSweep, and both kinds of request (deployed, what-if).

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"partadvisor/internal/benchmarks"
	"partadvisor/internal/faults"
	"partadvisor/internal/hardware"
	"partadvisor/internal/partition"
	"partadvisor/internal/relation"
	"partadvisor/internal/schema"
	"partadvisor/internal/sqlparse"
)

// workerSweep is the worker counts every determinism check runs at: inline,
// two, more than this host has cores, and GOMAXPROCS (0).
var workerSweep = []int{1, 2, 4, 0}

// fixture is one database the suite runs on.
type fixture struct {
	name  string
	sch   *schema.Schema
	data  map[string]*relation.Relation
	space *partition.Space
	gs    []*sqlparse.Graph
	// designs are the candidate layouts (buildState specs) the what-if
	// checks sweep; designs[0] is the initial layout.
	designs []map[string]string
	// fact is the table BulkLoad grows.
	fact string
}

func (f *fixture) engine() *Engine {
	return New(f.sch, f.data, hardware.PostgresXLDisk(), Disk)
}

// bulk is a deterministic batch of extra fact rows.
func (f *fixture) bulk() *relation.Relation {
	return f.data[f.fact].Sample(0.1, 10, rand.New(rand.NewSource(3)))
}

func microFixture(t *testing.T) *fixture {
	return &fixture{
		name:  "micro",
		sch:   engSchema(),
		data:  engData(50, 400, 1200, 1),
		space: engSpace(),
		gs:    batchGraphs(t),
		designs: []map[string]string{
			{},
			{"customer": "R"},
			{"orders": "o_c_id"},
			{"orders": "R", "customer": "R"},
			{"orders": "o_c_id", "customer": "R", "orderline": "ol_o_id"},
		},
		fact: "orders",
	}
}

func ssbFixture() *fixture {
	b := benchmarks.SSB()
	return &fixture{
		name:  "ssb",
		sch:   b.Schema,
		data:  b.Generate(0.1, 5),
		space: b.Space(),
		gs:    b.Workload.Graphs(),
		designs: []map[string]string{
			{},
			{"customer": "R"},
			{"lineorder": "lo_custkey"},
			{"date": "R", "supplier": "R", "part": "R", "customer": "R"},
			{"lineorder": "lo_partkey", "date": "R", "supplier": "R"},
		},
		fact: "lineorder",
	}
}

func forEachFixture(t *testing.T, fn func(t *testing.T, f *fixture)) {
	for _, f := range []*fixture{microFixture(t), ssbFixture()} {
		f := f
		t.Run(f.name, func(t *testing.T) { fn(t, f) })
	}
}

// batchGraphs builds a mixed bag of micro queries (joins, filters,
// semijoins, antijoins) large enough to exercise the worker pool.
func batchGraphs(t *testing.T) []*sqlparse.Graph {
	t.Helper()
	sqls := []string{
		"SELECT * FROM orders o, customer c WHERE o.o_c_id = c.c_id",
		"SELECT * FROM orders WHERE o_amount > 100",
		"SELECT * FROM orders o, customer c WHERE o.o_c_id = c.c_id AND c.c_region = 2",
		"SELECT * FROM customer c WHERE c.c_id IN (SELECT o.o_c_id FROM orders o WHERE o.o_amount > 500)",
		"SELECT * FROM orderline l, orders o WHERE l.ol_o_id = o.o_id",
		"SELECT * FROM customer c WHERE c.c_id NOT IN (SELECT o.o_c_id FROM orders o)",
	}
	var gs []*sqlparse.Graph
	for i := 0; i < 3; i++ { // repeat so len(gs) > any worker count used
		for _, s := range sqls {
			gs = append(gs, engGraph(t, s))
		}
	}
	return gs
}

// contractFaults arms everything at once: transient failures, a crashed
// node and a straggler, all active from t = 0.
func contractFaults() *faults.Injector {
	return faults.MustNew(faults.Config{
		Seed:                 11,
		TransientFailureRate: 0.2,
		Crashes:              []faults.NodeCrash{{Node: 2, Window: faults.Window{Start: 0, End: 1e9}}},
		Stragglers: []faults.Straggler{
			{Node: 1, Factor: 2.5, Window: faults.Window{Start: 0, End: 1e9}},
		},
	})
}

// requireSameReport asserts two reports agree bit for bit: totals, every
// per-position report and every error.
func requireSameReport(t *testing.T, label string, got, want BatchReport) {
	t.Helper()
	if got.Completed != want.Completed || got.Seconds != want.Seconds ||
		got.Aborts != want.Aborts || got.DegradedSeconds != want.DegradedSeconds {
		t.Fatalf("%s: totals (%d, %v, %d, %v) != (%d, %v, %d, %v)", label,
			got.Completed, got.Seconds, got.Aborts, got.DegradedSeconds,
			want.Completed, want.Seconds, want.Aborts, want.DegradedSeconds)
	}
	for i := range want.Reports {
		if got.Reports[i] != want.Reports[i] {
			t.Fatalf("%s: position %d report %+v != %+v", label, i, got.Reports[i], want.Reports[i])
		}
		ge, we := "", ""
		if got.Errs[i] != nil {
			ge = got.Errs[i].Error()
		}
		if want.Errs[i] != nil {
			we = want.Errs[i].Error()
		}
		if ge != we {
			t.Fatalf("%s: position %d error %q != %q", label, i, ge, we)
		}
	}
}

// checkChargedPrefix asserts the frozen-cursor accounting invariants of a
// cut deployed batch on a fresh engine: totals are the position-ordered
// sums of exactly the charged prefix, discarded positions are zeroed with
// ErrBatchAborted, and the engine clock and query counter advanced only by
// the prefix.
func checkChargedPrefix(t *testing.T, e *Engine, rep BatchReport) {
	t.Helper()
	var sec, deg float64
	for i := 0; i < rep.Completed; i++ {
		if errors.Is(rep.Errs[i], ErrBatchAborted) {
			t.Fatalf("charged position %d marked ErrBatchAborted", i)
		}
		sec += rep.Reports[i].Seconds
		deg += rep.Reports[i].DegradedSeconds
	}
	if rep.Seconds != sec || rep.DegradedSeconds != deg {
		t.Fatalf("totals (%v, %v) != position-ordered prefix sums (%v, %v)",
			rep.Seconds, rep.DegradedSeconds, sec, deg)
	}
	for i := rep.Completed; i < len(rep.Reports); i++ {
		if !errors.Is(rep.Errs[i], ErrBatchAborted) {
			t.Fatalf("discarded position %d: err = %v, want ErrBatchAborted", i, rep.Errs[i])
		}
		if rep.Reports[i] != (RunReport{}) {
			t.Fatalf("discarded position %d has non-zero report %+v", i, rep.Reports[i])
		}
	}
	if got := e.SimNow(); got != rep.Seconds {
		t.Fatalf("clock advanced to %v, want the charged %v", got, rep.Seconds)
	}
	if q, _, _ := e.Counters(); q != rep.Completed {
		t.Fatalf("QueriesExecuted = %d, want charged prefix %d", q, rep.Completed)
	}
}

// (a) Fault-free, a query run alone reports exactly what it reports at its
// position of the full batch — on the deployed layout and under a what-if
// design, at every worker count — and the batch total is the
// position-ordered sum. Nil Abort charges every position.
func TestRunBatchMatchesSequential(t *testing.T) {
	forEachFixture(t, func(t *testing.T, f *fixture) {
		for _, design := range []*partition.State{nil, buildState(t, f.space, f.designs[1])} {
			solo := f.engine()
			alone := make([]RunReport, len(f.gs))
			var total float64
			for i, g := range f.gs {
				rep := solo.Exec(context.Background(), Request{Queries: Queries(f.gs[i:i+1], 0), Design: design})
				if rep.Errs[0] != nil || rep.Completed != 1 {
					t.Fatalf("query %d (%s) alone: %+v", i, g.Refs[0].Table, rep)
				}
				alone[i] = rep.Reports[0]
				total += rep.Seconds
			}
			for _, workers := range workerSweep {
				e := f.engine()
				rep := e.Exec(context.Background(), Request{Queries: Queries(f.gs, 0), Workers: workers, Design: design})
				for i := range f.gs {
					if rep.Reports[i] != alone[i] || rep.Errs[i] != nil {
						t.Fatalf("whatif=%v workers=%d position %d: batch (%+v, %v) != alone %+v",
							design != nil, workers, i, rep.Reports[i], rep.Errs[i], alone[i])
					}
				}
				if rep.Seconds != total || rep.Completed != len(f.gs) {
					t.Fatalf("whatif=%v workers=%d: batch (%v, %d) != sequential (%v, %d)",
						design != nil, workers, rep.Seconds, rep.Completed, total, len(f.gs))
				}
				if design == nil {
					checkChargedPrefix(t, e, rep)
				}
			}
		}
	})
}

// (b) Pricing a design before deploying it equals measuring it after the
// deploy, bit for bit — also once the fact table has grown and the
// optimizer statistics were refreshed.
func TestEvalDesignSnapshotMatchesDeployedMeasurement(t *testing.T) {
	forEachFixture(t, func(t *testing.T, f *fixture) {
		for di, mods := range f.designs {
			st := buildState(t, f.space, mods)
			for _, workers := range workerSweep {
				whatIf, deployed := f.engine(), f.engine()
				deployed.Deploy(st, nil)
				for _, stage := range []string{"fresh", "after BulkLoad+Analyze"} {
					got := whatIf.Exec(context.Background(), Request{Queries: Queries(f.gs, 0), Workers: workers, Design: st})
					want := deployed.Exec(context.Background(), Request{Queries: Queries(f.gs, 0), Workers: workers})
					requireSameReport(t, stage+": what-if vs deployed", got, want)
					if want.Completed != len(f.gs) || want.Seconds <= 0 {
						t.Fatalf("design %d: deployed measurement is empty: %+v", di, want)
					}
					for _, e := range []*Engine{whatIf, deployed} {
						if err := e.BulkLoad(f.fact, f.bulk()); err != nil {
							t.Fatal(err)
						}
						e.Analyze()
					}
				}
			}
		}
	})
}

// TestEvalDesignSnapshotBitIdenticalAcrossWorkers: the what-if report is
// the same at every worker count.
func TestEvalDesignSnapshotBitIdenticalAcrossWorkers(t *testing.T) {
	forEachFixture(t, func(t *testing.T, f *fixture) {
		e := f.engine()
		st := buildState(t, f.space, f.designs[4])
		base := e.Exec(context.Background(), Request{Queries: Queries(f.gs, 0), Workers: 1, Design: st})
		for _, workers := range workerSweep[1:] {
			rep := e.Exec(context.Background(), Request{Queries: Queries(f.gs, 0), Workers: workers, Design: st})
			requireSameReport(t, "what-if worker sweep", rep, base)
		}
	})
}

// TestRunBatchDeterministicUnderFaults: with everything armed the whole
// report — per-position runtimes, errors, degraded time — and the heat
// matrix are identical for every worker count.
func TestRunBatchDeterministicUnderFaults(t *testing.T) {
	forEachFixture(t, func(t *testing.T, f *fixture) {
		run := func(workers int) (BatchReport, uint64) {
			e := f.engine()
			e.SetFaults(contractFaults())
			rep := e.Exec(context.Background(), Request{Queries: Queries(f.gs, 0), Workers: workers})
			return rep, e.ShardHeat().Digest()
		}
		base, baseHeat := run(1)
		var sawTransient, sawDegraded bool
		for i := range f.gs {
			sawTransient = sawTransient || isTransient(base.Errs[i])
			sawDegraded = sawDegraded || base.Reports[i].DegradedSeconds > 0
		}
		if !sawTransient || !sawDegraded {
			t.Fatalf("armed schedule: transient seen %v, degraded seen %v", sawTransient, sawDegraded)
		}
		for _, workers := range workerSweep[1:] {
			got, heat := run(workers)
			requireSameReport(t, "faulted worker sweep", got, base)
			if heat != baseHeat {
				t.Fatalf("workers=%d heat digest %x != %x", workers, heat, baseHeat)
			}
		}
	})
}

// TestRunBatchTransientDrawsPositional pins the one transient-failure
// derivation: verdicts are TransientFailureAt(batch number, position),
// successive deployed requests use successive batch numbers, a single query
// is position 0 of its own batch number, and what-if requests neither fail
// nor consume a batch number.
func TestRunBatchTransientDrawsPositional(t *testing.T) {
	e := New(engSchema(), engData(30, 150, 300, 2), hardware.PostgresXLDisk(), Disk)
	in := faults.MustNew(faults.Config{Seed: 5, TransientFailureRate: 0.3})
	e.SetFaults(in)
	gs := batchGraphs(t)

	batch := uint64(0)
	check := func(rep BatchReport) {
		t.Helper()
		for i := range rep.Reports {
			want := in.TransientFailureAt(batch, i)
			if got := rep.Errs[i] != nil; got != want {
				t.Fatalf("batch %d position %d: failed=%v, positional verdict says %v", batch, i, got, want)
			}
			if rep.Errs[i] != nil && !isTransient(rep.Errs[i]) {
				t.Fatalf("batch %d position %d: error %v is not transient", batch, i, rep.Errs[i])
			}
		}
		batch++
	}
	sawSingleFail := false
	for round := 0; round < 12; round++ {
		check(e.Exec(context.Background(), Request{Queries: Queries(gs, 0)}))
		single := e.Exec(context.Background(), Request{Queries: Queries(gs[:1], 0)})
		sawSingleFail = sawSingleFail || single.Errs[0] != nil
		check(single)
		whatIf := e.Exec(context.Background(), Request{Queries: Queries(gs, 0), Design: engSpace().InitialState()})
		for i, err := range whatIf.Errs {
			if err != nil {
				t.Fatalf("what-if position %d failed: %v", i, err)
			}
		}
	}
	if !sawSingleFail {
		t.Fatal("12 single-query requests at rate 0.3 never failed; the check is vacuous")
	}
}

// TestRunBatchLimits: a §4.2 limit aborts and clamps the query, and the
// empty request is a no-op.
func TestRunBatchLimits(t *testing.T) {
	e, _ := newEngine(t)
	gs := batchGraphs(t)

	full := e.Exec(context.Background(), Request{Queries: Queries(gs, 0)})
	if full.Aborts != 0 {
		t.Fatalf("unlimited batch aborted %d queries", full.Aborts)
	}
	limit := full.Reports[0].Seconds / 2
	lim := e.Exec(context.Background(), Request{Queries: Queries(gs[:1], limit)})
	if lim.Aborts != 1 || !lim.Reports[0].Aborted {
		t.Fatal("half-runtime limit did not abort the query")
	}
	if lim.Reports[0].Seconds > limit {
		t.Fatalf("aborted query consumed %v > limit %v", lim.Reports[0].Seconds, limit)
	}

	before := e.SimNow()
	empty := e.Exec(context.Background(), Request{})
	if empty.Seconds != 0 || len(empty.Reports) != 0 || e.SimNow() != before {
		t.Fatal("empty request is not a no-op")
	}
}

// thresholdAbort is the canary pattern: abort from OnResult once the
// cumulative seconds cross a threshold. It records the delivery order.
func thresholdAbort(threshold float64) (r Request, order *[]int) {
	abort := &BatchAbort{}
	order = new([]int)
	var sum float64
	return Request{Abort: abort, OnResult: func(pos int, rep RunReport, err error) {
		*order = append(*order, pos)
		sum += rep.Seconds
		if sum > threshold {
			abort.Set()
		}
	}}, order
}

// (c) An abort raised from the in-order OnResult callback cuts the batch at
// the same position for every worker count — deployed and what-if — with
// results delivered in strict position order, discarded positions zeroed,
// and clock and counters advanced only by the prefix.
func TestRunBatchAbortThresholdDeterministic(t *testing.T) {
	forEachFixture(t, func(t *testing.T, f *fixture) {
		full := f.engine().Exec(context.Background(), Request{Queries: Queries(f.gs, 0), Workers: 1})
		threshold := full.Seconds / 3
		for _, design := range []*partition.State{nil, f.space.InitialState()} {
			var base BatchReport
			for _, workers := range workerSweep {
				e := f.engine()
				req, order := thresholdAbort(threshold)
				req.Queries, req.Workers, req.Design = Queries(f.gs, 0), workers, design
				rep := e.Exec(context.Background(), req)
				if workers == workerSweep[0] {
					base = rep
					if rep.Completed == 0 || rep.Completed >= len(f.gs) {
						t.Fatalf("threshold abort cut at %d of %d — want a mid-batch cut", rep.Completed, len(f.gs))
					}
				}
				requireSameReport(t, "threshold abort", rep, base)
				if len(*order) != rep.Completed {
					t.Fatalf("workers=%d delivered %d results, charged %d", workers, len(*order), rep.Completed)
				}
				for i, pos := range *order {
					if pos != i {
						t.Fatalf("workers=%d OnResult out of position order: %v", workers, *order)
					}
				}
				if design == nil {
					checkChargedPrefix(t, e, rep)
				} else if q, _, _ := e.Counters(); q != 0 || e.SimNow() != 0 {
					t.Fatalf("aborted what-if moved counters (%d) or clock (%v)", q, e.SimNow())
				}
			}
		}
	})
}

// (c) with an injector armed: the abort prefix, the totals and the heat
// digest are identical at every worker count.
func TestRunBatchAbortUnderFaults(t *testing.T) {
	forEachFixture(t, func(t *testing.T, f *fixture) {
		cut := len(f.gs) / 2
		run := func(workers int) (BatchReport, uint64) {
			e := f.engine()
			e.SetFaults(contractFaults())
			var abort BatchAbort
			rep := e.Exec(context.Background(), Request{Queries: Queries(f.gs, 0), Workers: workers, Abort: &abort,
				OnResult: func(pos int, r RunReport, err error) {
					if pos+1 >= cut {
						abort.Set()
					}
				}})
			checkChargedPrefix(t, e, rep)
			return rep, e.ShardHeat().Digest()
		}
		base, baseHeat := run(1)
		if base.Completed != cut {
			t.Fatalf("count abort cut at %d, want %d", base.Completed, cut)
		}
		for _, workers := range workerSweep[1:] {
			got, heat := run(workers)
			requireSameReport(t, "faulted abort", got, base)
			if heat != baseHeat {
				t.Fatalf("workers=%d heat digest %x != %x", workers, heat, baseHeat)
			}
		}
	})
}

// TestRunBatchAbortPreSet: an abort that fired before the call (external
// shutdown) charges nothing.
func TestRunBatchAbortPreSet(t *testing.T) {
	e, _ := newEngine(t)
	gs := batchGraphs(t)
	var abort BatchAbort
	abort.Set()
	for _, workers := range workerSweep {
		rep := e.Exec(context.Background(), Request{Queries: Queries(gs, 0), Workers: workers, Abort: &abort})
		if rep.Completed != 0 {
			t.Fatalf("workers=%d pre-set abort charged %d queries", workers, rep.Completed)
		}
		checkChargedPrefix(t, e, rep)
	}
}

// TestRunBatchNilAbortUnchanged: an Abort that never fires changes nothing
// against a nil one — every position charged, identical reports.
func TestRunBatchNilAbortUnchanged(t *testing.T) {
	forEachFixture(t, func(t *testing.T, f *fixture) {
		plain := f.engine().Exec(context.Background(), Request{Queries: Queries(f.gs, 0), Workers: 1})
		armed := f.engine().Exec(context.Background(), Request{Queries: Queries(f.gs, 0), Abort: &BatchAbort{},
			OnResult: func(int, RunReport, error) {}})
		if plain.Completed != len(f.gs) {
			t.Fatalf("Completed = %d, want %d", plain.Completed, len(f.gs))
		}
		requireSameReport(t, "unset abort vs nil", armed, plain)
	})
}

// bigBatch repeats the micro query bag until the batch's wall-clock runtime
// is far above any deadline the tests use.
func bigBatch(t *testing.T, copies int) []*sqlparse.Graph {
	t.Helper()
	base := batchGraphs(t)
	gs := make([]*sqlparse.Graph, 0, copies*len(base))
	for i := 0; i < copies; i++ {
		gs = append(gs, base...)
	}
	return gs
}

// TestRunBatchCtxDeadlineCutsBatch: a batch whose runtime vastly exceeds the
// context deadline is cut early with consistent accounting at every worker
// count.
func TestRunBatchCtxDeadlineCutsBatch(t *testing.T) {
	gs := bigBatch(t, 2000) // tens of thousands of queries; wall-clock runtime >> deadline
	for _, workers := range workerSweep {
		e, _ := newEngine(t)
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		rep := e.Exec(ctx, Request{Queries: Queries(gs, 0), Workers: workers})
		cancel()
		if rep.Completed >= len(gs) {
			t.Fatalf("workers=%d: batch of %d completed in full despite the deadline", workers, len(gs))
		}
		checkChargedPrefix(t, e, rep)
	}
}

// (d) A context that is done before the request starts charges nothing and
// leaves the engine untouched, deployed or what-if.
func TestRunBatchCtxAlreadyCancelled(t *testing.T) {
	forEachFixture(t, func(t *testing.T, f *fixture) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		for _, design := range []*partition.State{nil, buildState(t, f.space, f.designs[1])} {
			for _, workers := range workerSweep {
				e := f.engine()
				heat := e.ShardHeat().Digest()
				rep := e.Exec(ctx, Request{Queries: Queries(f.gs, 0), Workers: workers, Design: design})
				if rep.Completed != 0 {
					t.Fatalf("cancelled-before-start request charged %d positions", rep.Completed)
				}
				checkChargedPrefix(t, e, rep)
				if e.ShardHeat().Digest() != heat {
					t.Fatal("cancelled request recorded shard heat")
				}
			}
		}
	})
}

// TestRunBatchCtxCancelMidBatch cancels from the in-order result callback
// (the first delivered position) and checks the batch stops promptly with
// consistent accounting — the pattern a request handler's disconnect takes.
func TestRunBatchCtxCancelMidBatch(t *testing.T) {
	gs := bigBatch(t, 50)
	for _, workers := range workerSweep {
		e, _ := newEngine(t)
		ctx, cancel := context.WithCancel(context.Background())
		rep := e.Exec(ctx, Request{Queries: Queries(gs, 0), Workers: workers,
			OnResult: func(pos int, r RunReport, err error) {
				if pos == 0 {
					cancel()
				}
			}})
		cancel()
		if rep.Completed == 0 {
			t.Fatalf("workers=%d: cancel fired before any delivery (want >= 1 charged)", workers)
		}
		if rep.Completed >= len(gs) {
			t.Fatalf("workers=%d: batch of %d completed in full despite cancel at position 0", workers, len(gs))
		}
		checkChargedPrefix(t, e, rep)
	}
}

// TestRunBatchCtxNoDeadlinePassthrough: a cancellable context that is never
// cancelled changes nothing against Background.
func TestRunBatchCtxNoDeadlinePassthrough(t *testing.T) {
	forEachFixture(t, func(t *testing.T, f *fixture) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		plain := f.engine().Exec(context.Background(), Request{Queries: Queries(f.gs, 0)})
		ctxed := f.engine().Exec(ctx, Request{Queries: Queries(f.gs, 0)})
		requireSameReport(t, "live ctx vs Background", ctxed, plain)
	})
}

// (e) What-if requests — even interleaved with deployed batches, with faults
// armed — move no counter, clock, heat, revision, batch number or published
// view. Two engines run the identical deployed-operation sequence; one
// additionally prices every candidate design between every step. Every
// deployed observation must match.
func TestEvalDesignSnapshotPerturbsNothing(t *testing.T) {
	forEachFixture(t, func(t *testing.T, f *fixture) {
		control, probed := f.engine(), f.engine()
		control.SetFaults(contractFaults())
		probed.SetFaults(contractFaults())

		speculate := func() {
			view := probed.loadView()
			for _, mods := range f.designs {
				probed.Exec(context.Background(), Request{Queries: Queries(f.gs, 0), Workers: 2, Design: buildState(t, f.space, mods)})
			}
			if probed.loadView() != view {
				t.Fatal("what-if request published a new engine view")
			}
		}

		for step, mods := range []map[string]string{f.designs[2], f.designs[1], f.designs[0]} {
			speculate()
			st := buildState(t, f.space, mods)
			if secC, secP := control.Deploy(st, nil), probed.Deploy(st, nil); secC != secP {
				t.Fatalf("step %d: deploy seconds diverge %v vs %v", step, secC, secP)
			}
			speculate()
			repC := control.Exec(context.Background(), Request{Queries: Queries(f.gs, 0), Workers: 2})
			repP := probed.Exec(context.Background(), Request{Queries: Queries(f.gs, 0), Workers: 2})
			requireSameReport(t, "deployed batch beside what-ifs", repP, repC)
			if control.SimNow() != probed.SimNow() {
				t.Fatalf("step %d: clocks diverge %v vs %v", step, control.SimNow(), probed.SimNow())
			}
			qc, rc, bc := control.Counters()
			qp, rp, bp := probed.Counters()
			if qc != qp || rc != rp || bc != bp {
				t.Fatalf("step %d: counters diverge (%d,%d,%d) vs (%d,%d,%d)", step, qp, rp, bp, qc, rc, bc)
			}
			if control.Cluster().Revision() != probed.Cluster().Revision() {
				t.Fatalf("step %d: revisions diverge", step)
			}
			if control.ShardHeat().Digest() != probed.ShardHeat().Digest() {
				t.Fatalf("step %d: heat diverges", step)
			}
		}
	})
}

// TestEvalDesignSnapshotConcurrent runs what-if evaluations concurrently
// under the race detector: many goroutines price different candidate
// designs at once while results must stay bit-identical to the quiet
// single-goroutine evaluations.
func TestEvalDesignSnapshotConcurrent(t *testing.T) {
	f := microFixture(t)
	e := f.engine()
	want := make([]BatchReport, len(f.designs))
	for i, mods := range f.designs {
		want[i] = e.Exec(context.Background(), Request{Queries: Queries(f.gs, 0), Workers: 1, Design: buildState(t, f.space, mods)})
	}

	const rounds = 4
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for i, mods := range f.designs {
			wg.Add(1)
			go func(i int, st *partition.State) {
				defer wg.Done()
				rep := e.Exec(context.Background(), Request{Queries: Queries(f.gs, 0), Workers: 1, Design: st})
				if rep.Seconds != want[i].Seconds {
					t.Errorf("design %d: concurrent what-if %v diverged from quiet evaluation %v", i, rep.Seconds, want[i].Seconds)
				}
			}(i, buildState(t, f.space, mods))
		}
	}
	wg.Wait()
}

// TestRunBatchConcurrentWithEngineOps drives parallel batches, what-ifs,
// deploys, catalog refreshes and clock reads on one engine from many
// goroutines — the -race safety net for the executor's read paths (shards,
// catalogs, relation column lookups) being mutation-free.
func TestRunBatchConcurrentWithEngineOps(t *testing.T) {
	e := New(engSchema(), engData(30, 150, 300, 2), hardware.PostgresXLDisk(), Disk)
	gs := batchGraphs(t)
	st := buildState(t, engSpace(), map[string]string{"customer": "R"})

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 5; iter++ {
				switch w {
				case 0:
					e.Exec(context.Background(), Request{Queries: Queries(gs, 0)})
				case 1:
					e.Deploy(st, nil)
					e.Analyze()
				case 2:
					e.Exec(context.Background(), Request{Queries: Queries(gs, 0), Design: st})
				default:
					e.Exec(context.Background(), Request{Queries: Queries(gs[:4], 0)})
					e.SimNow()
					e.Counters()
				}
			}
		}()
	}
	wg.Wait()
}
