package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"partadvisor/internal/benchmarks"
	"partadvisor/internal/exec"
	"partadvisor/internal/hardware"
	"partadvisor/internal/partition"
	"partadvisor/internal/relation"
	"partadvisor/internal/sqlparse"
)

const (
	// sweepDesignsPerSecond sizes the walk: one design evaluation (what-if
	// + deploy + measured batch of the 60 TPC-DS queries) takes ~0.2 s on
	// the 2-core sizing host.
	sweepDesignsPerSecond = 5
	// sweepResetEvery returns the walk to the initial design, so it keeps
	// visiting both near-initial and far designs.
	sweepResetEvery = 16
	// sweepLoadEvery bulk-loads a 1 % sample of the largest table and
	// re-analyzes (the path of the paper's Fig. 4b): data grows and the
	// shard LRU is invalidated under the walk.
	sweepLoadEvery = 25
	// sweepHeavyShare: the walk never replicates a table holding at least
	// this share of all rows. Replicating a fact table doubles the batch
	// time until the next reset, so whether a seed's walk happens to take
	// one of those four actions would decide the tail and the throughput;
	// without them the designs cost alike and the tail reads cold layouts
	// (first deploys, shard-LRU misses, rebuilds after a bulk load).
	sweepHeavyShare = 0.05
)

type sweepDB struct {
	bench  *benchmarks.Benchmark
	data   map[string]*relation.Relation
	engine *exec.Engine
}

// runSweep prices a seeded random walk of TPC-DS designs on the Disk
// engine. One operation (and one work unit) is one design: what-if
// evaluation of the not-yet-deployed design, deploy, measured batch. It
// is self-checking: the what-if seconds must equal the measured seconds
// bit for bit.
func runSweep(r *run) error {
	var genMS, newMS []float64
	setup := func() sweepDB {
		start := time.Now()
		b := benchmarks.TPCDS()
		id := r.rec.begin("benchmarks.generate", noSpan, 0)
		data := b.Generate(1, r.seed)
		r.rec.end(id)
		generated := time.Now()
		id = r.rec.begin("exec.new_engine", noSpan, 0)
		eng := exec.New(b.Schema, data, hardware.PostgresXLDisk(), exec.Disk)
		r.rec.end(id)
		genMS = append(genMS, generated.Sub(start).Seconds()*1e3)
		newMS = append(newMS, time.Since(generated).Seconds()*1e3)
		// One batch on the initial layout faults in the worker scratch
		// arenas, so the first timed design is not a cold-process outlier.
		eng.RunBatch(graphs(b), 0)
		r.setupSec = append(r.setupSec, time.Since(start).Seconds())
		return sweepDB{b, data, eng}
	}
	var db sweepDB
	for i := 0; i < setupReps; i++ {
		db = setup()
	}
	b, eng := db.bench, db.engine
	sp := b.Space()

	gs := graphs(b)
	qs := make([]exec.BatchQuery, len(gs))
	for i, g := range gs {
		qs[i] = exec.BatchQuery{Graph: g}
	}
	largest, totalRows := "", 0
	for _, t := range b.Schema.Tables {
		if rel := db.data[t.Name]; rel != nil {
			totalRows += rel.Rows()
			if largest == "" || rel.Rows() > db.data[largest].Rows() {
				largest = t.Name
			}
		}
	}
	// skip marks the actions the walk never takes (see sweepHeavyShare).
	skip := make([]bool, sp.NumActions())
	for i, a := range sp.Actions() {
		if rel := db.data[sp.Tables[a.Table].Name]; a.Kind == partition.ActReplicate && rel != nil {
			skip[i] = float64(rel.Rows()) >= sweepHeavyShare*float64(totalRows)
		}
	}

	designs := sweepDesignsPerSecond * r.seconds
	walk := rand.New(rand.NewSource(r.seed + 101))
	loads := rand.New(rand.NewSource(r.seed + 103))
	sig := fnv.New64a()
	var whatifMS, deployMS, batchMS, loadMS []float64
	var validBuf []int
	simTotal, mismatches := 0.0, 0
	st := sp.InitialState()
	for i := 0; i < designs; i++ {
		if i%sweepResetEvery == 0 {
			st = sp.InitialState()
		}
		if i > 0 && i%sweepLoadEvery == 0 {
			id := r.rec.begin("exec.bulk_load", noSpan, i)
			start := time.Now()
			rows := db.data[largest].Sample(0.01, 1, loads)
			if err := eng.BulkLoad(largest, rows); err != nil {
				return err
			}
			eng.Analyze()
			loadMS = append(loadMS, time.Since(start).Seconds()*1e3)
			r.rec.end(id)
		}
		validBuf = sp.ValidActions(st, validBuf)
		walkable := validBuf[:0]
		for _, a := range validBuf {
			if !skip[a] {
				walkable = append(walkable, a)
			}
		}
		st = sp.Apply(st, sp.Actions()[walkable[walk.Intn(len(walkable))]])
		sig.Write([]byte(st.Signature()))

		root := r.rec.begin("sweep.design", noSpan, i)
		t0 := time.Now()
		id := r.rec.begin("exec.whatif", root, i)
		whatif := eng.EvalDesignSnapshot(st, qs, 0)
		r.rec.end(id)
		t1 := time.Now()
		id = r.rec.begin("cluster.deploy", root, i)
		eng.Deploy(st, nil)
		r.rec.end(id)
		t2 := time.Now()
		id = r.rec.begin("exec.run_batch", root, i)
		measured := eng.RunBatch(gs, 0)
		r.rec.end(id)
		t3 := time.Now()
		r.rec.end(root)

		r.opMS = append(r.opMS, t3.Sub(t0).Seconds()*1e3)
		r.workSec += t3.Sub(t0).Seconds()
		r.workUnits++
		whatifMS = append(whatifMS, t1.Sub(t0).Seconds()*1e3)
		deployMS = append(deployMS, t2.Sub(t1).Seconds()*1e3)
		batchMS = append(batchMS, t3.Sub(t2).Seconds()*1e3)

		same := math.Float64bits(whatif.Seconds) == math.Float64bits(measured.Seconds)
		if !same {
			mismatches++
		}
		ok := same && measured.Completed == len(gs) && whatif.Completed == len(gs) && measured.Seconds > 0
		for _, err := range measured.Errs {
			ok = ok && err == nil
		}
		r.check(ok, "design %d: what-if %v s, measured %v s, completed %d of %d", i, whatif.Seconds, measured.Seconds, measured.Completed, len(gs))
		simTotal += measured.Seconds
	}
	r.digests["designs_visited"] = fmt.Sprintf("%016x", sig.Sum64())
	r.digests["sim_seconds_total"] = fmt.Sprintf("%016x", math.Float64bits(simTotal))
	r.notes["designs"] = designs
	r.notes["bulk_loads"] = len(loadMS)
	r.notes["largest_table"] = largest
	if r.rec == nil {
		return nil
	}

	queries, _, bytesMoved := eng.Counters()
	r.layer["exec.whatif_ms"] = median(whatifMS)
	r.layer["exec.run_batch_ms"] = median(batchMS)
	r.layer["exec.query_us"] = median(batchMS) * 1e3 / float64(len(gs))
	r.layer["exec.queries_executed"] = float64(queries)
	r.layer["exec.whatif_mismatches"] = float64(mismatches)
	r.layer["exec.sim_seconds_total"] = simTotal
	r.layer["exec.bulk_load_ms"] = median(loadMS)
	r.layer["exec.new_engine_ms"] = median(newMS)
	r.layer["benchmarks.generate_ms"] = median(genMS)
	r.layer["cluster.deploy_ms"] = median(deployMS)
	hits, misses, _, cacheBytes := eng.Cluster().ShardCacheStats()
	r.layer["cluster.shard_cache_hits"] = float64(hits)
	r.layer["cluster.shard_cache_misses"] = float64(misses)
	r.layer["cluster.shard_cache_hit_ratio"] = float64(hits) / float64(max(hits+misses, 1))
	r.layer["cluster.shard_cache_bytes"] = float64(cacheBytes)
	r.layer["cluster.bytes_moved"] = float64(bytesMoved)
	probePartition(r, sp)
	return nil
}

func graphs(b *benchmarks.Benchmark) []*sqlparse.Graph {
	gs := make([]*sqlparse.Graph, len(b.Workload.Queries))
	for i, q := range b.Workload.Queries {
		gs[i] = q.Graph
	}
	return gs
}

// probePartition times the design-space primitives every layer above
// calls per step, on designs of a seeded walk through the TPC-DS space.
func probePartition(r *run, sp *partition.Space) {
	rng := rand.New(rand.NewSource(r.seed + 107))
	states := []*partition.State{sp.InitialState()}
	var acts []partition.Action
	var buf []int
	for len(acts) < 64 {
		st := states[len(states)-1]
		buf = sp.ValidActions(st, buf)
		a := sp.Actions()[buf[rng.Intn(len(buf))]]
		acts = append(acts, a)
		states = append(states, sp.Apply(st, a))
	}
	i := 0
	r.layer["partition.apply_us"] = timeCalls(func() {
		sp.Apply(states[i%len(acts)], acts[i%len(acts)])
		i++
	})
	r.layer["partition.valid_actions_us"] = timeCalls(func() {
		buf = sp.ValidActions(states[i%len(states)], buf)
		i++
	})
}
