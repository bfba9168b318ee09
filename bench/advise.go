package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"partadvisor/advisor"
	"partadvisor/internal/core"
	"partadvisor/internal/dqn"
	"partadvisor/internal/env"
	"partadvisor/internal/nn"
)

// adviseRepSeconds is what one TPC-CH advise (TrainOffline + TrainOnline +
// Suggest at core.Repro(true): 200 offline + 80 online episodes) takes on
// the 2-core sizing host; the run does seconds / adviseRepSeconds
// repetitions, and at least three: with two, one disturbed repetition
// moves the median by half its disturbance.
const adviseRepSeconds = 10

// runAdvise is the "schema + workload -> design" path. One operation is a
// whole advise on a fresh session; a work unit is one training episode.
func runAdvise(r *run) error {
	reps := max(3, (r.seconds+adviseRepSeconds/2)/adviseRepSeconds)

	newSession := func() (*advisor.Session, error) {
		start := time.Now()
		sess, err := advisor.NewSession(advisor.TPCCH(), advisor.DiskCluster(), r.seed)
		r.setupSec = append(r.setupSec, time.Since(start).Seconds())
		return sess, err
	}
	var offline, online, suggest []float64
	var costs []float64
	var last *advisor.Session
	var lastOC *advisor.OnlineCost
	var lastCache *env.CostCache
	spies := make([]*spyQ, 0, reps)
	phaseSpans := make([][2]int, 0, reps) // offline, online span ids per rep
	episodes := 0
	costCalls, costBusy := 0, time.Duration(0)

	for rep := 0; rep < reps; rep++ {
		sess, err := newSession()
		if err != nil {
			return err
		}
		root := r.rec.begin("advise", noSpan, rep)
		trainOffline := sess.TrainOffline
		var spy *spyQ
		var cache *env.CostCache
		if r.rec != nil {
			// Traced: decorate the Q-function and the cost function handed
			// to TrainOffline. The cache in front of the cost model is the
			// one Session.TrainOffline builds (unbounded CostCache), so both
			// runs take the same path.
			spy = &spyQ{inner: sess.Advisor.Agent.Q, rec: r.rec, parent: root, op: rep}
			sess.Advisor.Agent.Q = spy
			cache = env.NewCostCache(func(st *advisor.Partitioning, freq advisor.FreqVector) float64 {
				id := r.rec.begin("costmodel.workload_cost", spy.parent, rep)
				start := time.Now()
				c := sess.Cost.WorkloadCost(st, sess.Bench.Workload, freq)
				costBusy += time.Since(start)
				costCalls++
				r.rec.end(id)
				return c
			}, 0)
			trainOffline = func() error { return sess.Advisor.TrainOffline(cache.Cost, nil) }
		}
		phase := func(name string, f func() error) (time.Duration, int, error) {
			id := r.rec.begin(name, root, rep)
			if spy != nil {
				spy.parent = id
			}
			start := time.Now()
			err := f()
			d := time.Since(start)
			r.rec.end(id)
			return d, id, err
		}

		var oc *advisor.OnlineCost
		var design *advisor.Partitioning
		dOff, offID, err := phase("core.train_offline", trainOffline)
		if err != nil {
			return fmt.Errorf("TrainOffline: %w", err)
		}
		dOn, onID, err := phase("core.train_online", func() (err error) {
			oc, err = sess.TrainOnline(0.1, 200)
			return err
		})
		if err != nil {
			return fmt.Errorf("TrainOnline: %w", err)
		}
		dSug, _, err := phase("core.suggest", func() (err error) {
			design, err = sess.Suggest(nil)
			return err
		})
		if err != nil {
			return fmt.Errorf("Suggest: %w", err)
		}
		r.rec.end(root)

		total := dOff + dOn + dSug
		r.opMS = append(r.opMS, total.Seconds()*1e3)
		r.workSec += total.Seconds()
		episodes = sess.Advisor.HP.Episodes + sess.Advisor.HP.OnlineEpisodes
		r.workUnits += float64(episodes)
		offline = append(offline, dOff.Seconds())
		online = append(online, dOn.Seconds())
		suggest = append(suggest, dSug.Seconds()*1e3)

		// Output check: the suggested design priced on the full engine is
		// a positive finite number and bit-equal on every repetition.
		cost := sess.MeasureWorkload(design)
		costs = append(costs, cost)
		r.check(cost > 0 && !math.IsInf(cost, 0) && cost == costs[0] && design.CheckInvariants() == nil,
			"rep %d: design cost %v (first repetition %v)", rep, cost, costs[0])
		r.check(sess.Advisor.EpisodesTrained == episodes, "rep %d: trained %d episodes, want %d", rep, sess.Advisor.EpisodesTrained, episodes)

		last, lastOC, lastCache = sess, oc, cache
		if spy != nil {
			spies = append(spies, spy)
			phaseSpans = append(phaseSpans, [2]int{offID, onID})
		}
	}
	r.digests["design_cost_sim_s"] = fmt.Sprintf("%016x", math.Float64bits(costs[0]))
	r.notes["reps"] = reps
	r.notes["episodes_per_advise"] = episodes
	r.notes["advise_s"] = median(r.opMS) / 1e3
	r.notes["offline_s"] = median(offline)
	r.notes["online_s"] = median(online)
	r.notes["design_cost_sim_s"] = costs[0]
	if r.rec == nil {
		return nil
	}

	// Per-layer metrics of the traced run. Counts are per advise: they
	// repeat exactly, so the mean over repetitions is the count.
	n := float64(reps)
	r.layer["core.offline_s"] = median(offline)
	r.layer["core.online_s"] = median(online)
	r.layer["core.suggest_ms"] = median(suggest)
	r.layer["core.design_cost_sim_s"] = costs[0]
	self := selfTimes(r.rec.snapshot())
	var offSelf, onSelf []float64
	for _, ids := range phaseSpans {
		offSelf = append(offSelf, float64(self[ids[0]])/1e9)
		onSelf = append(onSelf, float64(self[ids[1]])/1e9)
	}
	r.layer["core.offline_self_s"] = median(offSelf)
	// The share of TrainOffline inside costmodel and dqn spans; the rest is
	// core's own episode loop (env bookkeeping, replay buffer, cache lookups).
	r.layer["core.offline_attributed_ratio"] = 1 - median(offSelf)/median(offline)
	r.layer["core.online_nondqn_s"] = median(onSelf)
	r.layer["core.online_queries_executed"] = float64(lastOC.Stats.QueriesExecuted)
	r.layer["core.online_cache_hits"] = float64(lastOC.Stats.CacheHits)
	r.layer["core.online_repartition_sim_s"] = lastOC.Stats.RepartitionSeconds
	r.layer["core.train_updates"] = float64(last.Advisor.TrainUpdates)
	r.layer["core.steps_trained"] = float64(last.Advisor.StepsTrained)

	var trainCalls, valuesCalls int
	var trainBusy, valuesBusy time.Duration
	for _, s := range spies {
		trainCalls += s.trainCalls
		valuesCalls += s.valuesCalls
		trainBusy += s.trainBusy
		valuesBusy += s.valuesBusy
	}
	r.layer["dqn.train_calls"] = float64(trainCalls) / n
	r.layer["dqn.train_busy_s"] = trainBusy.Seconds() / n
	r.layer["dqn.train_step_us"] = trainBusy.Seconds() * 1e6 / float64(max(trainCalls, 1))
	r.layer["dqn.values_calls"] = float64(valuesCalls) / n
	r.layer["dqn.values_busy_s"] = valuesBusy.Seconds() / n

	r.layer["costmodel.calls"] = float64(costCalls) / n
	r.layer["costmodel.busy_s"] = costBusy.Seconds() / n
	r.layer["costmodel.workload_cost_ms"] = costBusy.Seconds() * 1e3 / float64(max(costCalls, 1))

	hits, misses := lastCache.Stats()
	r.layer["env.cost_cache_hits"] = float64(hits)
	r.layer["env.cost_cache_misses"] = float64(misses)
	r.layer["env.cost_cache_hit_ratio"] = float64(hits) / float64(max(hits+misses, 1))

	if err := probeEnvStep(r, last, lastCache); err != nil {
		return err
	}
	if err := probeNN(r, spies[len(spies)-1].inner); err != nil {
		return err
	}
	return probeCheckpoint(r, last.Advisor)
}

// timeCalls runs f in five batches of at least 30 ms and returns the
// median batch's mean microseconds per call.
func timeCalls(f func()) float64 {
	var means []float64
	for b := 0; b < 5; b++ {
		calls := 0
		start := time.Now()
		for time.Since(start) < 30*time.Millisecond {
			for i := 0; i < 8; i++ {
				f()
			}
			calls += 8
		}
		means = append(means, time.Since(start).Seconds()*1e6/float64(calls))
	}
	return median(means)
}

// probeEnvStep times Env.Step on a warm cost cache: seeded random
// episodes are played once to fill the cache and record the actions, then
// replayed under the clock.
func probeEnvStep(r *run, sess *advisor.Session, cache *env.CostCache) error {
	wl := sess.Bench.Workload
	tmax := sess.Advisor.HP.TmaxFor(len(sess.Space.Tables))
	e, err := env.New(sess.Space, wl, cache.Cost, tmax)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed + 13))
	freq := wl.UniformFreq()
	const episodes = 8
	actions := make([][]int, episodes)
	for ep := range actions {
		e.Reset(freq)
		for done := false; !done; {
			valid := e.ValidActions()
			a := valid[rng.Intn(len(valid))]
			actions[ep] = append(actions[ep], a)
			_, _, done = e.Step(a)
		}
	}
	r.layer["env.step_us"] = timeCalls(func() {
		for ep := range actions {
			e.Reset(freq)
			for _, a := range actions[ep] {
				e.Step(a)
			}
		}
	}) / float64(episodes*tmax)
	return nil
}

// probeNN times the kernels under the dqn layer on a copy of the trained
// TPC-CH online network, at the training batch size.
func probeNN(r *run, q dqn.QFunc) error {
	mh, ok := q.(*dqn.MultiHeadQ)
	if !ok {
		return fmt.Errorf("nn probe: advisor head is %T, want *dqn.MultiHeadQ", q)
	}
	net := mh.Online().Clone()
	rng := rand.New(rand.NewSource(r.seed + 17))
	const batch = 32
	in := nn.NewMatrix(batch, net.InDim())
	target := nn.NewMatrix(batch, net.OutDim())
	for i := range in.Data {
		in.Data[i] = rng.Float64()
	}
	for i := range target.Data {
		target.Data[i] = -rng.Float64()
	}
	row := append([]float64(nil), in.Row(0)...)
	r.layer["nn.forward_b32_us"] = timeCalls(func() { net.Forward(in) })
	r.layer["nn.predict_row_us"] = timeCalls(func() { net.Predict(row) })
	opt := nn.NewAdam(1e-3)
	r.layer["nn.train_batch_b32_us"] = timeCalls(func() { net.TrainBatch(opt, in, target, nil) })
	return nil
}

// probeCheckpoint times the durable checkpoint write and the verified
// load of the trained advisor, and checks the round trip.
func probeCheckpoint(r *run, adv *advisor.Advisor) error {
	path := filepath.Join(r.dir, "advisor.ckpt")
	var save, load []float64
	for i := 0; i < 3; i++ {
		id := r.rec.begin("core.save_checkpoint", noSpan, i)
		start := time.Now()
		if err := adv.SaveCheckpoint(path); err != nil {
			return err
		}
		save = append(save, time.Since(start).Seconds()*1e3)
		r.rec.end(id)
	}
	var ck *core.Checkpoint
	for i := 0; i < 5; i++ {
		id := r.rec.begin("core.load_checkpoint", noSpan, i)
		start := time.Now()
		var err error
		if ck, err = core.LoadCheckpoint(path); err != nil {
			return err
		}
		load = append(load, time.Since(start).Seconds()*1e3)
		r.rec.end(id)
	}
	r.check(ck.EpisodesTrained == adv.EpisodesTrained && ck.Seed == adv.Seed(),
		"checkpoint round trip: %d episodes, seed %d", ck.EpisodesTrained, ck.Seed)
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	r.layer["core.save_checkpoint_ms"] = median(save)
	r.layer["core.load_checkpoint_ms"] = median(load)
	r.layer["core.checkpoint_bytes"] = float64(st.Size())
	return nil
}
