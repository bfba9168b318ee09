package core

import (
	"fmt"
	"math/rand"

	"partadvisor/internal/env"
	"partadvisor/internal/workload"
)

// IncrementalResult reports the bookkeeping of one incremental-training run
// (paper §5 / Exp. 3c).
type IncrementalResult struct {
	// Slots are the frequency-vector slots assigned to the new queries.
	Slots []int
	// Episodes is the number of incremental episodes trained.
	Episodes int
	// QueriesExecuted / CacheHits delta during the incremental phase
	// (meaningful when the cost function is an OnlineCost).
	QueriesExecuted int
	CacheHits       int
	// ExecSeconds and RepartitionSeconds are the simulated-time deltas of
	// the incremental phase.
	ExecSeconds        float64
	RepartitionSeconds float64
}

// TrainIncremental registers new queries in the workload's reserved slots
// and retrains the advisor only on mixes that include them, with the
// reduced ε schedule of a bootstrapped agent. The state encoding does not
// change (reserved slots were pre-sized), so the existing Q-network is
// refined rather than rebuilt, and the runtime cache is reused — only the
// new queries need actual executions.
//
// episodes is the incremental budget (the paper's Fig. 6 measures it as a
// fraction of full retraining); oc may be nil when cost is not an
// OnlineCost.
func (a *Advisor) TrainIncremental(newQueries []*workload.Query, cost env.CostFunc, oc *OnlineCost, episodes int) (*IncrementalResult, error) {
	if len(newQueries) == 0 {
		return nil, fmt.Errorf("core: no new queries")
	}
	res := &IncrementalResult{Episodes: episodes}
	for _, q := range newQueries {
		slot, err := a.WL.AddQuery(q)
		if err != nil {
			return nil, err
		}
		res.Slots = append(res.Slots, slot)
	}
	var beforeExec, beforeHits int
	var beforeSec, beforeRep float64
	if oc != nil {
		beforeExec, beforeHits = oc.Stats.QueriesExecuted, oc.Stats.CacheHits
		beforeSec, beforeRep = oc.Stats.ExecSeconds, oc.Stats.RepartitionSeconds
	}

	// Sample mixes that include the new queries: uniform over known queries
	// with the new slots boosted so their effects dominate episodes.
	newSlots := append([]int(nil), res.Slots...)
	sampler := func(rng *rand.Rand) workload.FreqVector {
		f := a.WL.SampleUniform(rng)
		for _, s := range newSlots {
			f[s] = 0.5 + 0.5*rng.Float64()
		}
		return f.Normalize()
	}
	a.Agent.Epsilon = a.HP.DQN.EpsilonAfter(a.HP.OnlineEpsilonFromEpisode)
	if err := a.trainEpisodes(cost, sampler, episodes); err != nil {
		return nil, err
	}
	if oc != nil {
		res.QueriesExecuted = oc.Stats.QueriesExecuted - beforeExec
		res.CacheHits = oc.Stats.CacheHits - beforeHits
		res.ExecSeconds = oc.Stats.ExecSeconds - beforeSec
		res.RepartitionSeconds = oc.Stats.RepartitionSeconds - beforeRep
	}
	return res, nil
}
