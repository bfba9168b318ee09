package main

import (
	"fmt"
	"time"

	"partadvisor/internal/dqn"
)

// spyQ decorates the advisor's Q-function (the exported Advisor.Agent.Q)
// so the traced run can count and time the dqn layer from outside the
// package. It forwards the optional BatchValuer and FullStater extensions,
// so a decorated advisor still batches greedy rollouts and checkpoints.
//
// Training drives the Q-function from one goroutine (prefetch is off on
// the measured path), so the counters need no synchronization.
type spyQ struct {
	inner dqn.QFunc
	rec   *recorder
	// parent and op are the span context the harness sets before each
	// training phase.
	parent, op int

	trainCalls, valuesCalls int
	trainBusy, valuesBusy   time.Duration
}

func (q *spyQ) Values(state []float64, actions []int) []float64 {
	id := q.rec.begin("dqn.values", q.parent, q.op)
	start := time.Now()
	out := q.inner.Values(state, actions)
	q.valuesBusy += time.Since(start)
	q.valuesCalls++
	q.rec.end(id)
	return out
}

func (q *spyQ) ValuesBatch(states [][]float64, actions [][]int) [][]float64 {
	id := q.rec.begin("dqn.values", q.parent, q.op)
	start := time.Now()
	var out [][]float64
	if bv, ok := q.inner.(dqn.BatchValuer); ok {
		out = bv.ValuesBatch(states, actions)
	} else {
		out = make([][]float64, len(states))
		for i := range states {
			out[i] = q.inner.Values(states[i], actions[i])
		}
	}
	q.valuesBusy += time.Since(start)
	q.valuesCalls++
	q.rec.end(id)
	return out
}

// Train times one optimization step together with the soft target update
// the agent issues right after it (SoftUpdate below adds to the same
// busy time), so train_step_us is the whole per-step cost of learning.
func (q *spyQ) Train(batch []dqn.Transition, gamma float64) float64 {
	id := q.rec.begin("dqn.train", q.parent, q.op)
	start := time.Now()
	loss := q.inner.Train(batch, gamma)
	q.trainBusy += time.Since(start)
	q.trainCalls++
	q.rec.end(id)
	return loss
}

func (q *spyQ) SoftUpdate(tau float64) {
	id := q.rec.begin("dqn.soft_update", q.parent, q.op)
	start := time.Now()
	q.inner.SoftUpdate(tau)
	q.trainBusy += time.Since(start)
	q.rec.end(id)
}

func (q *spyQ) Save() ([]byte, error)  { return q.inner.Save() }
func (q *spyQ) Load(data []byte) error { return q.inner.Load(data) }

func (q *spyQ) SaveFull() ([]byte, error) {
	fs, ok := q.inner.(dqn.FullStater)
	if !ok {
		return nil, fmt.Errorf("bench: Q head %T cannot snapshot its full state", q.inner)
	}
	return fs.SaveFull()
}

func (q *spyQ) LoadFull(data []byte) error {
	fs, ok := q.inner.(dqn.FullStater)
	if !ok {
		return fmt.Errorf("bench: Q head %T cannot restore a full state", q.inner)
	}
	return fs.LoadFull(data)
}
