package dqn

import (
	"fmt"
	"math"
	"math/rand"
)

// Config collects the agent hyperparameters; DefaultConfig mirrors the
// paper's Table 1.
type Config struct {
	Gamma        float64 // reward discount
	Epsilon      float64 // initial exploration probability
	EpsilonDecay float64 // multiplied into epsilon per episode
	EpsilonMin   float64 // exploration floor
	BufferSize   int     // experience replay capacity
	BatchSize    int     // minibatch size
	Tau          float64 // target-network soft-update factor
	LearningRate float64 // Adam learning rate
	Hidden       []int   // hidden layer widths
	// Double enables Double-DQN targets (van Hasselt et al.): the online
	// network selects the next action, the target network evaluates it,
	// reducing the overestimation bias of vanilla Q-learning. The paper
	// uses vanilla DQN; this is an extension covered by an ablation bench.
	Double bool
}

// DefaultConfig returns the paper's Table-1 hyperparameters.
func DefaultConfig() Config {
	return Config{
		Gamma:        0.99,
		Epsilon:      1.0,
		EpsilonDecay: 0.997,
		EpsilonMin:   0.01,
		BufferSize:   10000,
		BatchSize:    32,
		Tau:          1e-3,
		LearningRate: 5e-4,
		Hidden:       []int{128, 64},
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Gamma <= 0 || c.Gamma >= 1:
		return fmt.Errorf("dqn: gamma %v out of (0,1)", c.Gamma)
	case c.Epsilon < 0 || c.Epsilon > 1:
		return fmt.Errorf("dqn: epsilon %v out of [0,1]", c.Epsilon)
	case c.EpsilonDecay <= 0 || c.EpsilonDecay > 1:
		return fmt.Errorf("dqn: epsilon decay %v out of (0,1]", c.EpsilonDecay)
	case c.BufferSize <= 0:
		return fmt.Errorf("dqn: buffer size %d", c.BufferSize)
	case c.BatchSize <= 0:
		return fmt.Errorf("dqn: batch size %d", c.BatchSize)
	case c.Tau <= 0 || c.Tau > 1:
		return fmt.Errorf("dqn: tau %v out of (0,1]", c.Tau)
	case c.LearningRate <= 0:
		return fmt.Errorf("dqn: learning rate %v", c.LearningRate)
	}
	return nil
}

// Agent is an ε-greedy Deep Q-learning agent over a fixed action space.
type Agent struct {
	Q       QFunc
	Buffer  *Buffer
	Epsilon float64

	cfg Config
	rng *rand.Rand

	scratch []Transition
}

// NewAgent builds an agent around a Q-function.
func NewAgent(q QFunc, cfg Config, rng *rand.Rand) (*Agent, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Agent{
		Q:       q,
		Buffer:  NewBuffer(cfg.BufferSize),
		Epsilon: cfg.Epsilon,
		cfg:     cfg,
		rng:     rng,
	}, nil
}

// SelectAction picks an action ε-greedily among the valid indices.
func (a *Agent) SelectAction(state []float64, valid []int) int {
	if len(valid) == 0 {
		panic("dqn: no valid actions")
	}
	if a.rng.Float64() < a.Epsilon {
		return valid[a.rng.Intn(len(valid))]
	}
	return a.Greedy(state, valid)
}

// Greedy picks argmax_a Q(state, a) among the valid indices.
func (a *Agent) Greedy(state []float64, valid []int) int {
	if len(valid) == 0 {
		panic("dqn: no valid actions")
	}
	qs := a.Q.Values(state, valid)
	best, bestQ := valid[0], math.Inf(-1)
	for i, v := range qs {
		if v > bestQ {
			bestQ = v
			best = valid[i]
		}
	}
	return best
}

// GreedyBatch picks the greedy action for many states at once, fusing all
// the forward passes into one batched pass when the head implements
// BatchValuer (falling back to per-state Greedy calls otherwise). Each
// result is identical to Greedy(states[i], valids[i]): batched forward rows
// are bitwise identical to single-state forwards, and the tie-break (first
// maximum wins) is the same.
func (a *Agent) GreedyBatch(states [][]float64, valids [][]int) []int {
	out := make([]int, len(states))
	bv, ok := a.Q.(BatchValuer)
	if !ok {
		for i := range states {
			out[i] = a.Greedy(states[i], valids[i])
		}
		return out
	}
	qsAll := bv.ValuesBatch(states, valids)
	for i, qs := range qsAll {
		valid := valids[i]
		if len(valid) == 0 {
			panic("dqn: no valid actions")
		}
		best, bestQ := valid[0], math.Inf(-1)
		for j, v := range qs {
			if v > bestQ {
				bestQ = v
				best = valid[j]
			}
		}
		out[i] = best
	}
	return out
}

// Observe stores a transition in the replay buffer.
func (a *Agent) Observe(t Transition) { a.Buffer.Add(t) }

// TrainStep samples a minibatch, trains the online network and softly
// updates the target network. It is a no-op until the buffer holds one full
// batch; trained distinguishes that case from a genuine zero loss, so
// training-curve logging doesn't record phantom zero-loss points while the
// buffer is filling.
func (a *Agent) TrainStep() (loss float64, trained bool) {
	if a.Buffer.Len() < a.cfg.BatchSize {
		return 0, false
	}
	a.scratch = a.Buffer.Sample(a.rng, a.cfg.BatchSize, a.scratch)
	loss = a.Q.Train(a.scratch, a.cfg.Gamma)
	a.Q.SoftUpdate(a.cfg.Tau)
	return loss, true
}

// DecayEpsilon applies one episode's ε decay (Table 1: ×0.997).
func (a *Agent) DecayEpsilon() {
	a.Epsilon *= a.cfg.EpsilonDecay
	if a.Epsilon < a.cfg.EpsilonMin {
		a.Epsilon = a.cfg.EpsilonMin
	}
}

// EpsilonAfter returns the ε value reached after n episodes of decay from
// the initial value — the paper starts online training "with the ε value
// that we would reach after 600 episodes" (§4.2).
func (c Config) EpsilonAfter(episodes int) float64 {
	e := c.Epsilon * math.Pow(c.EpsilonDecay, float64(episodes))
	if e < c.EpsilonMin {
		return c.EpsilonMin
	}
	return e
}
