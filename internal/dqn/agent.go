package dqn

import (
	"fmt"
	"math"
	"math/rand"
)

// Table 1's settings that no caller changes.
const (
	Gamma      = 0.99 // reward discount
	Epsilon    = 1.0  // initial exploration probability
	EpsilonMin = 0.01 // exploration floor
	BatchSize  = 32   // minibatch size
	Tau        = 1e-3 // target-network soft-update factor
)

// Config collects the agent hyperparameters the profiles and ablations
// set; DefaultConfig mirrors the paper's Table 1.
type Config struct {
	EpsilonDecay float64 // multiplied into epsilon per episode
	BufferSize   int     // experience replay capacity
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
		EpsilonDecay: 0.997,
		BufferSize:   10000,
		LearningRate: 5e-4,
		Hidden:       []int{128, 64},
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.EpsilonDecay <= 0 || c.EpsilonDecay > 1:
		return fmt.Errorf("dqn: epsilon decay %v out of (0,1]", c.EpsilonDecay)
	case c.BufferSize <= 0:
		return fmt.Errorf("dqn: buffer size %d", c.BufferSize)
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
		Epsilon: Epsilon,
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
	return argmax(valid, a.Q.Values(state, valid))
}

// GreedyBatch picks the greedy action for many states at once, fusing all
// the forward passes into one batched pass. Each result is identical to
// Greedy(states[i], valids[i]): batched forward rows are bitwise identical
// to single-state forwards, and both take the same argmax.
func (a *Agent) GreedyBatch(states [][]float64, valids [][]int) []int {
	qs := a.Q.ValuesBatch(states, valids)
	out := make([]int, len(valids))
	for i, valid := range valids {
		if len(valid) == 0 {
			panic("dqn: no valid actions")
		}
		out[i] = argmax(valid, qs[i])
	}
	return out
}

// argmax returns the action of valid whose value in qs is largest; the
// first maximum wins a tie.
func argmax(valid []int, qs []float64) int {
	best, bestQ := valid[0], math.Inf(-1)
	for i, v := range qs {
		if v > bestQ {
			bestQ = v
			best = valid[i]
		}
	}
	return best
}

// Observe stores a transition in the replay buffer.
func (a *Agent) Observe(t Transition) { a.Buffer.Add(t) }

// TrainStep samples a minibatch, trains the online network and softly
// updates the target network. It is a no-op until the buffer holds one full
// batch; trained distinguishes that case from a genuine zero loss, so
// training-curve logging doesn't record phantom zero-loss points while the
// buffer is filling.
func (a *Agent) TrainStep() (loss float64, trained bool) {
	if a.Buffer.Len() < BatchSize {
		return 0, false
	}
	a.scratch = a.Buffer.Sample(a.rng, BatchSize, a.scratch)
	loss = a.Q.Train(a.scratch, Gamma)
	a.Q.SoftUpdate(Tau)
	return loss, true
}

// DecayEpsilon applies one episode's ε decay (Table 1: ×0.997).
func (a *Agent) DecayEpsilon() {
	a.Epsilon *= a.cfg.EpsilonDecay
	if a.Epsilon < EpsilonMin {
		a.Epsilon = EpsilonMin
	}
}

// EpsilonAfter returns the ε value reached after n episodes of decay from
// the initial value — the paper starts online training "with the ε value
// that we would reach after 600 episodes" (§4.2).
func (c Config) EpsilonAfter(episodes int) float64 {
	e := Epsilon * math.Pow(c.EpsilonDecay, float64(episodes))
	if e < EpsilonMin {
		return EpsilonMin
	}
	return e
}
