package core

import (
	"fmt"
	"math/rand"
	"runtime"

	"partadvisor/internal/dqn"
	"partadvisor/internal/env"
	"partadvisor/internal/partition"
	"partadvisor/internal/workload"
)

// FreqSampler draws workload mixes for training episodes. The naive advisor
// trains over the whole workload space (uniform sampling); subspace experts
// restrict the sampler to their subspace.
type FreqSampler func(*rand.Rand) workload.FreqVector

// Advisor is one learned partitioning advisor: a DQN agent over the
// partitioning design space of a schema + workload.
type Advisor struct {
	Space *partition.Space
	WL    *workload.Workload
	HP    Hyperparams
	Agent *dqn.Agent

	// InferCost is the simulation used at inference time (§6: "we use the
	// same simulation that is also used in the offline phase"). TrainOffline
	// sets it to the offline cost; callers may override it (e.g. with the
	// cached online cost).
	InferCost env.CostFunc

	// EpisodesTrained counts completed training episodes across phases.
	EpisodesTrained int
	// StepsTrained counts environment steps taken during training.
	StepsTrained int
	// TrainUpdates counts actual gradient updates (TrainStep calls that
	// found a full batch); experiment logging divides accumulated loss by
	// this, not by StepsTrained, to keep training curves honest while the
	// replay buffer is still filling.
	TrainUpdates int

	// Stop, when set, is polled after every completed training episode;
	// once it returns true, training returns ErrStopped. It is the one
	// per-episode hook: cmd/advisor saves, halts and stops on signals from
	// it, and advisord stops a tenant's cycle on shutdown or overload.
	Stop func() bool

	// TraceRewards makes trainEpisodes append each episode's summed reward
	// to RewardTrace — the determinism digest tests hash this trajectory.
	TraceRewards bool
	// RewardTrace holds per-episode reward sums when TraceRewards is set.
	RewardTrace []float64

	seed int64
	src  *countingSource
	rng  *rand.Rand
}

// New builds an untrained advisor.
func New(sp *partition.Space, wl *workload.Workload, hp Hyperparams, seed int64) (*Advisor, error) {
	if err := hp.Validate(); err != nil {
		return nil, err
	}
	// The RNG source counts its draws so checkpoints can record the exact
	// stream position (see checkpoint.go); the stream itself is bit-identical
	// to rand.NewSource(seed).
	src := newCountingSource(seed)
	rng := rand.New(src)
	stateDim := sp.StateLen() + wl.Size()
	var q dqn.QFunc
	switch hp.Head {
	case MultiHead:
		mh := dqn.NewMultiHeadQ(stateDim, hp.DQN.Hidden, sp.NumActions(), hp.DQN.LearningRate, rng)
		mh.Double = hp.DQN.Double
		q = mh
	case ScalarHead:
		feats := make([][]float64, sp.NumActions())
		for i, a := range sp.Actions() {
			f := make([]float64, sp.ActionFeatureLen())
			sp.EncodeAction(a, f)
			feats[i] = f
		}
		q = dqn.NewScalarQ(stateDim, hp.DQN.Hidden, feats, hp.DQN.LearningRate, rng)
	default:
		return nil, fmt.Errorf("core: unknown Q head %d", hp.Head)
	}
	agent, err := dqn.NewAgent(q, hp.DQN, rng)
	if err != nil {
		return nil, err
	}
	return &Advisor{
		Space: sp,
		WL:    wl,
		HP:    hp,
		Agent: agent,
		seed:  seed,
		src:   src,
		rng:   rng,
	}, nil
}

// Seed returns the seed the advisor was built with.
func (a *Advisor) Seed() int64 { return a.seed }

// UniformSampler draws each known query's frequency uniformly from (0, 1].
func (a *Advisor) UniformSampler() FreqSampler {
	return func(rng *rand.Rand) workload.FreqVector { return a.WL.SampleUniform(rng) }
}

// TrainOffline runs Algorithm 1 against the given cost function (the
// network-centric cost model in the paper's offline phase) for the
// hp.Episodes episodes the advisor has not trained yet: all of them on a
// fresh advisor, the rest after a Restore. sampler defaults to uniform
// workload mixes.
func (a *Advisor) TrainOffline(cost env.CostFunc, sampler FreqSampler) error {
	if a.InferCost == nil {
		a.InferCost = cost
	}
	return a.trainEpisodes(cost, sampler, a.HP.Episodes-a.EpisodesTrained)
}

// trainEpisodes is the shared training loop of the offline, online and
// incremental phases: it trains n episodes, polling Stop after each.
func (a *Advisor) trainEpisodes(cost env.CostFunc, sampler FreqSampler, n int) error {
	if n <= 0 {
		return nil
	}
	if sampler == nil {
		sampler = a.UniformSampler()
	}
	e, err := env.New(a.Space, a.WL, cost, a.HP.TmaxFor(len(a.Space.Tables)))
	if err != nil {
		return err
	}
	for ep := 0; ep < n; ep++ {
		freq := sampler(a.rng)
		e.Reset(freq)
		obs := e.EncodedCopy()
		epReward := 0.0
		for {
			valid := e.ValidActions()
			act := a.Agent.SelectAction(obs, valid)
			_, reward, done := e.Step(act)
			next := e.EncodedCopy()
			nextValid := append([]int(nil), e.ValidActions()...)
			a.Agent.Observe(dqn.Transition{
				State:     obs,
				Action:    act,
				Reward:    reward,
				Next:      next,
				NextValid: nextValid,
			})
			if _, trained := a.Agent.TrainStep(); trained {
				a.TrainUpdates++
			}
			a.StepsTrained++
			epReward += reward
			obs = next
			// A training step no longer parks on the nn pool, so without
			// this a background advise cycle in advisord holds its P for a
			// whole scheduler slice (10 ms) while request goroutines queue.
			runtime.Gosched()
			if done {
				break
			}
		}
		if a.TraceRewards {
			a.RewardTrace = append(a.RewardTrace, epReward)
		}
		a.Agent.DecayEpsilon()
		a.EpisodesTrained++
		if a.Stop != nil && a.Stop() {
			return ErrStopped
		}
	}
	return nil
}

// Suggest runs the inference procedure of §6 for a workload mix: a greedy
// tmax-step rollout in simulation from s0, returning the partitioning of
// the *best-reward* state visited (the agent oscillates around the optimum,
// so the last state is not necessarily the best) together with its reward.
func (a *Advisor) Suggest(freq workload.FreqVector) (*partition.State, float64, error) {
	if a.InferCost == nil {
		return nil, 0, fmt.Errorf("core: advisor has no inference cost function (train offline first)")
	}
	e, err := env.New(a.Space, a.WL, a.InferCost, a.HP.TmaxFor(len(a.Space.Tables)))
	if err != nil {
		return nil, 0, err
	}
	e.Reset(freq)
	obs := e.EncodedCopy()
	best := e.State()
	bestReward := e.Reward(best)
	for {
		valid := e.ValidActions()
		act := a.Agent.Greedy(obs, valid)
		_, reward, done := e.Step(act)
		if reward > bestReward {
			bestReward = reward
			best = e.State()
		}
		obs = e.EncodedCopy()
		if done {
			break
		}
	}
	return best, bestReward, nil
}

// SuggestBatch runs the §6 greedy rollout for many mixes in lockstep: all
// rollouts advance one step per round, and each round's greedy argmax
// forwards are fused into one batched network pass (when the Q head
// implements dqn.BatchValuer). Results are identical to calling Suggest per
// mix — batched forward rows are bitwise identical to single-row ones and
// each rollout performs the same cost evaluations — but the evaluation
// order interleaves across rollouts, so callers should pass pure (simulated
// or cached) cost functions. Committee reference discovery is the intended
// caller: it fuses |workload| rollouts' worth of network passes.
func (a *Advisor) SuggestBatch(freqs []workload.FreqVector) ([]*partition.State, []float64, error) {
	if a.InferCost == nil {
		return nil, nil, fmt.Errorf("core: advisor has no inference cost function (train offline first)")
	}
	n := len(freqs)
	states := make([]*partition.State, n)
	rewards := make([]float64, n)
	if n == 0 {
		return states, rewards, nil
	}
	tmax := a.HP.TmaxFor(len(a.Space.Tables))
	envs := make([]*env.Env, n)
	obs := make([][]float64, n)
	valids := make([][]int, n)
	for i, f := range freqs {
		e, err := env.New(a.Space, a.WL, a.InferCost, tmax)
		if err != nil {
			return nil, nil, err
		}
		e.Reset(f)
		envs[i] = e
		obs[i] = e.EncodedCopy()
		states[i] = e.State()
		rewards[i] = e.Reward(states[i])
	}
	for step := 0; step < tmax; step++ {
		for i, e := range envs {
			// Each env owns its valid-action buffer, reused until its next
			// ValidActions call — safe to hold across the batched argmax.
			valids[i] = e.ValidActions()
		}
		acts := a.Agent.GreedyBatch(obs, valids)
		for i, e := range envs {
			_, reward, _ := e.Step(acts[i])
			if reward > rewards[i] {
				rewards[i] = reward
				states[i] = e.State()
			}
			obs[i] = e.EncodedCopy()
		}
	}
	return states, rewards, nil
}

// SaveModel serializes the agent's Q-network.
func (a *Advisor) SaveModel() ([]byte, error) { return a.Agent.Q.Save() }

// LoadModel restores the agent's Q-network.
func (a *Advisor) LoadModel(data []byte) error { return a.Agent.Q.Load(data) }
