package core

import (
	"fmt"
	"math"
	"math/rand"

	"partadvisor/internal/env"
	"partadvisor/internal/partition"
	"partadvisor/internal/workload"
)

// Committee implements the DRL subspace experts of §5: reference
// partitionings are discovered by querying the naive advisor with "extreme"
// frequency vectors (one query over-represented); the workload space is
// split by which reference partitioning wins a mix; and one expert agent is
// trained per subspace, on mixes of that subspace only.
type Committee struct {
	Naive *Advisor
	// Refs are the deduplicated reference partitionings P̃_1..P̃_n.
	Refs []*partition.State
	// Experts holds one advisor per reference partitioning.
	Experts []*Advisor

	// cost evaluates reference partitionings for subspace assignment —
	// typically the cached online cost, so assignment needs no new query
	// executions.
	cost env.CostFunc
}

// The §5 committee's settings: the frequencies of the extreme mixes (f_j =
// committeeLow for all but one query with f_i = committeeHigh), and how many
// uniform draws one subspace sample may reject before it falls back.
const (
	committeeLow, committeeHigh = 0.1, 1.0
	committeeSamplerAttempts    = 64
)

// BuildCommittee discovers reference partitionings with the naive advisor
// and trains one expert per subspace against cost (the cached online cost
// in the paper: "the training of these subspace expert models does
// typically not require any actual execution"). Experts share the naive
// advisor's hyperparameters and train for half its episodes (they
// specialize), one after another on the caller's goroutine: the cost is
// typically the stateful OnlineCost, whose per-mix best cost sets the §4.2
// timeout limits, so the committee is a function of the seed only because
// its calls come in one order.
func BuildCommittee(naive *Advisor, cost env.CostFunc, seed int64) (*Committee, error) {
	if cost == nil {
		return nil, fmt.Errorf("core: committee needs a cost function")
	}
	c := &Committee{Naive: naive, cost: cost}

	// Reference partitionings from extreme mixes, deduplicated by layout.
	// The |workload| greedy rollouts run in lockstep so each step's argmax
	// forwards fuse into one batched network pass — the same partitionings
	// one Suggest per mix would find, in a fraction of the passes.
	freqs := make([]workload.FreqVector, len(naive.WL.Queries))
	for i := range naive.WL.Queries {
		freqs[i] = naive.WL.ExtremeFreq(i, committeeLow, committeeHigh)
	}
	refs, _, err := naive.SuggestBatch(freqs)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	for _, st := range refs {
		if sig := st.Signature(); !seen[sig] {
			seen[sig] = true
			c.Refs = append(c.Refs, st)
		}
	}

	// One expert per subspace, trained on mixes assigned to it.
	hp := naive.HP
	if hp.Episodes/2 > 0 {
		hp.Episodes /= 2
	}
	naiveWeights, err := naive.SaveModel()
	if err != nil {
		return nil, err
	}
	for j := range c.Refs {
		expert, err := New(naive.Space, naive.WL, hp, seed+int64(j)*101)
		if err != nil {
			return nil, err
		}
		// Experts start from the naive agent's Q-network and specialize on
		// their subspace with the reduced ε schedule of a bootstrapped
		// agent (§5: expert training "is similar to training the DRL agent
		// for the naive approach", reusing what the naive agent learned).
		if err := expert.LoadModel(naiveWeights); err != nil {
			return nil, err
		}
		expert.Agent.Epsilon = hp.DQN.EpsilonAfter(hp.OnlineEpsilonFromEpisode)
		subspace := j
		sampler := func(rng *rand.Rand) workload.FreqVector {
			for attempt := 0; attempt < committeeSamplerAttempts; attempt++ {
				f := naive.WL.SampleUniform(rng)
				if c.Assign(f) == subspace {
					return f
				}
			}
			// Rare subspace: fall back to a uniform mix of any subspace.
			return naive.WL.SampleUniform(rng)
		}
		if err := expert.TrainOffline(cost, sampler); err != nil {
			return nil, fmt.Errorf("core: committee expert %d: %w", j, err)
		}
		c.Experts = append(c.Experts, expert)
	}
	return c, nil
}

// Assign returns the subspace of a mix: the index of the reference
// partitioning with the maximum reward (minimum measured cost) for it (§5).
func (c *Committee) Assign(freq workload.FreqVector) int {
	best, bestCost := 0, math.Inf(1)
	for j, ref := range c.Refs {
		if cost := c.cost(ref, freq); cost < bestCost {
			bestCost = cost
			best = j
		}
	}
	return best
}

// Suggest picks the mix's subspace expert and runs its inference.
func (c *Committee) Suggest(freq workload.FreqVector) (*partition.State, float64, error) {
	if len(c.Experts) == 0 {
		return nil, 0, fmt.Errorf("core: committee has no experts")
	}
	return c.Experts[c.Assign(freq)].Suggest(freq)
}

// SaveModels serializes every expert's Q-network (index-aligned with Refs).
func (c *Committee) SaveModels() ([][]byte, error) {
	out := make([][]byte, len(c.Experts))
	for i, e := range c.Experts {
		blob, err := e.SaveModel()
		if err != nil {
			return nil, fmt.Errorf("core: committee expert %d: %w", i, err)
		}
		out[i] = blob
	}
	return out, nil
}

// LoadModels restores expert Q-networks previously saved with SaveModels.
func (c *Committee) LoadModels(blobs [][]byte) error {
	if len(blobs) != len(c.Experts) {
		return fmt.Errorf("core: committee has %d experts, got %d models", len(c.Experts), len(blobs))
	}
	for i, blob := range blobs {
		if err := c.Experts[i].LoadModel(blob); err != nil {
			return fmt.Errorf("core: committee expert %d: %w", i, err)
		}
	}
	return nil
}
