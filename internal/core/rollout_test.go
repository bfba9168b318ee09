package core

import (
	"math"
	"testing"

	"partadvisor/internal/benchmarks"
	"partadvisor/internal/costmodel"
	"partadvisor/internal/env"
	"partadvisor/internal/exec"
	"partadvisor/internal/hardware"
	"partadvisor/internal/partition"
	"partadvisor/internal/workload"
)

// referenceRollout is the §6 rollout written out for one mix: one env, the
// online network's values for each state, the first maximum among the
// valid actions, until Step reports the episode done.
func referenceRollout(t *testing.T, a *Advisor, freq workload.FreqVector) (*partition.State, float64) {
	t.Helper()
	e, err := env.New(a.Space, a.WL, a.InferCost, a.HP.TmaxFor(len(a.Space.Tables)))
	if err != nil {
		t.Fatal(err)
	}
	e.Reset(freq)
	obs := e.EncodedCopy()
	best := e.State()
	bestReward := e.Reward(best)
	for {
		valid := e.ValidActions()
		qs := a.Agent.Q.Values(obs, valid)
		act, actQ := valid[0], math.Inf(-1)
		for i, v := range qs {
			if v > actQ {
				act, actQ = valid[i], v
			}
		}
		_, reward, done := e.Step(act)
		if reward > bestReward {
			best, bestReward = e.State(), reward
		}
		obs = e.EncodedCopy()
		if done {
			return best, bestReward
		}
	}
}

// TestSuggestBatchMatchesOneMixRollouts: Suggest is SuggestBatch over one
// mix, and committee reference discovery runs every extreme mix in one
// batch. Over a pure cost, each rollout of the batch must end where it ends
// alone and where the reference rollout ends, in state and in reward bits,
// on both heads.
func TestSuggestBatchMatchesOneMixRollouts(t *testing.T) {
	for _, b := range []*benchmarks.Benchmark{benchmarks.Micro(), benchmarks.TPCCH()} {
		cm := costmodel.New(exec.BuildCatalog(b.Schema, b.Generate(0.3, 1)), hardware.PostgresXLDisk())
		cost := offlineCost(cm, b.Workload)
		freqs := make([]workload.FreqVector, len(b.Workload.Queries))
		for i := range freqs {
			freqs[i] = b.Workload.ExtremeFreq(i, committeeLow, committeeHigh)
		}
		for _, head := range []QHead{MultiHead, ScalarHead} {
			hp := Test()
			hp.Head = head
			a, err := New(b.Space(), b.Workload, hp, 1)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.TrainOffline(cost, nil); err != nil {
				t.Fatal(err)
			}
			states, rewards, err := a.SuggestBatch(freqs)
			if err != nil {
				t.Fatal(err)
			}
			for i, f := range freqs {
				one, oneRewards, err := a.SuggestBatch(freqs[i : i+1])
				if err != nil {
					t.Fatal(err)
				}
				ref, refReward := referenceRollout(t, a, f)
				for what, got := range map[string]struct {
					st *partition.State
					r  float64
				}{"batched": {states[i], rewards[i]}, "alone": {one[0], oneRewards[0]}} {
					if got.st.Signature() != ref.Signature() || math.Float64bits(got.r) != math.Float64bits(refReward) {
						t.Errorf("%s head %d, mix %d %s: %s reward %v, reference %s reward %v",
							b.Name, head, i, what, got.st.Signature(), got.r, ref.Signature(), refReward)
					}
				}
			}
		}
	}
}
