package dqn

import (
	"math/rand"
	"testing"
)

// benchShape is one (state width, action count, input) shape of the
// training-step benchmarks.
type benchShape struct {
	name                 string
	stateDim, numActions int
	// bits > 0 makes the state a partition-state encoding: bits leading 0/1
	// entries, then workload-mix frequencies in (0, 1] with reserved slots
	// at zero. bits == 0 draws dense Gaussian inputs.
	bits int
}

var (
	// smallShape is the historical benchmark shape: dense inputs, 12 heads.
	smallShape = benchShape{"48-128-64-12", 48, 12, 0}
	// tpcchShape is what `advise_tpcch` trains: 55 partitioning/edge bits
	// plus 28 mix frequencies in, 70 actions out. Measured over random
	// TPC-CH episodes 26 % of the bits and 75 % of the frequencies are
	// non-zero (35 of 83 inputs).
	tpcchShape = benchShape{"tpcch-83-128-64-70", 83, 70, 55}
)

// benchAgent builds an agent over the given head with a replay buffer full
// of synthetic transitions, ready to TrainStep.
func benchAgent(b *testing.B, scalar bool, sh benchShape) *Agent {
	b.Helper()
	stateDim, numActions := sh.stateDim, sh.numActions
	rng := rand.New(rand.NewSource(1))
	cfg := DefaultConfig()
	cfg.Hidden = []int{128, 64}
	var q QFunc
	if scalar {
		feats := make([][]float64, numActions)
		for i := range feats {
			feats[i] = make([]float64, 8)
			for j := range feats[i] {
				feats[i][j] = rng.NormFloat64()
			}
		}
		q = NewScalarQ(stateDim, cfg.Hidden, feats, cfg.LearningRate, rng)
	} else {
		q = NewMultiHeadQ(stateDim, cfg.Hidden, numActions, cfg.LearningRate, rng)
	}
	a, err := NewAgent(q, cfg, rng)
	if err != nil {
		b.Fatal(err)
	}
	mkState := func() []float64 {
		s := make([]float64, stateDim)
		for i := range s {
			switch {
			case sh.bits == 0:
				s[i] = rng.NormFloat64()
			case i < sh.bits:
				if rng.Float64() < 0.26 {
					s[i] = 1
				}
			case rng.Float64() < 0.75:
				s[i] = 1 - rng.Float64()
			}
		}
		return s
	}
	nextValid := []int{0, 2, 5, 7, 11}
	for a := 12; a < numActions; a += 3 {
		nextValid = append(nextValid, a)
	}
	for i := 0; i < 4*BatchSize; i++ {
		tr := Transition{
			State:  mkState(),
			Action: rng.Intn(numActions),
			Reward: rng.NormFloat64(),
		}
		if i%5 != 0 { // every fifth transition is terminal (Next == nil)
			tr.Next = mkState()
			tr.NextValid = nextValid
		}
		a.Observe(tr)
	}
	return a
}

// benchTrainStep: one replay-sampled gradient update. bytes/op is the PR's
// pooled-scratch acceptance number — the forward/backward/target matrices
// and the batch staging buffers must all come from per-head pools.
func benchTrainStep(b *testing.B, scalar bool, sh benchShape) {
	b.Helper()
	a := benchAgent(b, scalar, sh)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, trained := a.TrainStep(); !trained {
			b.Fatal("TrainStep found no batch")
		}
	}
}

func BenchmarkTrainStepMultiHead(b *testing.B) {
	for _, sh := range []benchShape{smallShape, tpcchShape} {
		b.Run(sh.name, func(b *testing.B) { benchTrainStep(b, false, sh) })
	}
}

func BenchmarkTrainStepScalar(b *testing.B) { benchTrainStep(b, true, smallShape) }

// BenchmarkValuesBatch: the fused batched Q evaluation behind GreedyBatch
// and committee reference discovery, vs the per-state loop it replaces.
func BenchmarkValuesBatch(b *testing.B) {
	a := benchAgent(b, false, smallShape)
	rng := rand.New(rand.NewSource(2))
	const n = 16
	states := make([][]float64, n)
	valids := make([][]int, n)
	for i := range states {
		states[i] = make([]float64, 48)
		for j := range states[i] {
			states[i][j] = rng.NormFloat64()
		}
		valids[i] = []int{0, 1, 3, 6, 9, 11}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Q.ValuesBatch(states, valids)
	}
}
