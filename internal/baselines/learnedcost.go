package baselines

import (
	"math/rand"

	"partadvisor/internal/costmodel"
	"partadvisor/internal/nn"
	"partadvisor/internal/partition"
	"partadvisor/internal/workload"
)

// LearnedCostModel is the Exp-4 alternative to DRL: a neural network that
// predicts the (normalized) workload cost of a partitioning for a workload
// mix, combined with a classical optimization procedure (hill climbing on
// model predictions) to select designs. The paper bootstraps it offline on
// the network-centric cost model and refines it online on measured
// runtimes, in an exploitation-driven variant (each iteration starts at the
// model's current minimum) and an exploration-driven variant (each
// iteration starts at a random design).
type LearnedCostModel struct {
	sp *partition.Space
	wl *workload.Workload

	net *nn.Network
	opt *nn.Adam
	rng *rand.Rand

	// Replayed training set.
	inputs [][]float64
	labels []float64

	// Normalizers per label source (estimates vs runtimes).
	estNorm  float64
	realNorm float64
}

// NewLearnedCostModel builds the model with the given hidden layers
// (the experiments use the paper's 128-64).
func NewLearnedCostModel(sp *partition.Space, wl *workload.Workload, hidden []int, lr float64, seed int64) *LearnedCostModel {
	rng := rand.New(rand.NewSource(seed))
	inDim := sp.StateLen() + wl.Size()
	dims := append(append([]int{inDim}, hidden...), 1)
	return &LearnedCostModel{
		sp:  sp,
		wl:  wl,
		net: nn.NewNetwork(dims, rng),
		opt: nn.NewAdam(lr),
		rng: rng,
	}
}

// encode concatenates the partitioning encoding and the frequency vector.
func (m *LearnedCostModel) encode(st *partition.State, freq workload.FreqVector) []float64 {
	in := make([]float64, m.sp.StateLen()+m.wl.Size())
	st.Encode(in[:m.sp.StateLen()])
	copy(in[m.sp.StateLen():], freq)
	return in
}

// Predict returns the model's normalized cost estimate.
func (m *LearnedCostModel) Predict(st *partition.State, freq workload.FreqVector) float64 {
	return m.net.Predict(m.encode(st, freq))[0]
}

// randomState performs a seeded random walk from s0.
func (m *LearnedCostModel) randomState(steps int) *partition.State {
	st := m.sp.InitialState()
	var buf []int
	for i := 0; i < steps; i++ {
		ai := m.sp.RandomValidAction(st, m.rng, buf)
		st = m.sp.Apply(st, m.sp.Actions()[ai])
	}
	return st
}

// addSample records one (state, freq) -> normalized cost example.
func (m *LearnedCostModel) addSample(st *partition.State, freq workload.FreqVector, normCost float64) {
	m.inputs = append(m.inputs, m.encode(st, freq))
	m.labels = append(m.labels, normCost)
}

// fit runs minibatch training epochs over the accumulated samples.
func (m *LearnedCostModel) fit(epochs, batch int) float64 {
	if len(m.inputs) == 0 {
		return 0
	}
	var loss float64
	for e := 0; e < epochs; e++ {
		for start := 0; start < len(m.inputs); start += batch {
			end := start + batch
			if end > len(m.inputs) {
				end = len(m.inputs)
			}
			rows := make([][]float64, 0, end-start)
			targets := make([][]float64, 0, end-start)
			for i := start; i < end; i++ {
				j := m.rng.Intn(len(m.inputs))
				rows = append(rows, m.inputs[j])
				targets = append(targets, []float64{m.labels[j]})
			}
			loss = m.net.TrainBatch(m.opt, nn.FromRows(rows), nn.FromRows(targets), nil)
		}
	}
	return loss
}

// PretrainOffline bootstraps the model on the network-centric cost model
// with `pairs` random workload/partitioning pairs (the paper uses 100k at
// full scale; experiments scale this down together with the DRL budget).
func (m *LearnedCostModel) PretrainOffline(cm *costmodel.Model, pairs int, sampleFreq func(*rand.Rand) workload.FreqVector) {
	s0 := m.sp.InitialState()
	m.estNorm = cm.WorkloadCost(s0, m.wl, m.wl.UniformFreq())
	if m.estNorm <= 0 {
		m.estNorm = 1
	}
	for i := 0; i < pairs; i++ {
		st := m.randomState(1 + m.rng.Intn(2*len(m.sp.Tables)))
		freq := sampleFreq(m.rng)
		m.addSample(st, freq, cm.WorkloadCost(st, m.wl, freq)/m.estNorm)
	}
	m.fit(4, 32)
}

// Minimize hill-climbs the model's prediction for the given mix, starting
// from s0 (exploit) or from a random design (explore), and returns the best
// design found.
func (m *LearnedCostModel) Minimize(freq workload.FreqVector, maxSteps int, explore bool) *partition.State {
	st := m.sp.InitialState()
	if explore {
		st = m.randomState(1 + m.rng.Intn(2*len(m.sp.Tables)))
	}
	cur := m.Predict(st, freq)
	for step := 0; step < maxSteps; step++ {
		// Score every valid neighbor in one batched forward pass instead of
		// per-neighbor Predict calls (same math per row, one matmul).
		var neighbors []*partition.State
		var rows [][]float64
		for _, a := range m.sp.Actions() {
			if !m.sp.Valid(st, a) {
				continue
			}
			next := m.sp.Apply(st, a)
			neighbors = append(neighbors, next)
			rows = append(rows, m.encode(next, freq))
		}
		if len(neighbors) == 0 {
			break
		}
		var bestNext *partition.State
		bestCost := cur
		for i, out := range m.net.PredictBatch(rows) {
			if c := out[0]; c < bestCost {
				bestCost = c
				bestNext = neighbors[i]
			}
		}
		if bestNext == nil {
			break
		}
		st = bestNext
		cur = bestCost
	}
	return st
}

// TrainOnline refines the model on measured runtimes: per iteration it
// selects a design (model minimum for the exploit variant, random for the
// explore variant), measures the workload's real cost under it, adds the
// example and retrains. measure must return the summed weighted runtime of
// the mix under the given partitioning. It returns the number of designs
// measured.
func (m *LearnedCostModel) TrainOnline(measure func(*partition.State, workload.FreqVector) float64,
	sampleFreq func(*rand.Rand) workload.FreqVector, iterations int, explore bool) int {
	s0 := m.sp.InitialState()
	if m.realNorm == 0 {
		m.realNorm = measure(s0, m.wl.UniformFreq())
		if m.realNorm <= 0 {
			m.realNorm = 1
		}
	}
	measured := 0
	for it := 0; it < iterations; it++ {
		freq := sampleFreq(m.rng)
		st := m.Minimize(freq, len(m.sp.Tables), explore)
		cost := measure(st, freq)
		m.addSample(st, freq, cost/m.realNorm)
		measured++
		m.fit(2, 32)
	}
	return measured
}

// Suggest returns the model-optimal design for a mix (paper Exp. 4's
// inference: minimize the learned cost model).
func (m *LearnedCostModel) Suggest(freq workload.FreqVector) *partition.State {
	return m.Minimize(freq, 2*len(m.sp.Tables), false)
}
