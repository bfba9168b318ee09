// Package env formulates the partitioning problem as the DRL environment of
// the paper (§3.2): states are (partitioning encoding ⊕ workload frequency
// vector), actions change one table's design or (de)activate a
// co-partitioning edge, and rewards are negated workload costs
// r = −Σ_j f_j·c(P, q_j), normalized by the initial partitioning's cost so
// Q-values stay in a stable range across workload mixes and cost sources
// (estimates offline, measured runtimes online).
package env

import (
	"fmt"

	"partadvisor/internal/partition"
	"partadvisor/internal/workload"
)

// CostFunc evaluates the (positive) workload cost of a partitioning under a
// frequency vector. The offline phase plugs in the network-centric cost
// model; the online phase plugs in engine-measured runtimes with the §4.2
// optimizations.
type CostFunc func(st *partition.State, freq workload.FreqVector) float64

// Env is one episodic environment instance.
type Env struct {
	Space *partition.Space
	WL    *workload.Workload
	Cost  CostFunc
	Tmax  int

	freq     workload.FreqVector
	cur      *partition.State
	step     int
	baseCost float64

	stateBuf []float64
	validBuf []int
}

// New builds an environment. tmax must be at least the table count so every
// partitioning is reachable within one episode (§4.1).
func New(sp *partition.Space, wl *workload.Workload, cost CostFunc, tmax int) (*Env, error) {
	if tmax < len(sp.Tables) {
		return nil, fmt.Errorf("env: tmax %d < table count %d — not all partitionings reachable", tmax, len(sp.Tables))
	}
	return &Env{
		Space:    sp,
		WL:       wl,
		Cost:     cost,
		Tmax:     tmax,
		stateBuf: make([]float64, sp.StateLen()+wl.Size()),
	}, nil
}

// Reset starts an episode for the given workload mix at s0 and returns the
// encoded observation.
func (e *Env) Reset(freq workload.FreqVector) []float64 {
	if len(freq) != e.WL.Size() {
		panic(fmt.Sprintf("env: frequency vector length %d, want %d", len(freq), e.WL.Size()))
	}
	e.freq = freq
	e.cur = e.Space.InitialState()
	e.step = 0
	e.baseCost = e.Cost(e.cur, freq)
	if e.baseCost <= 0 {
		e.baseCost = 1
	}
	return e.Encoded()
}

// State returns the current partitioning state.
func (e *Env) State() *partition.State { return e.cur }

// Encoded returns the current observation (reusing an internal buffer; copy
// before storing).
func (e *Env) Encoded() []float64 {
	e.cur.Encode(e.stateBuf[:e.Space.StateLen()])
	copy(e.stateBuf[e.Space.StateLen():], e.freq)
	return e.stateBuf
}

// EncodedCopy returns a copy of the observation safe to retain (e.g. in the
// replay buffer).
func (e *Env) EncodedCopy() []float64 {
	return append([]float64(nil), e.Encoded()...)
}

// ValidActions returns the indices of currently applicable actions (the
// returned slice is reused across calls).
func (e *Env) ValidActions() []int {
	e.validBuf = e.Space.ValidActions(e.cur, e.validBuf)
	return e.validBuf
}

// Reward returns the normalized reward of an arbitrary state under the
// episode mix: −cost(P)/cost(s0).
func (e *Env) Reward(st *partition.State) float64 {
	return -e.Cost(st, e.freq) / e.baseCost
}

// Step applies the action (an index into Space.Actions()), returning the
// next observation, the reward of the new partitioning, and whether the
// episode ended (tmax steps, §4.1).
func (e *Env) Step(actionIdx int) (obs []float64, reward float64, done bool) {
	a := e.Space.Actions()[actionIdx]
	e.cur = e.Space.Apply(e.cur, a)
	e.step++
	return e.Encoded(), e.Reward(e.cur), e.step >= e.Tmax
}
