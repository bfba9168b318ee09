package dqn

import (
	"fmt"
	"math"
	"math/rand"

	"partadvisor/internal/nn"
)

// BatchValuer is an optional QFunc extension: Q-values for many states in a
// single fused forward pass. Each output row is bitwise identical to a
// separate Values call for that state (row computations in the nn package
// are independent of batch size and worker split), so callers — e.g. the
// committee's lockstep reference-discovery rollouts — can batch freely
// without changing any result. The returned rows are freshly allocated and
// safe to retain.
type BatchValuer interface {
	ValuesBatch(states [][]float64, actions [][]int) [][]float64
}

// QFunc abstracts a learned Q-function over a fixed global action list.
type QFunc interface {
	// Values returns Q(state, a) for each action index in actions, using
	// the online network.
	Values(state []float64, actions []int) []float64
	// Train performs one optimization step on the batch and returns the TD
	// loss before the step.
	Train(batch []Transition, gamma float64) float64
	// SoftUpdate blends the online weights into the target network.
	SoftUpdate(tau float64)
	// Save and Load serialize the online network (the target network is
	// reset to a copy on Load).
	Save() ([]byte, error)
	Load(data []byte) error
}

// MultiHeadQ maps a state to one Q-value per global action — the fast head.
type MultiHeadQ struct {
	online *nn.Network
	target *nn.Network
	opt    *nn.Adam
	n      int // number of actions
	// Double selects Double-DQN targets: the online network picks the next
	// action, the target network evaluates it.
	Double bool

	batchIn, nextIn *nn.Matrix
	actions         []int     // taken action per batch row
	targets         []float64 // TD target per batch row
}

// NewMultiHeadQ builds the head with the paper's layer sizes: hidden layers
// as given (Table 1: 128-64) between the state input and |A| outputs.
func NewMultiHeadQ(stateDim int, hidden []int, numActions int, lr float64, rng *rand.Rand) *MultiHeadQ {
	dims := append(append([]int{stateDim}, hidden...), numActions)
	online := nn.NewNetwork(dims, rng)
	return &MultiHeadQ{
		online: online,
		target: online.Clone(),
		opt:    nn.NewAdam(lr),
		n:      numActions,
	}
}

// Values implements QFunc.
func (q *MultiHeadQ) Values(state []float64, actions []int) []float64 {
	all := q.online.Predict(state)
	out := make([]float64, len(actions))
	for i, a := range actions {
		out[i] = all[a]
	}
	return out
}

// ValuesBatch implements BatchValuer: all states go through one forward
// pass, then each row is gathered down to its own valid-action set.
func (q *MultiHeadQ) ValuesBatch(states [][]float64, actions [][]int) [][]float64 {
	if len(states) != len(actions) {
		panic(fmt.Sprintf("dqn: ValuesBatch got %d states but %d action sets", len(states), len(actions)))
	}
	if len(states) == 0 {
		return nil
	}
	all := q.online.PredictBatch(states)
	total := 0
	for _, as := range actions {
		total += len(as)
	}
	flat := make([]float64, 0, total)
	out := make([][]float64, len(states))
	for i, as := range actions {
		lo := len(flat)
		for _, a := range as {
			flat = append(flat, all[i][a])
		}
		out[i] = flat[lo:len(flat):len(flat)]
	}
	return out
}

// checkStateLen panics when a transition's state encoding does not fill a
// pooled batch row exactly: a shorter one would silently train on whatever
// the previous batch left in the row's tail.
func checkStateLen(i int, field string, got, want int) {
	if got != want {
		panic(fmt.Sprintf("dqn: Train transition %d has %s of length %d, want %d", i, field, got, want))
	}
}

// Train implements QFunc with masked MSE: only the taken action's head
// receives a gradient, so only that head is computed (nn.TrainActions).
func (q *MultiHeadQ) Train(batch []Transition, gamma float64) float64 {
	b := len(batch)
	if b == 0 {
		return 0
	}
	stateDim := q.online.InDim()
	if q.batchIn == nil || q.batchIn.Rows != b {
		q.batchIn = nn.NewMatrix(b, stateDim)
		q.nextIn = nn.NewMatrix(b, stateDim)
		q.actions = make([]int, b)
		q.targets = make([]float64, b)
	}
	for i, tr := range batch {
		checkStateLen(i, "State", len(tr.State), stateDim)
		copy(q.batchIn.Row(i), tr.State)
		if tr.bootstraps() {
			checkStateLen(i, "Next", len(tr.Next), stateDim)
			copy(q.nextIn.Row(i), tr.Next)
		}
	}
	// Bootstrapped targets from the target network (rows of transitions
	// that do not bootstrap hold stale states; their outputs are not read).
	// Both forward results live in their network's scratch and are consumed
	// below, before TrainActions runs the online network again.
	nextTarget := q.target.Forward(q.nextIn)
	var nextOnline *nn.Matrix
	if q.Double {
		nextOnline = q.online.Forward(q.nextIn)
	}
	for i, tr := range batch {
		y := tr.Reward
		if tr.bootstraps() {
			if q.Double {
				// argmax over the online net, evaluated by the target net.
				bestA, bestV := tr.NextValid[0], math.Inf(-1)
				for _, a := range tr.NextValid {
					if v := nextOnline.At(i, a); v > bestV {
						bestV = v
						bestA = a
					}
				}
				y += gamma * nextTarget.At(i, bestA)
			} else {
				best := math.Inf(-1)
				for _, a := range tr.NextValid {
					if v := nextTarget.At(i, a); v > best {
						best = v
					}
				}
				y += gamma * best
			}
		}
		q.actions[i], q.targets[i] = tr.Action, y
	}
	return q.online.TrainActions(q.opt, q.batchIn, q.actions, q.targets)
}

// SoftUpdate implements QFunc.
func (q *MultiHeadQ) SoftUpdate(tau float64) { q.target.SoftUpdateFrom(q.online, tau) }

// Save implements QFunc.
func (q *MultiHeadQ) Save() ([]byte, error) { return q.online.MarshalBinary() }

// Load implements QFunc. The checkpoint must fit the constructed head: one
// from a different schema encoding, action space or hidden-layer layout
// would otherwise load fine and then panic (or silently misbehave) on the
// first Values or Train call.
func (q *MultiHeadQ) Load(data []byte) error {
	var net nn.Network
	if err := net.UnmarshalBinary(data); err != nil {
		return err
	}
	if err := q.fits("checkpoint", &net); err != nil {
		return err
	}
	q.online = &net
	q.target = q.online.Clone()
	return nil
}

// fits reports the first way net cannot stand in for the head's online
// network: its input and output widths, then any layer's shape or
// activation.
func (q *MultiHeadQ) fits(which string, net *nn.Network) error {
	if net.InDim() != q.online.InDim() || net.OutDim() != q.n {
		return fmt.Errorf("dqn: %s shape %dx%d does not match multi-head Q %dx%d (state dim × action count) — was it saved for a different schema or action space?",
			which, net.InDim(), net.OutDim(), q.online.InDim(), q.n)
	}
	return sameLayers(which, net, q.online)
}

// Online exposes the online network (weight surgery in incremental
// training, diagnostics in tests).
func (q *MultiHeadQ) Online() *nn.Network { return q.online }

// ScalarQ is the paper-faithful head: Q(s, a) = net(s ⊕ feat(a)). The global
// action-feature table is fixed at construction.
type ScalarQ struct {
	online *nn.Network
	target *nn.Network
	opt    *nn.Adam
	feats  [][]float64

	inferIn      *nn.Matrix // reused Values input batch
	batchInferIn *nn.Matrix // reused ValuesBatch input batch
	trainIn      *nn.Matrix // reused Train (state ⊕ action) batch
	trainTarget  *nn.Matrix
	trainNextIn  *nn.Matrix // reused Train (next ⊕ next-action) batch
	trainOffsets []int
}

// NewScalarQ builds the scalar head over the given per-action feature rows.
func NewScalarQ(stateDim int, hidden []int, actionFeats [][]float64, lr float64, rng *rand.Rand) *ScalarQ {
	if len(actionFeats) == 0 {
		panic("dqn: ScalarQ needs action features")
	}
	dims := append(append([]int{stateDim + len(actionFeats[0])}, hidden...), 1)
	online := nn.NewNetwork(dims, rng)
	return &ScalarQ{online: online, target: online.Clone(), opt: nn.NewAdam(lr), feats: actionFeats}
}

// fillInput writes state ⊕ feat(action) into row.
func (q *ScalarQ) fillInput(row, state []float64, action int) {
	copy(row, state)
	copy(row[len(state):], q.feats[action])
}

// Values implements QFunc by batching all requested actions through one
// forward pass over a reused input matrix: greedy inference costs one
// network evaluation per step regardless of how many actions are valid.
func (q *ScalarQ) Values(state []float64, actions []int) []float64 {
	inDim := q.online.InDim()
	if q.inferIn == nil || q.inferIn.Rows != len(actions) {
		q.inferIn = nn.NewMatrix(len(actions), inDim)
	}
	for i, a := range actions {
		q.fillInput(q.inferIn.Row(i), state, a)
	}
	out := q.online.Forward(q.inferIn)
	res := make([]float64, len(actions))
	for i := range actions {
		res[i] = out.At(i, 0)
	}
	return res
}

// ValuesBatch implements BatchValuer: every (state, action) pair across all
// requested states is packed into one fused forward pass.
func (q *ScalarQ) ValuesBatch(states [][]float64, actions [][]int) [][]float64 {
	if len(states) != len(actions) {
		panic(fmt.Sprintf("dqn: ValuesBatch got %d states but %d action sets", len(states), len(actions)))
	}
	total := 0
	for _, as := range actions {
		total += len(as)
	}
	res := make([][]float64, len(states))
	if total == 0 {
		return res
	}
	if q.batchInferIn == nil || q.batchInferIn.Rows != total {
		q.batchInferIn = nn.NewMatrix(total, q.online.InDim())
	}
	r := 0
	for i, as := range actions {
		for _, a := range as {
			q.fillInput(q.batchInferIn.Row(r), states[i], a)
			r++
		}
	}
	out := q.online.Forward(q.batchInferIn)
	flat := make([]float64, total)
	r = 0
	for i, as := range actions {
		lo := r
		for range as {
			flat[r] = out.At(r, 0)
			r++
		}
		res[i] = flat[lo:r:r]
	}
	return res
}

// Train implements QFunc. Targets require a max over next-state actions per
// sample; all (sample, next-action) pairs are batched into one target-net
// forward pass. Input, target and next-state matrices are pooled on the
// head, so a steady-state training step performs no per-call allocations.
func (q *ScalarQ) Train(batch []Transition, gamma float64) float64 {
	if len(batch) == 0 {
		return 0
	}
	nNext := 0
	stateDim := q.online.InDim() - len(q.feats[0])
	for i, tr := range batch {
		checkStateLen(i, "State", len(tr.State), stateDim)
		if tr.bootstraps() {
			checkStateLen(i, "Next", len(tr.Next), stateDim)
			nNext += len(tr.NextValid)
		}
	}
	if cap(q.trainOffsets) < len(batch)+1 {
		q.trainOffsets = make([]int, len(batch)+1)
	}
	offsets := q.trainOffsets[:len(batch)+1]
	var nextQ *nn.Matrix
	if nNext > 0 {
		if q.trainNextIn == nil || q.trainNextIn.Rows != nNext {
			q.trainNextIn = nn.NewMatrix(nNext, q.online.InDim())
		}
		r := 0
		for i, tr := range batch {
			offsets[i] = r
			if !tr.Terminal {
				for _, a := range tr.NextValid {
					q.fillInput(q.trainNextIn.Row(r), tr.Next, a)
					r++
				}
			}
		}
		offsets[len(batch)] = r
		nextQ = q.target.Forward(q.trainNextIn)
	} else {
		for i := range offsets {
			offsets[i] = 0
		}
	}
	if q.trainIn == nil || q.trainIn.Rows != len(batch) {
		q.trainIn = nn.NewMatrix(len(batch), q.online.InDim())
		q.trainTarget = nn.NewMatrix(len(batch), 1)
	}
	for i, tr := range batch {
		q.fillInput(q.trainIn.Row(i), tr.State, tr.Action)
		y := tr.Reward
		if lo, hi := offsets[i], offsets[i+1]; hi > lo {
			best := math.Inf(-1)
			for r := lo; r < hi; r++ {
				if v := nextQ.At(r, 0); v > best {
					best = v
				}
			}
			y += gamma * best
		}
		q.trainTarget.Set(i, 0, y)
	}
	return q.online.TrainBatch(q.opt, q.trainIn, q.trainTarget, nil)
}

// SoftUpdate implements QFunc.
func (q *ScalarQ) SoftUpdate(tau float64) { q.target.SoftUpdateFrom(q.online, tau) }

// Save implements QFunc.
func (q *ScalarQ) Save() ([]byte, error) { return q.online.MarshalBinary() }

// Load implements QFunc. The checkpoint must fit the constructed head;
// anything else comes from a different schema, action encoding or hidden
// layout and is rejected.
func (q *ScalarQ) Load(data []byte) error {
	var net nn.Network
	if err := net.UnmarshalBinary(data); err != nil {
		return err
	}
	if err := q.fits("checkpoint", &net); err != nil {
		return err
	}
	q.online = &net
	q.target = q.online.Clone()
	return nil
}

// fits reports the first way net cannot stand in for the head's online
// network: it must consume state ⊕ action-feature rows of this head's width
// and emit a single Q-value, with every layer shaped like the head's.
func (q *ScalarQ) fits(which string, net *nn.Network) error {
	if net.InDim() != q.online.InDim() || net.OutDim() != 1 {
		return fmt.Errorf("dqn: %s shape %dx%d does not match scalar Q %dx1 (state dim + %d action features) — was it saved for a different schema or action space?",
			which, net.InDim(), net.OutDim(), q.online.InDim(), len(q.feats[0]))
	}
	return sameLayers(which, net, q.online)
}
