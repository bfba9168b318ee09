package nn

import (
	"fmt"
	"math"
)

// Adam implements Kingma & Ba's optimizer — the paper trains its Q-networks
// with Adam at learning rate 5e-4 (Table 1).
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	t  int
	mW []*Matrix
	vW []*Matrix
	mB []*Matrix
	vB []*Matrix
}

// NewAdam returns Adam with the standard β/ε defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
}

// Step applies a bias-corrected Adam update. Moment buffers are allocated
// lazily to match the network's shapes; the optimizer is bound to one
// network.
func (o *Adam) Step(n *Network) {
	if o.mW == nil {
		for _, l := range n.Layers {
			o.mW = append(o.mW, NewMatrix(l.W.Rows, l.W.Cols))
			o.vW = append(o.vW, NewMatrix(l.W.Rows, l.W.Cols))
			o.mB = append(o.mB, NewMatrix(1, l.B.Cols))
			o.vB = append(o.vB, NewMatrix(1, l.B.Cols))
		}
	}
	o.t++
	c := adamConsts{
		beta1: o.Beta1, oneMinusBeta1: 1 - o.Beta1,
		beta2: o.Beta2, oneMinusBeta2: 1 - o.Beta2,
		c1: 1 - math.Pow(o.Beta1, float64(o.t)),
		c2: 1 - math.Pow(o.Beta2, float64(o.t)),
		lr: o.LR, eps: o.Epsilon,
	}
	for li, l := range n.Layers {
		c.update(l.W.Data, l.gradW.Data, o.mW[li].Data, o.vW[li].Data)
		c.update(l.B.Data, l.gradB.Data, o.mB[li].Data, o.vB[li].Data)
	}
}

// AdamState is the serializable optimizer state for mid-training
// checkpoints: the step count plus the flattened first/second moment
// buffers (empty before the first Step — Step then allocates them lazily
// exactly as on a fresh optimizer).
type AdamState struct {
	T              int
	MW, VW, MB, VB [][]float64
}

// State deep-copies the optimizer's mutable state.
func (o *Adam) State() AdamState {
	cp := func(ms []*Matrix) [][]float64 {
		out := make([][]float64, len(ms))
		for i, m := range ms {
			out[i] = append([]float64(nil), m.Data...)
		}
		return out
	}
	return AdamState{T: o.t, MW: cp(o.mW), VW: cp(o.vW), MB: cp(o.mB), VB: cp(o.vB)}
}

// SetState restores a snapshot taken by State. Moments are stored flat —
// the update loop only indexes them linearly — so the restored optimizer
// continues bit-identically as long as it drives the same network shape
// (which the Q-head's full-state loader validates).
func (o *Adam) SetState(s AdamState) error {
	if len(s.VW) != len(s.MW) || len(s.MB) != len(s.MW) || len(s.VB) != len(s.MW) {
		return fmt.Errorf("nn: inconsistent Adam snapshot (%d/%d/%d/%d moment layers)",
			len(s.MW), len(s.VW), len(s.MB), len(s.VB))
	}
	mk := func(src [][]float64) []*Matrix {
		if len(src) == 0 {
			return nil
		}
		out := make([]*Matrix, len(src))
		for i, d := range src {
			m := NewMatrix(1, len(d))
			copy(m.Data, d)
			out[i] = m
		}
		return out
	}
	o.t = s.T
	o.mW, o.vW, o.mB, o.vB = mk(s.MW), mk(s.VW), mk(s.MB), mk(s.VB)
	return nil
}
