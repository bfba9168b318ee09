package nn

import (
	"fmt"
	"math"
)

// The training step's three elementwise loops — nonZeros.addRowsTo's
// multiply-add, the Adam update and the target network's soft update — run
// four float64 lanes wide on amd64 CPUs with AVX (kernels_amd64.s). A lane
// computes one element with the IEEE-754 operations of the Go statement it
// replaces, in the same order and each rounded once (AVX multiplies, adds,
// subtracts, divides and square roots are correctly rounded like their
// scalar SSE2 forms, and the kernels use no fused multiply-add), so every
// weight and moment is bit-identical to the portable loops, which remain
// the path everywhere else and the oracle in tests.
//
// useAVX picks the path. It is set once from CPUID at package init; only
// tests change it, to run both paths on one host.
var useAVX = hasAVX

// adamConsts is one Adam step's per-element constants, in the order
// adamAVX reads them.
type adamConsts struct {
	beta1, oneMinusBeta1 float64
	beta2, oneMinusBeta2 float64
	c1, c2               float64 // bias corrections 1 − βᵗ
	lr, eps              float64
}

// update applies the step to one parameter slice and its gradient and
// moments, all of one length.
func (c *adamConsts) update(param, grad, m, v []float64) {
	if len(grad) != len(param) || len(m) != len(param) || len(v) != len(param) {
		panic(fmt.Sprintf("nn: Adam update over %d parameters with %d gradients and %d/%d moments",
			len(param), len(grad), len(m), len(v)))
	}
	if useAVX {
		adamAVX(param, grad, m, v, c)
		return
	}
	for i := range param {
		g := grad[i]
		m[i] = c.beta1*m[i] + c.oneMinusBeta1*g
		v[i] = c.beta2*v[i] + c.oneMinusBeta2*g*g
		mHat := m[i] / c.c1
		vHat := v[i] / c.c2
		param[i] -= c.lr * mHat / (math.Sqrt(vHat) + c.eps)
	}
}

// softUpdate blends s into w: w ← (1−τ)·w + τ·s.
func softUpdate(w, s []float64, tau float64) {
	if len(s) != len(w) {
		panic(fmt.Sprintf("nn: SoftUpdateFrom blends %d source values into %d", len(s), len(w)))
	}
	keep := 1 - tau
	if useAVX {
		softUpdateAVX(w, s, keep, tau)
		return
	}
	for i := range w {
		w[i] = keep*w[i] + tau*s[i]
	}
}
