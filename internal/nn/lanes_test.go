package nn

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// kernelPaths lists the paths this host can run: the portable loops, and
// the AVX kernels where the CPU has them.
func kernelPaths() []bool {
	if hasAVX {
		return []bool{false, true}
	}
	return []bool{false}
}

// onPath runs fn once per kernel path, as a subtest named after it.
func onPath(t *testing.T, fn func(t *testing.T)) {
	t.Helper()
	for _, avx := range kernelPaths() {
		name := "portable"
		if avx {
			name = "avx"
		}
		t.Run(name, func(t *testing.T) {
			defer func(was bool) { useAVX = was }(useAVX)
			useAVX = avx
			fn(t)
		})
	}
}

// edgyValue draws a finite value that is sometimes an exact ±0, a
// subnormal or of large magnitude. Magnitudes stay below 1e150, so no
// product or short sum of them overflows.
func edgyValue(rng *rand.Rand) float64 {
	switch u := rng.Float64(); {
	case u < 0.1:
		return 0
	case u < 0.2:
		return math.Copysign(0, -1)
	case u < 0.3:
		return (rng.Float64() - 0.5) * 1e-310 // subnormal
	case u < 0.35:
		return math.Copysign(math.SmallestNonzeroFloat64, rng.Float64()-0.5)
	case u < 0.45:
		return rng.NormFloat64() * 1e149
	default:
		return rng.NormFloat64()
	}
}

func edgySlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = edgyValue(rng)
	}
	return s
}

// TestAddRowsToMatchesReference runs nonZeros.addRowsTo at every width the
// lane kernel treats differently (under one lane group, a group plus a
// tail, the net's layer widths) with 1–7 survivors and a full tile, and
// compares it with one d[j] += v·b[j] pass per survivor, bit for bit.
func TestAddRowsToMatchesReference(t *testing.T) {
	onPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		for _, width := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 64, 70, 128} {
			for _, survivors := range []int{1, 2, 3, 4, 5, 6, 7, kTile} {
				src := edgySlice(rng, kTile*width)
				var z nonZeros
				for i, k := range rng.Perm(kTile)[:survivors] {
					z.k[i] = k
				}
				sort.Ints(z.k[:survivors])
				for i := 0; i < survivors; i++ {
					z.v[i] = edgyValue(rng)
				}
				z.n = survivors
				dr := edgySlice(rng, width)
				for j, d := range dr {
					if d == 0 {
						dr[j] = 0 // an accumulator is never −0
					}
				}
				want := append([]float64(nil), dr...)
				for m := 0; m < z.n; m++ {
					b := src[z.k[m]*width:]
					for j := range want {
						want[j] += z.v[m] * b[j]
					}
				}
				z.addRowsTo(dr, src)
				wantSameBits(t, fmt.Sprintf("width %d, %d survivors", width, survivors), dr, want)
			}
		}
	})
}

// adamReference is Adam.Step's update as it was written before the lane
// kernels, with the constants inline.
func adamReference(o *Adam, c1, c2 float64, param, grad, m, v []float64) {
	for i := range param {
		g := grad[i]
		m[i] = o.Beta1*m[i] + (1-o.Beta1)*g
		v[i] = o.Beta2*v[i] + (1-o.Beta2)*g*g
		mHat := m[i] / c1
		vHat := v[i] / c2
		param[i] -= o.LR * mHat / (math.Sqrt(vHat) + o.Epsilon)
	}
}

// TestAdamMatchesReference runs Adam.Step over several steps on layers of
// 1–9 parameters and on the TPC-CH net's first layer (83 × 128 = 10 624)
// and compares parameters and moments with the reference loop.
func TestAdamMatchesReference(t *testing.T) {
	onPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(32))
		for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 83 * 128} {
			net := &Network{Layers: []*Dense{{
				W: &Matrix{Rows: 1, Cols: n, Data: edgySlice(rng, n)}, B: NewMatrix(1, 1),
				gradW: NewMatrix(1, n), gradB: NewMatrix(1, 1),
			}}}
			opt := NewAdam(5e-4)
			param := append([]float64(nil), net.Layers[0].W.Data...)
			m, v := make([]float64, n), make([]float64, n)
			for step := 1; step <= 5; step++ {
				copy(net.Layers[0].gradW.Data, edgySlice(rng, n))
				opt.Step(net)
				c1 := 1 - math.Pow(opt.Beta1, float64(step))
				c2 := 1 - math.Pow(opt.Beta2, float64(step))
				adamReference(opt, c1, c2, param, net.Layers[0].gradW.Data, m, v)
				at := fmt.Sprintf("%d parameters, step %d: ", n, step)
				wantSameBits(t, at+"W", net.Layers[0].W.Data, param)
				wantSameBits(t, at+"m", opt.mW[0].Data, m)
				wantSameBits(t, at+"v", opt.vW[0].Data, v)
			}
		}
	})
}

// TestSoftUpdateMatchesReference compares SoftUpdateFrom with
// (1−τ)·w + τ·s on a net whose layers cover lane groups and tails.
func TestSoftUpdateMatchesReference(t *testing.T) {
	onPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(33))
		target := NewNetwork([]int{83, 9, 64, 7}, rng)
		src := NewNetwork([]int{83, 9, 64, 7}, rng)
		for _, net := range []*Network{target, src} {
			for _, l := range net.Layers {
				copy(l.W.Data, edgySlice(rng, len(l.W.Data)))
				copy(l.B.Data, edgySlice(rng, len(l.B.Data)))
			}
		}
		const tau = 1e-3
		want := target.Clone()
		for li, l := range want.Layers {
			for _, p := range [][2][]float64{{l.W.Data, src.Layers[li].W.Data}, {l.B.Data, src.Layers[li].B.Data}} {
				for i := range p[0] {
					p[0][i] = (1-tau)*p[0][i] + tau*p[1][i]
				}
			}
		}
		target.SoftUpdateFrom(src, tau)
		for li, l := range target.Layers {
			wantSameBits(t, fmt.Sprintf("layer %d W", li), l.W.Data, want.Layers[li].W.Data)
			wantSameBits(t, fmt.Sprintf("layer %d B", li), l.B.Data, want.Layers[li].B.Data)
		}
	})
}

// TestTrainingIdenticalOnBothPaths trains one clone of the TPC-CH net on
// the portable loops and one on the AVX kernels and requires every weight
// and Adam moment to agree bit for bit after every step.
func TestTrainingIdenticalOnBothPaths(t *testing.T) {
	if !hasAVX {
		t.Skip("the CPU has no AVX: there is one path")
	}
	defer func(was bool) { useAVX = was }(useAVX)
	rng := rand.New(rand.NewSource(34))
	base := NewNetwork([]int{83, 128, 64, 70}, rng)
	nets := [2]*Network{base.Clone(), base.Clone()}
	targets := [2]*Network{base.Clone(), base.Clone()}
	opts := [2]*Adam{NewAdam(5e-4), NewAdam(5e-4)}
	b := newActionBatch(rng, 32, 83, 70)
	for step := 0; step < 10; step++ {
		for i, avx := range []bool{false, true} {
			useAVX = avx
			nets[i].TrainActions(opts[i], b.in, b.actions, b.targets)
			targets[i].SoftUpdateFrom(nets[i], 1e-3)
		}
		ps, as := opts[0].State(), opts[1].State()
		for li, l := range nets[0].Layers {
			at := fmt.Sprintf("step %d, layer %d ", step, li)
			wantSameBits(t, at+"W", nets[1].Layers[li].W.Data, l.W.Data)
			wantSameBits(t, at+"B", nets[1].Layers[li].B.Data, l.B.Data)
			wantSameBits(t, at+"target W", targets[1].Layers[li].W.Data, targets[0].Layers[li].W.Data)
			wantSameBits(t, at+"Adam mW", as.MW[li], ps.MW[li])
			wantSameBits(t, at+"Adam vW", as.VW[li], ps.VW[li])
		}
	}
}

// TestKernelWrappersRejectShortSlices: a length mismatch panics in the Go
// wrapper, before any kernel reads or writes past a slice.
func TestKernelWrappersRejectShortSlices(t *testing.T) {
	onPath(t, func(t *testing.T) {
		c := adamConsts{beta1: 0.9, oneMinusBeta1: 0.1, beta2: 0.999, oneMinusBeta2: 1e-3, c1: 1, c2: 1, lr: 1e-3, eps: 1e-8}
		five, four := make([]float64, 5), make([]float64, 4)
		z := nonZeros{n: 1}
		z.k[0] = 2
		for name, call := range map[string]func(){
			"Adam grad":        func() { c.update(five, four, five, five) },
			"Adam m":           func() { c.update(five, five, four, five) },
			"Adam v":           func() { c.update(five, five, five, four) },
			"soft update":      func() { softUpdate(five, four, 0.1) },
			"row past the end": func() { z.addRowsTo(four, make([]float64, 11)) },
			"SoftUpdateFrom": func() {
				rng := rand.New(rand.NewSource(35))
				NewNetwork([]int{3, 4}, rng).SoftUpdateFrom(NewNetwork([]int{3, 5}, rng), 0.1)
			},
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: no panic", name)
					}
				}()
				call()
			}()
		}
	})
}
