package nn

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// sparseMat draws a rows × cols matrix whose entries are zero with
// probability zeroFrac and Gaussian otherwise, with a few exact −0 entries
// mixed in (a zero multiplier of either sign must be skipped the same way).
func sparseMat(rng *rand.Rand, rows, cols int, zeroFrac float64) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		switch u := rng.Float64(); {
		case u < zeroFrac/8:
			m.Data[i] = math.Copysign(0, -1)
		case u < zeroFrac:
		default:
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

// wantSameBits fails unless got and want are equal bit for bit (so +0 ≠ −0
// and a NaN equals only the same NaN).
func wantSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestKernelsKeepReferenceOrder pins the summation order of the blocked
// kernels to the one-accumulator, ascending-index loops they replaced, on
// shapes that straddle the kTile and four-row block boundaries.
func TestKernelsKeepReferenceOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, rows := range []int{1, 3, 32, kTile + 6} {
		for _, inner := range []int{1, 5, kTile, kTile + 1, 2*kTile + 2} {
			for _, cols := range []int{1, 3, 4, 7, 70} {
				name := fmt.Sprintf("%dx%dx%d", rows, inner, cols)

				a, b := sparseMat(rng, rows, inner, 0.5), sparseMat(rng, inner, cols, 0.1)
				got, want := NewMatrix(rows, cols), NewMatrix(rows, cols)
				MatMul(got, a, b)
				for i := 0; i < rows; i++ {
					for k := 0; k < inner; k++ {
						if av := a.At(i, k); av != 0 {
							for j := 0; j < cols; j++ {
								want.Data[i*cols+j] += av * b.At(k, j)
							}
						}
					}
				}
				wantSameBits(t, "MatMul "+name, got.Data, want.Data)

				// aᵀ·b: rows is the summed dimension.
				a, b = sparseMat(rng, rows, inner, 0.5), sparseMat(rng, rows, cols, 0.5)
				got, want = NewMatrix(inner, cols), NewMatrix(inner, cols)
				MatMulATB(got, a, b)
				for r := 0; r < rows; r++ {
					for i := 0; i < inner; i++ {
						if av := a.At(r, i); av != 0 {
							for j := 0; j < cols; j++ {
								want.Data[i*cols+j] += av * b.At(r, j)
							}
						}
					}
				}
				wantSameBits(t, "MatMulATB "+name, got.Data, want.Data)

				// a·bᵀ: the reference multiplies the zeros too.
				a, b = sparseMat(rng, rows, inner, 0.5), sparseMat(rng, cols, inner, 0.1)
				got, want = NewMatrix(rows, cols), NewMatrix(rows, cols)
				MatMulABT(got, a, b)
				for i := 0; i < rows; i++ {
					for j := 0; j < cols; j++ {
						s := 0.0
						for k := 0; k < inner; k++ {
							s += a.At(i, k) * b.At(j, k)
						}
						want.Data[i*cols+j] = s
					}
				}
				wantSameBits(t, "MatMulABT "+name, got.Data, want.Data)
			}
		}
	}
}

// TestKernelsBitIdenticalAcrossWorkers runs every pooled kernel at a shape
// above the dispatch thresholds under several pool widths and compares each
// result, bit for bit, with the sequential one. Run with -race: the blocks
// write disjoint rows of shared matrices.
func TestKernelsBitIdenticalAcrossWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	const rows, inner, cols = 96, 160, 96
	for _, k := range []struct {
		name     string
		n, flops int
	}{
		{"MatMul / Dense.Forward", rows, rows * inner * cols},
		{"MatMulATB", inner, rows * inner * cols},
		{"MatMulABT / Dense.Backward", rows, rows * cols * inner},
	} {
		if rowBlocks(k.n, k.flops) < 2 {
			t.Fatalf("%s at %d×%d×%d would not reach the pool; grow the test shape with the thresholds", k.name, rows, inner, cols)
		}
	}

	rng := rand.New(rand.NewSource(12))
	a := sparseMat(rng, rows, inner, 0.5)
	b := sparseMat(rng, inner, cols, 0)
	bRows := sparseMat(rng, rows, cols, 0.5) // aᵀ·bRows
	bT := sparseMat(rng, cols, inner, 0)     // a·bTᵀ
	gradOut := sparseMat(rng, rows, cols, 0.3)
	layer := NewDense(inner, cols, ReLU, rng)

	run := func(width int) map[string][]float64 {
		runtime.GOMAXPROCS(width)
		res := map[string][]float64{}
		keep := func(name string, m *Matrix) { res[name] = append([]float64(nil), m.Data...) }
		dst := NewMatrix(rows, cols)
		MatMul(dst, a, b)
		keep("MatMul", dst)
		dst = NewMatrix(inner, cols)
		MatMulATB(dst, a, bRows)
		keep("MatMulATB", dst)
		dst = NewMatrix(rows, cols)
		MatMulABT(dst, a, bT)
		keep("MatMulABT", dst)
		d := &Dense{W: layer.W, B: layer.B, Act: ReLU, gradW: NewMatrix(inner, cols), gradB: NewMatrix(1, cols)}
		keep("Dense.Forward", d.Forward(a))
		keep("Dense.Backward gradIn", d.Backward(gradOut))
		keep("Dense.Backward gradW", d.gradW)
		keep("Dense.Backward gradB", d.gradB)
		return res
	}
	want := run(1)
	for _, width := range []int{2, 4, 7} {
		for name, got := range run(width) {
			wantSameBits(t, fmt.Sprintf("%s at %d workers", name, width), got, want[name])
		}
	}
}

// TestBackwardAtMatchesDenseBackward compares the one-non-zero-per-row
// output-layer backward with Dense.Backward on the scattered gradient,
// including rows whose gradient is +0 and −0 and columns hit twice.
func TestBackwardAtMatchesDenseBackward(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	const rows, inDim, outDim = 9, 11, 5
	in := sparseMat(rng, rows, inDim, 0.5)
	cols := []int{0, 3, 3, 4, 1, 0, 2, 3, 4}
	g := make([]float64, rows)
	for i := range g {
		g[i] = rng.NormFloat64()
	}
	g[2], g[5] = 0, math.Copysign(0, -1)

	sparse := NewDense(inDim, outDim, Linear, rng)
	dense := &Dense{W: sparse.W, B: sparse.B, Act: Linear, gradW: NewMatrix(inDim, outDim), gradB: NewMatrix(1, outDim)}
	gradOut := NewMatrix(rows, outDim)
	for i, c := range cols {
		gradOut.Set(i, c, g[i])
	}
	dense.Forward(in)
	wantIn := dense.Backward(gradOut)
	gotIn := sparse.backwardAt(in, cols, g)
	wantSameBits(t, "gradIn", gotIn.Data, wantIn.Data)
	wantSameBits(t, "gradW", sparse.gradW.Data, dense.gradW.Data)
	wantSameBits(t, "gradB", sparse.gradB.Data, dense.gradB.Data)

	out := make([]float64, rows)
	sparse.forwardAt(in, cols, out)
	all := dense.Forward(in)
	for i, c := range cols {
		wantSameBits(t, fmt.Sprintf("forwardAt row %d", i), out[i:i+1], []float64{all.At(i, c)})
	}
}

// actionBatch is one training batch of the sparse-vs-dense comparison.
type actionBatch struct {
	in      *Matrix
	actions []int
	targets []float64
	// exact lists rows whose target is reset, before every step, to the
	// network's current output for the row's action, so that diff == 0.
	exact []int
}

func newActionBatch(rng *rand.Rand, rows, inDim, outDim int) *actionBatch {
	b := &actionBatch{
		in:      NewMatrix(rows, inDim),
		actions: make([]int, rows),
		targets: make([]float64, rows),
		exact:   []int{rows - 1},
	}
	for i := range b.in.Data {
		// a partition-state encoding: mostly 0/1, some fractions
		switch u := rng.Float64(); {
		case u < 0.25:
			b.in.Data[i] = 1
		case u < 0.4:
			b.in.Data[i] = rng.Float64()
		}
	}
	if rows > 2 {
		clear(b.in.Row(rows / 2)) // an all-zero state
		b.exact = append(b.exact, 0)
	}
	for i := range b.actions {
		b.actions[i] = rng.Intn(outDim)
		b.targets[i] = rng.NormFloat64()
	}
	if rows > 1 {
		b.actions[1] = b.actions[0] // the same head twice in one batch
	}
	return b
}

// TestTrainActionsMatchesMaskedTrainBatch drives one clone of a network
// through TrainActions and another through TrainBatch with the equivalent
// one-hot target and mask, and requires every weight, bias, Adam moment and
// returned loss to stay equal bit for bit over many steps.
func TestTrainActionsMatchesMaskedTrainBatch(t *testing.T) {
	for _, tc := range []struct {
		dims        []int
		rows, steps int
	}{
		{[]int{83, 128, 64, 70}, 32, 25}, // the TPC-CH advisor's net
		{[]int{10, 16, 5}, 32, 40},       // one hidden layer, every head repeated
		{[]int{7, 9, 8, 6, 3}, 5, 40},
		{[]int{6, 4}, 8, 40}, // no hidden layer: the output layer is also the first
		{[]int{5, 70, 3}, 1, 40},
	} {
		t.Run(fmt.Sprint(tc.dims), func(t *testing.T) {
			rng := rand.New(rand.NewSource(14))
			base := NewNetwork(tc.dims, rng)
			if len(base.Layers) > 1 {
				// Dead ReLU units: pre-activation ≤ 0 for any 0..1 input.
				for j := 0; j < base.Layers[0].B.Cols; j += 3 {
					base.Layers[0].B.Data[j] = -1e3
				}
			}
			sparse, dense := base.Clone(), base.Clone()
			sparseOpt, denseOpt := NewAdam(1e-3), NewAdam(1e-3)
			inDim, outDim := tc.dims[0], tc.dims[len(tc.dims)-1]
			batches := []*actionBatch{
				newActionBatch(rng, tc.rows, inDim, outDim),
				newActionBatch(rng, tc.rows, inDim, outDim),
			}
			target, mask := NewMatrix(tc.rows, outDim), NewMatrix(tc.rows, outDim)
			for step := 0; step < tc.steps; step++ {
				b := batches[step%len(batches)]
				cur := dense.Forward(b.in)
				for _, i := range b.exact {
					b.targets[i] = cur.At(i, b.actions[i])
				}
				target.Zero()
				mask.Zero()
				for i, a := range b.actions {
					target.Set(i, a, b.targets[i])
					mask.Set(i, a, 1)
				}
				got := sparse.TrainActions(sparseOpt, b.in, b.actions, b.targets)
				want := dense.TrainBatch(denseOpt, b.in, target, mask)
				at := fmt.Sprintf("step %d: ", step)
				wantSameBits(t, at+"loss", []float64{got}, []float64{want})
				gs, ws := sparseOpt.State(), denseOpt.State()
				for li, l := range sparse.Layers {
					at := fmt.Sprintf("%slayer %d ", at, li)
					wantSameBits(t, at+"W", l.W.Data, dense.Layers[li].W.Data)
					wantSameBits(t, at+"B", l.B.Data, dense.Layers[li].B.Data)
					wantSameBits(t, at+"Adam mW", gs.MW[li], ws.MW[li])
					wantSameBits(t, at+"Adam vW", gs.VW[li], ws.VW[li])
					wantSameBits(t, at+"Adam mB", gs.MB[li], ws.MB[li])
					wantSameBits(t, at+"Adam vB", gs.VB[li], ws.VB[li])
				}
			}
		})
	}
}

func TestTrainActionsAllocatesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4)) // the training shapes must stay off the pool at any width

	rng := rand.New(rand.NewSource(15))
	net := NewNetwork([]int{83, 128, 64, 70}, rng)
	opt := NewAdam(1e-3)
	b := newActionBatch(rng, 32, 83, 70)
	net.TrainActions(opt, b.in, b.actions, b.targets) // first call sizes the scratch
	if allocs := testing.AllocsPerRun(20, func() {
		net.TrainActions(opt, b.in, b.actions, b.targets)
	}); allocs != 0 {
		t.Fatalf("steady-state TrainActions allocates %v times per step, want 0", allocs)
	}
}

func TestTrainActionsRejectsBadArguments(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	net := NewNetwork([]int{3, 4, 2}, rng)
	in := NewMatrix(2, 3)
	for name, call := range map[string]func(){
		"action out of range": func() { net.TrainActions(&SGD{LR: 0.1}, in, []int{0, 2}, []float64{0, 0}) },
		"negative action":     func() { net.TrainActions(&SGD{LR: 0.1}, in, []int{-1, 0}, []float64{0, 0}) },
		"short targets":       func() { net.TrainActions(&SGD{LR: 0.1}, in, []int{0, 1}, []float64{0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("TrainActions accepted: %s", name)
				}
			}()
			call()
		}()
	}
}
