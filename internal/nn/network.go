package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
)

// Activation selects a layer's nonlinearity.
type Activation int

const (
	// ReLU is max(0, x) — the paper uses it on every hidden layer.
	ReLU Activation = iota
	// Linear is the identity — the paper's output layer (a Q-value).
	Linear
)

// Dense is a fully connected layer: out = act(in·W + b).
type Dense struct {
	W, B *Matrix
	Act  Activation

	// forward scratch of the current pass; scratch keeps one buffer pair
	// per batch size so alternating training (batch 32) and greedy
	// inference (batch 1) passes don't reallocate on every call
	in, preAct, out *Matrix
	scratch         map[int]*denseScratch
	// wT is Wᵀ, refreshed by every backward pass that computes dL/d(in)
	wT *Matrix
	// gradients
	gradW, gradB *Matrix
}

// denseScratch is the cached forward/backward state for one batch size.
// Each pair is allocated by its first user: inference-only sizes (batch 1
// greedy passes) never pay for delta and gradIn, and an output layer trained
// only through TrainActions never pays for preAct and out.
type denseScratch struct {
	preAct, out   *Matrix
	delta, gradIn *Matrix
}

// NewDense builds a layer with Xavier-initialized weights.
func NewDense(inDim, outDim int, act Activation, rng *rand.Rand) *Dense {
	d := &Dense{
		W:     NewMatrix(inDim, outDim),
		B:     NewMatrix(1, outDim),
		Act:   act,
		gradW: NewMatrix(inDim, outDim),
		gradB: NewMatrix(1, outDim),
	}
	d.W.XavierInit(inDim, outDim, rng)
	return d
}

// Forward computes the layer output for a batch, caching activations for
// backward.
func (d *Dense) Forward(in *Matrix) *Matrix {
	sc := d.scratchFor(in.Rows)
	if sc.preAct == nil {
		sc.preAct, sc.out = NewMatrix(in.Rows, d.W.Cols), NewMatrix(in.Rows, d.W.Cols)
	}
	d.in, d.preAct, d.out = in, sc.preAct, sc.out
	matMul(d.preAct, d.in, d.W)
	// Fused bias + activation: one pass over each row adds the bias (after
	// the matmul accumulation, preserving the summation order) and writes
	// the activated output, instead of separate bias and activation sweeps
	// re-reading the row.
	cols := d.W.Cols
	bias := d.B.Data[:cols]
	for i := 0; i < in.Rows; i++ {
		row := d.preAct.Data[i*cols : (i+1)*cols]
		outRow := d.out.Data[i*cols : (i+1)*cols]
		if d.Act == ReLU {
			for j, v := range row {
				v += bias[j]
				row[j] = v
				outRow[j] = max(v, 0) // branchless; the sign of v is a coin flip
			}
		} else {
			for j, v := range row {
				v += bias[j]
				row[j] = v
				outRow[j] = v
			}
		}
	}
	return d.out
}

// backward takes dL/d(out) and returns dL/d(in), accumulating weight and
// bias gradients (overwriting previous ones). The delta and grad-in
// matrices live in the per-batch-size scratch (like the forward buffers),
// so steady-state training performs no per-step allocations; the returned
// matrix is valid until the next backward of the same batch size. The
// input gradient is optional: nothing reads the first layer's, and at 83
// inputs × 128 units it is the largest product of the whole step. Without
// wantGradIn the result is nil.
func (d *Dense) backward(gradOut *Matrix, wantGradIn bool) *Matrix {
	sc := d.backwardScratch(gradOut.Rows)
	delta := sc.delta // gradOut with the activation derivative applied
	copy(delta.Data, gradOut.Data)
	if d.Act == ReLU {
		for i, p := range d.preAct.Data[:len(delta.Data)] {
			if p <= 0 {
				delta.Data[i] = 0
			}
		}
	}
	var gradIn *Matrix
	if wantGradIn {
		if d.wT == nil {
			d.wT = NewMatrix(d.W.Cols, d.W.Rows)
		}
		transposeTo(d.wT, d.W)
		gradIn = sc.gradIn
		matMul(gradIn, delta, d.wT) // delta × Wᵀ
	}
	MatMulATB(d.gradW, d.in, delta)
	d.gradB.Zero()
	for i := 0; i < delta.Rows; i++ {
		row := delta.Row(i)
		for j, v := range row {
			d.gradB.Data[j] += v
		}
	}
	return gradIn
}

// scratchFor returns the scratch entry of the given batch size. Its buffers
// are allocated by their first user.
func (d *Dense) scratchFor(rows int) *denseScratch {
	if d.scratch == nil {
		d.scratch = make(map[int]*denseScratch)
	}
	sc := d.scratch[rows]
	if sc == nil {
		sc = &denseScratch{}
		d.scratch[rows] = sc
	}
	return sc
}

// backwardScratch is scratchFor with the backward buffers allocated.
func (d *Dense) backwardScratch(rows int) *denseScratch {
	sc := d.scratchFor(rows)
	if sc.delta == nil {
		sc.delta = NewMatrix(rows, d.W.Cols)
		sc.gradIn = NewMatrix(rows, d.W.Rows)
	}
	return sc
}

// forwardAt computes, for every row i of in, only output cols[i] of a linear
// layer into out[i] — products accumulated in ascending-k order from +0 with
// zero activations skipped, bias added last, exactly as Forward would
// compute that one element.
func (d *Dense) forwardAt(in *Matrix, cols []int, out []float64) {
	w, n := d.W.Data, d.W.Cols
	for i, c := range cols {
		s := 0.0
		for k, h := range in.Row(i) {
			if h != 0 {
				s += h * w[k*n+c]
			}
		}
		out[i] = s + d.B.Data[c]
	}
}

// backwardAt is backward for a linear layer whose dL/d(out) has a single
// non-zero per row: g[i] at column cols[i]. Each gradient element receives
// the same additions in the same order as the dense kernels give it once
// their zero terms are dropped (see the note above kTile), so the result is
// bit-identical to backward on the scattered matrix at 1/Cols of the work.
func (d *Dense) backwardAt(in *Matrix, cols []int, g []float64) *Matrix {
	gradIn := d.backwardScratch(in.Rows).gradIn
	w, gw, n := d.W.Data, d.gradW.Data, d.W.Cols
	d.gradW.Zero()
	d.gradB.Zero()
	for i, c := range cols {
		gi := g[i]
		gr := gradIn.Row(i)
		for k, h := range in.Row(i) {
			gr[k] = 0.0 + gi*w[k*n+c] // the dense dot product starts at +0: −0 must not survive
			if h != 0 {
				gw[k*n+c] += h * gi
			}
		}
		d.gradB.Data[c] += gi
	}
	return gradIn
}

// Network is a feed-forward stack of dense layers. A Network (like its
// layers) keeps per-pass scratch state, so a single instance must not be
// used from multiple goroutines concurrently.
type Network struct {
	Layers []*Dense

	predictIn *Matrix   // reused 1-row input of Predict
	batchIn   *Matrix   // reused input matrix of PredictBatch
	batchFlat []float64 // reused output storage of PredictBatch
	batchRes  [][]float64
	trainGrad *Matrix   // reused dL/d(out) of TrainBatch
	actOut    []float64 // reused taken-action outputs, then their gradients, of TrainActions
}

// NewNetwork builds a net with the given layer widths, ReLU on hidden layers
// and a linear output — the paper's architecture is dims = [in, 128, 64, out].
func NewNetwork(dims []int, rng *rand.Rand) *Network {
	if len(dims) < 2 {
		panic("nn: network needs at least input and output dims")
	}
	n := &Network{}
	for i := 0; i < len(dims)-1; i++ {
		act := ReLU
		if i == len(dims)-2 {
			act = Linear
		}
		n.Layers = append(n.Layers, NewDense(dims[i], dims[i+1], act, rng))
	}
	return n
}

// InDim and OutDim return the input/output widths.
func (n *Network) InDim() int  { return n.Layers[0].W.Rows }
func (n *Network) OutDim() int { return n.Layers[len(n.Layers)-1].W.Cols }

// Forward runs a batch through the network.
func (n *Network) Forward(in *Matrix) *Matrix {
	out := in
	for _, l := range n.Layers {
		out = l.Forward(out)
	}
	return out
}

// Predict runs a single input vector and returns a copied output vector.
func (n *Network) Predict(in []float64) []float64 {
	if n.predictIn == nil || n.predictIn.Cols != len(in) {
		n.predictIn = NewMatrix(1, len(in))
	}
	copy(n.predictIn.Data, in)
	out := n.Forward(n.predictIn)
	res := make([]float64, out.Cols)
	copy(res, out.Row(0))
	return res
}

// PredictBatch runs many input vectors through one forward pass and returns
// one output row per input. Each output row is bitwise identical to what
// Predict would return for that input alone, so callers can batch
// greedy/argmin scans over candidate inputs (all valid actions, all
// neighbor designs) without changing results. The returned rows share a
// pooled buffer that is valid only until the next PredictBatch call on this
// network; copy rows that must outlive it.
func (n *Network) PredictBatch(rows [][]float64) [][]float64 {
	if len(rows) == 0 {
		return nil
	}
	cols := len(rows[0])
	if n.batchIn == nil || n.batchIn.Rows != len(rows) || n.batchIn.Cols != cols {
		n.batchIn = NewMatrix(len(rows), cols)
	}
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("nn: ragged rows: row %d has %d cols, want %d", i, len(r), cols))
		}
		copy(n.batchIn.Data[i*cols:], r)
	}
	out := n.Forward(n.batchIn)
	if cap(n.batchFlat) < len(out.Data) {
		n.batchFlat = make([]float64, len(out.Data))
	}
	flat := n.batchFlat[:len(out.Data)]
	copy(flat, out.Data)
	if cap(n.batchRes) < out.Rows {
		n.batchRes = make([][]float64, out.Rows)
	}
	res := n.batchRes[:out.Rows]
	for i := range res {
		res[i] = flat[i*out.Cols : (i+1)*out.Cols]
	}
	return res
}

// Backward backpropagates dL/d(out) through all layers, leaving gradients in
// each layer.
func (n *Network) Backward(gradOut *Matrix) { n.backwardFrom(len(n.Layers)-1, gradOut) }

// backwardFrom backpropagates g, dL/d(out) of layer top, through layers
// top..0. The first layer's input gradient has no reader and is not computed.
func (n *Network) backwardFrom(top int, g *Matrix) {
	for i := top; i >= 0; i-- {
		g = n.Layers[i].backward(g, i > 0)
	}
}

// TrainBatch performs one Adam step on (inputs, targets) with an
// optional per-sample-per-output mask (nil = all outputs count). Masked MSE
// is what DQN needs: only the taken action's Q-output receives a gradient.
// It returns the masked mean squared error before the update.
func (n *Network) TrainBatch(opt *Adam, in, target, mask *Matrix) float64 {
	out := n.Forward(in)
	if out.Rows != target.Rows || out.Cols != target.Cols {
		panic(fmt.Sprintf("nn: target shape (%dx%d) != output (%dx%d)", target.Rows, target.Cols, out.Rows, out.Cols))
	}
	if n.trainGrad == nil || n.trainGrad.Rows != out.Rows || n.trainGrad.Cols != out.Cols {
		n.trainGrad = NewMatrix(out.Rows, out.Cols)
	}
	grad := n.trainGrad
	grad.Zero()
	loss := 0.0
	count := 0.0
	for i := range out.Data {
		mv := 1.0
		if mask != nil {
			mv = mask.Data[i]
		}
		if mv == 0 {
			continue
		}
		diff := out.Data[i] - target.Data[i]
		loss += diff * diff
		count++
		grad.Data[i] = 2 * diff
	}
	if count > 0 {
		loss /= count
		for i := range grad.Data {
			grad.Data[i] /= count
		}
	}
	n.Backward(grad)
	opt.Step(n)
	return loss
}

// TrainActions is TrainBatch for the loss a multi-head Q-network trains on:
// row i contributes only (out[i][actions[i]] − targets[i])², i.e. TrainBatch
// with target and mask zero except at (i, actions[i]). It computes just
// those outputs and their gradients — the output layer costs one column per
// row instead of all of them, forward and backward — and leaves weights,
// optimizer state and the returned loss bit-identical to the masked dense
// step. The output layer must be linear.
func (n *Network) TrainActions(opt *Adam, in *Matrix, actions []int, targets []float64) float64 {
	last := len(n.Layers) - 1
	head := n.Layers[last]
	if len(actions) != in.Rows || len(targets) != in.Rows {
		panic(fmt.Sprintf("nn: TrainActions got %d actions and %d targets for %d rows", len(actions), len(targets), in.Rows))
	}
	if head.Act != Linear {
		panic("nn: TrainActions needs a linear output layer")
	}
	for i, a := range actions {
		if a < 0 || a >= head.W.Cols {
			panic(fmt.Sprintf("nn: TrainActions row %d: action %d outside [0, %d)", i, a, head.W.Cols))
		}
	}
	hidden := in
	for _, l := range n.Layers[:last] {
		hidden = l.Forward(hidden)
	}
	if cap(n.actOut) < in.Rows {
		n.actOut = make([]float64, in.Rows)
	}
	g := n.actOut[:in.Rows]
	head.forwardAt(hidden, actions, g)
	loss := 0.0
	count := float64(len(g))
	for i, out := range g {
		diff := out - targets[i]
		loss += diff * diff
		g[i] = 2 * diff / count
	}
	if count > 0 {
		loss /= count
	}
	n.backwardFrom(last-1, head.backwardAt(hidden, actions, g))
	opt.Step(n)
	return loss
}

// Clone deep-copies the network (used for target networks).
func (n *Network) Clone() *Network {
	c := &Network{}
	for _, l := range n.Layers {
		c.Layers = append(c.Layers, &Dense{
			W: l.W.Clone(), B: l.B.Clone(), Act: l.Act,
			gradW: NewMatrix(l.W.Rows, l.W.Cols),
			gradB: NewMatrix(1, l.B.Cols),
		})
	}
	return c
}

// SoftUpdateFrom blends source weights into this network:
// θ' ← (1−τ)·θ' + τ·θ — the paper's target-network update with τ = 1e-3.
func (n *Network) SoftUpdateFrom(src *Network, tau float64) {
	if len(n.Layers) != len(src.Layers) {
		panic("nn: SoftUpdateFrom layer count mismatch")
	}
	for li, l := range n.Layers {
		softUpdate(l.W.Data, src.Layers[li].W.Data, tau)
		softUpdate(l.B.Data, src.Layers[li].B.Data, tau)
	}
}

// netGob is the serialized form.
type netGob struct {
	Dims []int
	Acts []Activation
	W    [][]float64
	B    [][]float64
}

// MarshalBinary encodes the network with encoding/gob.
func (n *Network) MarshalBinary() ([]byte, error) {
	g := netGob{}
	for i, l := range n.Layers {
		if i == 0 {
			g.Dims = append(g.Dims, l.W.Rows)
		}
		g.Dims = append(g.Dims, l.W.Cols)
		g.Acts = append(g.Acts, l.Act)
		g.W = append(g.W, append([]float64(nil), l.W.Data...))
		g.B = append(g.B, append([]float64(nil), l.B.Data...))
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(g); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes a network previously encoded with MarshalBinary.
func (n *Network) UnmarshalBinary(data []byte) error {
	var g netGob
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&g); err != nil {
		return err
	}
	layers := len(g.Dims) - 1
	if layers < 1 || len(g.W) != layers || len(g.B) != layers || len(g.Acts) != layers {
		return fmt.Errorf("nn: corrupt network encoding")
	}
	n.Layers = nil
	for i := 0; i < layers; i++ {
		rows, cols := g.Dims[i], g.Dims[i+1]
		// Data lengths are checked by division: rows·cols may overflow.
		if rows <= 0 || cols <= 0 || len(g.W[i])%cols != 0 || len(g.W[i])/cols != rows ||
			len(g.B[i]) != cols || (g.Acts[i] != ReLU && g.Acts[i] != Linear) {
			return fmt.Errorf("nn: corrupt layer %d encoding", i)
		}
		n.Layers = append(n.Layers, &Dense{
			W:     &Matrix{Rows: rows, Cols: cols, Data: g.W[i]},
			B:     &Matrix{Rows: 1, Cols: cols, Data: g.B[i]},
			Act:   g.Acts[i],
			gradW: NewMatrix(rows, cols),
			gradB: NewMatrix(1, cols),
		})
	}
	return nil
}
