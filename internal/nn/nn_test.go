package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatalf("At/Set broken")
	}
	r := m.Row(1)
	r[0] = 7
	if m.At(1, 0) != 7 {
		t.Fatalf("Row is not a view")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 0 {
		t.Fatalf("Clone aliases storage")
	}
	m.Zero()
	if m.At(1, 2) != 0 {
		t.Fatalf("Zero failed")
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.Rows != 2 || m.Cols != 2 || m.At(1, 0) != 3 {
		t.Fatalf("FromRows = %+v", m)
	}
	if e := FromRows(nil); e.Rows != 0 {
		t.Fatalf("empty FromRows")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("FromRows accepted ragged rows")
		}
	}()
	FromRows([][]float64{{1}, {1, 2}})
}

func TestMatMul(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	dst := NewMatrix(2, 2)
	matMul(dst, a, b)
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if dst.At(i, j) != want[i][j] {
				t.Fatalf("MatMul = %v", dst.Data)
			}
		}
	}
}

func TestMatMulVariantsAgree(t *testing.T) {
	// Property: MatMulATB(dst, a, b) == aᵀ·b and transposeTo writes bᵀ,
	// verified against explicit transposition through matMul.
	rng := rand.New(rand.NewSource(1))
	randMat := func(r, c int) *Matrix {
		m := NewMatrix(r, c)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		return m
	}
	transpose := func(m *Matrix) *Matrix {
		tm := NewMatrix(m.Cols, m.Rows)
		for i := 0; i < m.Rows; i++ {
			for j := 0; j < m.Cols; j++ {
				tm.Set(j, i, m.At(i, j))
			}
		}
		return tm
	}
	for trial := 0; trial < 20; trial++ {
		r, k, c := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a := randMat(r, k)
		b := randMat(r, c)
		got := NewMatrix(k, c)
		MatMulATB(got, a, b)
		want := NewMatrix(k, c)
		matMul(want, transpose(a), b)
		for i := range got.Data {
			if math.Abs(got.Data[i]-want.Data[i]) > 1e-12 {
				t.Fatalf("MatMulATB mismatch at %d", i)
			}
		}
		a2 := randMat(r, k)
		b2 := randMat(c, k)
		got2, b2T := NewMatrix(r, c), NewMatrix(k, c)
		transposeTo(b2T, b2)
		matMul(got2, a2, b2T)
		want2 := NewMatrix(r, c)
		matMul(want2, a2, transpose(b2))
		for i := range got2.Data {
			if math.Abs(got2.Data[i]-want2.Data[i]) > 1e-12 {
				t.Fatalf("a·bᵀ mismatch at %d", i)
			}
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(3, 3) // aᵀ·b needs as many rows as a
	dst := NewMatrix(3, 3)
	defer func() {
		if recover() == nil {
			t.Fatalf("MatMulATB accepted bad shapes")
		}
	}()
	MatMulATB(dst, a, b)
}

func TestDenseForwardKnownValues(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense(2, 2, ReLU, rng)
	d.W = FromRows([][]float64{{1, -1}, {0, 2}})
	d.B = FromRows([][]float64{{0.5, -10}})
	out := d.Forward(FromRows([][]float64{{1, 1}}))
	// pre = [1*1+1*0+0.5, 1*-1+1*2-10] = [1.5, -9] -> ReLU -> [1.5, 0]
	if out.At(0, 0) != 1.5 || out.At(0, 1) != 0 {
		t.Fatalf("Forward = %v", out.Data)
	}
}

func TestNetworkShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := NewNetwork([]int{5, 8, 3}, rng)
	if n.InDim() != 5 || n.OutDim() != 3 {
		t.Fatalf("dims = %d,%d", n.InDim(), n.OutDim())
	}
	out := n.Predict(make([]float64, 5))
	if len(out) != 3 {
		t.Fatalf("Predict len = %d", len(out))
	}
	// Hidden layer is ReLU, output is Linear.
	if n.Layers[0].Act != ReLU || n.Layers[1].Act != Linear {
		t.Fatalf("activations wrong")
	}
}

func TestGradientsNumerically(t *testing.T) {
	// Check backprop gradients against central finite differences.
	rng := rand.New(rand.NewSource(3))
	n := NewNetwork([]int{3, 4, 2}, rng)
	in := FromRows([][]float64{{0.3, -0.5, 0.8}, {1, 0.2, -0.1}})
	target := FromRows([][]float64{{0.5, -1}, {0, 2}})

	loss := func() float64 {
		out := n.Forward(in)
		s := 0.0
		for i := range out.Data {
			d := out.Data[i] - target.Data[i]
			s += d * d
		}
		return s / float64(len(out.Data))
	}
	// Analytic gradients.
	out := n.Forward(in)
	grad := NewMatrix(out.Rows, out.Cols)
	for i := range out.Data {
		grad.Data[i] = 2 * (out.Data[i] - target.Data[i]) / float64(len(out.Data))
	}
	n.Backward(grad)

	const eps = 1e-6
	for li, l := range n.Layers {
		for _, idx := range []int{0, 1, len(l.W.Data) - 1} {
			orig := l.W.Data[idx]
			l.W.Data[idx] = orig + eps
			up := loss()
			l.W.Data[idx] = orig - eps
			down := loss()
			l.W.Data[idx] = orig
			numeric := (up - down) / (2 * eps)
			analytic := l.gradW.Data[idx]
			if math.Abs(numeric-analytic) > 1e-5*(1+math.Abs(numeric)) {
				t.Fatalf("layer %d W[%d]: numeric %v vs analytic %v", li, idx, numeric, analytic)
			}
		}
		for idx := 0; idx < l.B.Cols; idx++ {
			orig := l.B.Data[idx]
			l.B.Data[idx] = orig + eps
			up := loss()
			l.B.Data[idx] = orig - eps
			down := loss()
			l.B.Data[idx] = orig
			numeric := (up - down) / (2 * eps)
			analytic := l.gradB.Data[idx]
			if math.Abs(numeric-analytic) > 1e-5*(1+math.Abs(numeric)) {
				t.Fatalf("layer %d B[%d]: numeric %v vs analytic %v", li, idx, numeric, analytic)
			}
		}
	}
}

func TestTrainBatchLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := NewNetwork([]int{2, 16, 1}, rng)
	opt := NewAdam(0.01)
	in := FromRows([][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}})
	target := FromRows([][]float64{{0}, {1}, {1}, {0}})
	var loss float64
	for i := 0; i < 3000; i++ {
		loss = n.TrainBatch(opt, in, target, nil)
	}
	if loss > 0.01 {
		t.Fatalf("XOR loss after training = %v", loss)
	}
	for i := 0; i < 4; i++ {
		got := n.Predict(in.Row(i))[0]
		want := target.At(i, 0)
		if math.Abs(got-want) > 0.2 {
			t.Fatalf("XOR(%v) = %v, want %v", in.Row(i), got, want)
		}
	}
}

func TestTrainBatchMask(t *testing.T) {
	// With a mask selecting one output, the other output must not change.
	rng := rand.New(rand.NewSource(5))
	n := NewNetwork([]int{2, 2}, rng) // single linear layer, 2 outputs
	opt := NewAdam(0.1)
	in := FromRows([][]float64{{1, 0}})
	before := n.Predict(in.Row(0))
	target := FromRows([][]float64{{before[0] + 10, before[1] + 10}})
	mask := FromRows([][]float64{{1, 0}})
	for i := 0; i < 50; i++ {
		n.TrainBatch(opt, in, target, mask)
	}
	after := n.Predict(in.Row(0))
	if math.Abs(after[0]-before[0]) < 1 {
		t.Fatalf("masked-in output did not move: %v -> %v", before[0], after[0])
	}
	if math.Abs(after[1]-before[1]) > 1e-9 {
		t.Fatalf("masked-out output moved: %v -> %v", before[1], after[1])
	}
}

// paramDistance is the largest absolute difference between the parameters
// of two identically shaped networks.
func paramDistance(a, b *Network) float64 {
	d := 0.0
	for li, l := range a.Layers {
		ol := b.Layers[li]
		for i := range l.W.Data {
			d = math.Max(d, math.Abs(l.W.Data[i]-ol.W.Data[i]))
		}
		for i := range l.B.Data {
			d = math.Max(d, math.Abs(l.B.Data[i]-ol.B.Data[i]))
		}
	}
	return d
}

func TestCloneAndSoftUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := NewNetwork([]int{4, 6, 2}, rng)
	c := n.Clone()
	if d := paramDistance(n, c); d != 0 {
		t.Fatalf("clone distance = %v", d)
	}
	// Mutate the original; clone must not follow.
	n.Layers[0].W.Data[0] += 1
	if d := paramDistance(n, c); d == 0 {
		t.Fatalf("clone aliases weights")
	}
	// Soft update moves the clone toward the original by tau.
	before := c.Layers[0].W.Data[0]
	c.SoftUpdateFrom(n, 0.5)
	after := c.Layers[0].W.Data[0]
	want := (before + n.Layers[0].W.Data[0]) / 2
	if math.Abs(after-want) > 1e-12 {
		t.Fatalf("SoftUpdate: %v, want %v", after, want)
	}
	// tau = 1 copies exactly.
	c.SoftUpdateFrom(n, 1)
	if d := paramDistance(n, c); d > 1e-12 {
		t.Fatalf("tau=1 distance = %v", d)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := NewNetwork([]int{5, 7, 3}, rng)
	data, err := n.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var m Network
	if err := m.UnmarshalBinary(data); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if d := paramDistance(n, &m); d != 0 {
		t.Fatalf("round-trip distance = %v", d)
	}
	in := []float64{1, -1, 0.5, 0, 2}
	a, b := n.Predict(in), m.Predict(in)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("round-trip prediction differs")
		}
	}
	if err := new(Network).UnmarshalBinary([]byte("junk")); err == nil {
		t.Fatalf("unmarshal accepted junk")
	}
}

func TestDeterministicInit(t *testing.T) {
	a := NewNetwork([]int{3, 4, 1}, rand.New(rand.NewSource(9)))
	b := NewNetwork([]int{3, 4, 1}, rand.New(rand.NewSource(9)))
	if d := paramDistance(a, b); d != 0 {
		t.Fatalf("same-seed networks differ by %v", d)
	}
}

func TestPredictFiniteProperty(t *testing.T) {
	n := NewNetwork([]int{4, 8, 2}, rand.New(rand.NewSource(10)))
	f := func(a, b, c, d float64) bool {
		// Constrain inputs to a sane range (quick can generate huge values).
		clamp := func(x float64) float64 {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return 0
			}
			return math.Mod(x, 100)
		}
		out := n.Predict([]float64{clamp(a), clamp(b), clamp(c), clamp(d)})
		for _, v := range out {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
