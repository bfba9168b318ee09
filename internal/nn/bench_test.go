package nn

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchMatMul measures the k-tiled kernel at the shapes the training loop
// actually hits: (batch × in) · (in × out) with the paper's 128/64 hidden
// widths.
func benchMatMul(b *testing.B, m, k, n int) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	a := NewMatrix(m, k)
	w := NewMatrix(k, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64()
	}
	dst := NewMatrix(m, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matMul(dst, a, w)
	}
}

func BenchmarkMatMul(b *testing.B) {
	for _, s := range []struct{ m, k, n int }{
		{1, 128, 128},  // single-row inference
		{32, 128, 128}, // minibatch hidden layer
		{32, 128, 64},
		{64, 256, 256},
	} {
		b.Run(fmt.Sprintf("%dx%dx%d", s.m, s.k, s.n), func(b *testing.B) {
			benchMatMul(b, s.m, s.k, s.n)
		})
	}
}

// BenchmarkMatMulBackward: the two backward products at the batch-32 shapes
// of the 83-128-64-70 net, on operands about half zero as ReLU leaves them —
// aᵀ·b is a layer's weight gradient (input × delta), a·bᵀ its input
// gradient (delta × W).
func BenchmarkMatMulBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for _, s := range []struct{ in, out int }{{83, 128}, {128, 64}} {
		in, delta := sparseMat(rng, 32, s.in, 0.5), sparseMat(rng, 32, s.out, 0.5)
		w := sparseMat(rng, s.in, s.out, 0)
		gradW, gradIn := NewMatrix(s.in, s.out), NewMatrix(32, s.in)
		b.Run(fmt.Sprintf("ATB/%dx%d", s.in, s.out), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MatMulATB(gradW, in, delta)
			}
		})
		b.Run(fmt.Sprintf("ABT/%dx%d", s.in, s.out), func(b *testing.B) {
			wT := NewMatrix(s.out, s.in)
			for i := 0; i < b.N; i++ {
				transposeTo(wT, w)
				matMul(gradIn, delta, wT)
			}
		})
	}
}

func benchNet(dims []int) (*Network, *rand.Rand) {
	rng := rand.New(rand.NewSource(1))
	return NewNetwork(dims, rng), rng
}

// BenchmarkForward: the fused bias+activation forward pass at minibatch
// shape — the inner loop of every Q evaluation.
func BenchmarkForward(b *testing.B) {
	net, rng := benchNet([]int{64, 128, 64, 16})
	in := NewMatrix(32, 64)
	for i := range in.Data {
		in.Data[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(in)
	}
}

// BenchmarkPredictBatch: pooled batched inference — steady-state bytes/op
// is the cost of the row copies plus the flat result views, not fresh
// matrices.
func BenchmarkPredictBatch(b *testing.B) {
	net, rng := benchNet([]int{64, 128, 64, 16})
	rows := make([][]float64, 32)
	for i := range rows {
		rows[i] = make([]float64, 64)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.PredictBatch(rows)
	}
}

// BenchmarkNetworkTrainBatch: one full forward+backward+Adam step on a
// minibatch with the pooled gradient scratch — the kernel under every
// dqn TrainStep.
func BenchmarkNetworkTrainBatch(b *testing.B) {
	net, rng := benchNet([]int{64, 128, 64, 16})
	opt := NewAdam(5e-4)
	in := NewMatrix(32, 64)
	target := NewMatrix(32, 16)
	mask := NewMatrix(32, 16)
	for i := range in.Data {
		in.Data[i] = rng.NormFloat64()
	}
	for r := 0; r < 32; r++ {
		c := rng.Intn(16)
		target.Set(r, c, rng.NormFloat64())
		mask.Set(r, c, 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.TrainBatch(opt, in, target, mask)
	}
}

// tpcchNet is the net `advise_tpcch` trains: 83 inputs, the paper's 128-64
// hidden layers, 70 actions.
func tpcchNet() *Network {
	net, _ := benchNet([]int{83, 128, 64, 70})
	return net
}

// BenchmarkAdamStep: one Adam update of every parameter of the TPC-CH net
// (23 558 of them), gradients held fixed.
func BenchmarkAdamStep(b *testing.B) {
	net := tpcchNet()
	rng := rand.New(rand.NewSource(2))
	for _, l := range net.Layers {
		for i := range l.gradW.Data {
			l.gradW.Data[i] = rng.NormFloat64() * 1e-2
		}
		for i := range l.gradB.Data {
			l.gradB.Data[i] = rng.NormFloat64() * 1e-2
		}
	}
	opt := NewAdam(5e-4)
	opt.Step(net) // allocates the moments
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Step(net)
	}
}

// BenchmarkSoftUpdate: the target network's τ = 1e-3 blend at the TPC-CH
// shape, once per DQN update.
func BenchmarkSoftUpdate(b *testing.B) {
	target, online := tpcchNet(), tpcchNet()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target.SoftUpdateFrom(online, 1e-3)
	}
}
