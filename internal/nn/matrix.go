// Package nn is a small, dependency-free neural-network library: dense
// matrices, fully connected layers with ReLU/linear activations, mean
// squared error, the Adam optimizer, and gob serialization. It exists
// because the paper's advisor is built on Keras, which has no Go
// counterpart; the package implements exactly the subset the paper needs
// (feed-forward nets, 2 hidden layers, ReLU, linear output, Adam, MSE).
// Every kernel runs on the caller's goroutine: the paper's batch-32 steps
// are too small to gain from splitting, and the package starts no
// goroutine. On amd64 CPUs with AVX its three hottest elementwise loops run
// as four-lane assembly kernels that produce the portable Go loops' bits
// (lanes.go).
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("nn: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices (all of equal length).
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("nn: ragged rows: row %d has %d cols, want %d", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (shared storage).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone deep-copies the matrix.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero resets all elements.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// The accumulating kernels below all compute sums of products whose
// per-element order of additions is part of the package's contract (the
// fixed-seed training digests hash every weight bit). Two rewrites keep that
// order and are therefore free:
//
//   - Skipping a zero multiplier. Every accumulator starts at +0 and x + y
//     is −0 only when both are −0, so no accumulator is ever −0; adding the
//     ±0 product of a zero multiplier and a finite operand then changes no
//     bit. (Operands are finite: an Inf or NaN weight means training has
//     already diverged.)
//   - Folding four consecutive updates of one accumulator into one
//     expression, d + a0·b0 + a1·b1 + a2·b2 + a3·b3. Go evaluates it left
//     to right and on amd64 never fuses a multiply into an add, so these are
//     the same four rounded additions in the same order, with one load and
//     one store of d instead of four. The AVX kernel evaluates the same
//     expression in each of four lanes.

// kTile is the tile of the summed dimension in every kernel below: the
// multipliers of one tile are compacted into a nonZeros and applied before
// the next tile's, ascending. In matMul one tile of b (kTile rows ×
// b.Cols) is streamed against every output row before moving to the next
// tile, so for multi-row batches the tile stays in L1/L2 across rows
// instead of b being re-fetched per row. 64 rows × 512 columns × 8
// bytes caps a tile at 256 KB even for the widest layer in the repo; typical
// hidden layers (≤128 cols) keep it under 64 KB.
const kTile = 64

// nonZeros is one tile's multipliers with the zeros removed (one-hot inputs,
// ReLU outputs and their deltas are about half zeros), in ascending order of
// k, the index each one carried in the summed dimension. Compacting first
// takes the data-dependent zero test out of the multiply loops.
type nonZeros struct {
	v [kTile]float64
	k [kTile]int
	n int
}

// gather loads the multipliers data[0], data[stride], … (at most kTile),
// numbered k0, k0+1, …
func (z *nonZeros) gather(data []float64, stride, k0 int) {
	n := 0
	for t := 0; t*stride < len(data); t++ {
		av := data[t*stride]
		z.v[n], z.k[n] = av, k0+t
		if av != 0 {
			n++
		}
	}
	z.n = n
}

// addRowsTo adds v[m] · (row k[m] of src, a matrix as wide as dr) to dr for
// m ascending, four rows per pass over dr (four lanes wide with AVX; see
// lanes.go).
func (z *nonZeros) addRowsTo(dr, src []float64) {
	n := len(dr)
	v, k := z.v[:z.n], z.k[:z.n]
	if useAVX {
		for _, km := range k {
			if km < 0 || (km+1)*n > len(src) {
				panic(fmt.Sprintf("nn: row %d of a %d-wide matrix outside its %d values", km, n, len(src)))
			}
		}
		addRowsAVX(dr, src, v, k)
		return
	}
	m := 0
	for ; m+4 <= len(v); m += 4 {
		b0, b1 := src[k[m]*n:][:n], src[k[m+1]*n:][:n]
		b2, b3 := src[k[m+2]*n:][:n], src[k[m+3]*n:][:n]
		a0, a1, a2, a3 := v[m], v[m+1], v[m+2], v[m+3]
		for j := range dr {
			dr[j] = dr[j] + a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
		}
	}
	for ; m < len(v); m++ {
		b0, a0 := src[k[m]*n:][:n], v[m]
		for j := range dr {
			dr[j] += a0 * b0[j]
		}
	}
}

// matMul computes dst = a × b, cache-blocked on the k (inner) dimension.
// Within each output element the products are still accumulated in
// ascending-k order into a single accumulator — tiles are visited in
// ascending order and each tile scans k ascending — so the result is bitwise
// identical to the untiled ikj loop (and to the k-at-a-time sequential
// definition).
func matMul(dst, a, b *Matrix) {
	clear(dst.Data)
	var z nonZeros
	for k0 := 0; k0 < a.Cols; k0 += kTile {
		k1 := min(k0+kTile, a.Cols)
		for i := 0; i < a.Rows; i++ {
			z.gather(a.Data[i*a.Cols+k0:i*a.Cols+k1], 1, k0)
			z.addRowsTo(dst.Row(i), b.Data)
		}
	}
}

// MatMulATB computes dst = aᵀ × b (used for weight gradients): row i of dst
// is the sum over a's rows r, ascending, of a[r][i] · b's row r.
func MatMulATB(dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("nn: MatMulATB shape mismatch: (%dx%d)ᵀ·(%dx%d)->(%dx%d)",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	clear(dst.Data)
	var z nonZeros
	for i := 0; i < a.Cols; i++ {
		dr := dst.Row(i)
		for r0 := 0; r0 < a.Rows; r0 += kTile {
			r1 := min(r0+kTile, a.Rows)
			z.gather(a.Data[r0*a.Cols+i:(r1-1)*a.Cols+i+1], a.Cols, r0)
			z.addRowsTo(dr, b.Data)
		}
	}
}

// transposeTo writes mᵀ into dst (m.Cols × m.Rows), eight rows of m at a
// time so that each row of dst is written a cache line at a time.
func transposeTo(dst, m *Matrix) {
	rows, cols := m.Rows, m.Cols
	for i0 := 0; i0 < rows; i0 += 8 {
		i1 := min(i0+8, rows)
		for j := 0; j < cols; j++ {
			out := dst.Data[j*rows+i0 : j*rows+i1]
			for t := range out {
				out[t] = m.Data[(i0+t)*cols+j]
			}
		}
	}
}

// XavierInit fills the matrix with Glorot-uniform weights for a layer with
// the given fan-in and fan-out, using the provided RNG for determinism.
func (m *Matrix) XavierInit(fanIn, fanOut int, rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * limit
	}
}
