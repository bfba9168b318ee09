//go:build !amd64

package nn

// Without amd64 assembly the portable loops are the only path.

const hasAVX = false

func addRowsAVX(dr, src, v []float64, k []int) { panic("nn: no AVX kernels on this architecture") }

func adamAVX(param, grad, m, v []float64, c *adamConsts) {
	panic("nn: no AVX kernels on this architecture")
}

func softUpdateAVX(w, s []float64, keep, tau float64) {
	panic("nn: no AVX kernels on this architecture")
}
