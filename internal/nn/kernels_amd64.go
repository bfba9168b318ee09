package nn

// The AVX kernels of kernels_amd64.s. They do no bounds checks: their
// callers (nonZeros.addRowsTo, adamConsts.update, softUpdate) check every
// slice length first.

//go:noescape
func addRowsAVX(dr, src, v []float64, k []int)

//go:noescape
func adamAVX(param, grad, m, v []float64, c *adamConsts)

//go:noescape
func softUpdateAVX(w, s []float64, keep, tau float64)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// hasAVX reports whether the CPU executes AVX and the operating system
// saves the YMM registers across context switches: CPUID.1:ECX must show
// OSXSAVE and AVX, and XCR0 must enable the SSE and AVX state.
var hasAVX = func() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	xcr0, _ := xgetbv()
	return xcr0&6 == 6
}()
