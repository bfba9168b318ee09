package nn

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The package shares one worker pool across all networks and matrices, sized
// to GOMAXPROCS. Parallel kernels split their output rows into
// contiguous blocks, one block per worker; every element is still computed by
// exactly the code (and floating-point accumulation order) of the sequential
// path, so parallel results are bitwise identical to sequential ones.

// Crossover thresholds: tiny inputs are slower to dispatch than to compute,
// so they stay on the caller's goroutine.
const (
	// minParRows is the minimum number of output rows worth splitting.
	minParRows = 8
	// minParFlops is the minimum multiply-add count worth dispatching to
	// the pool at all. Handing a block to a parked worker costs a futex
	// wake and a wg.Wait (tens of µs, and 9 % of a profiled training run
	// when the bar was 16 K), so the bar sits above every batch-32 kernel
	// of the paper's 128-64 net — the largest, 32 × 83 inputs × 128 units,
	// is 340 K multiply-adds, ~45 µs dense on the AVX kernel (~170 µs on
	// the portable loop; 2-vCPU AVX2 Xeon) — and below the ~1 000-row
	// batches of ScalarQ (≥ 10 M). Placement never changes a result bit.
	minParFlops = 1 << 20
	// minBlockRows is the smallest row block handed to one worker.
	minBlockRows = 4
)

var (
	// poolWorkers counts started workers; the pool only ever grows (idle
	// workers park on the task channel and cost nothing).
	poolWorkers atomic.Int32
	poolTasks   atomic.Pointer[chan func()]
	poolMu      sync.Mutex
)

// submit enqueues fn on the shared pool, or reports false when the queue is
// full (the caller then runs fn inline — work placement never changes
// results, only where they are computed).
func submit(fn func()) bool {
	ch := poolTasks.Load()
	if ch == nil {
		return false
	}
	select {
	case *ch <- fn:
		return true
	default:
		return false
	}
}

// ensurePool lazily starts workers up to n-1 (the caller's goroutine acts as
// the n-th worker during parallelFor).
func ensurePool(n int) {
	if int(poolWorkers.Load()) >= n-1 {
		return
	}
	poolMu.Lock()
	defer poolMu.Unlock()
	if poolTasks.Load() == nil {
		ch := make(chan func(), 128)
		poolTasks.Store(&ch)
	}
	ch := *poolTasks.Load()
	for int(poolWorkers.Load()) < n-1 {
		poolWorkers.Add(1)
		go func() {
			for fn := range ch {
				fn()
			}
		}()
	}
}

// rowBlocks returns how many contiguous row blocks a kernel over n output
// rows costing the given multiply-adds should be split into; 1 means it runs
// on the caller's goroutine. Kernels test it before building the closure
// parallelFor takes, so the sequential path — every training-step kernel at
// batch 32 — allocates nothing.
func rowBlocks(n, flops int) int {
	workers := runtime.GOMAXPROCS(0)
	if workers <= 1 || n < minParRows || flops < minParFlops {
		return 1
	}
	return min(n/minBlockRows, workers) // ≥ 2: minParRows is two blocks
}

// parallelFor splits [0, n) into blocks (> 1, from rowBlocks) contiguous
// ranges and runs fn(lo, hi) for each on the shared pool, the first on the
// caller's goroutine. fn must be safe to run concurrently on disjoint
// ranges; parallelFor returns only after every block completed.
func parallelFor(n, blocks int, fn func(lo, hi int)) {
	ensurePool(blocks)
	var wg sync.WaitGroup
	chunk := (n + blocks - 1) / blocks
	for lo := chunk; lo < n; lo += chunk { // blocks after the first go to the pool
		hi := min(lo+chunk, n)
		wg.Add(1)
		task := func() {
			defer wg.Done()
			fn(lo, hi)
		}
		if !submit(task) {
			task()
		}
	}
	fn(0, chunk) // the caller's goroutine is one of the workers
	wg.Wait()
}
