package exec

import (
	"errors"
	"fmt"

	"partadvisor/internal/faults"
)

// Sentinel errors for execution failures. Callers branch on failure class
// with errors.Is rather than matching error text: every concrete
// execution error below unwraps to exactly one sentinel.
var (
	// ErrNodeDown: data is unreadable because every node able to serve it
	// is crashed. Retrying helps once a node rejoins.
	ErrNodeDown = errors.New("node down")
	// ErrPartitioned: data exists on a live node the coordinator side of a
	// network partition cannot reach. Retrying helps once the partition
	// heals.
	ErrPartitioned = errors.New("network partitioned")
	// ErrShardLost: a non-empty shard of a partitioned table sits on a
	// crashed node — the query cannot produce a correct answer until the
	// node rejoins (or forever, if the loss is permanent).
	ErrShardLost = errors.New("shard lost")
)

// TransientError reports an injected transient query failure (worker
// restart, connection reset). Retrying the query may succeed.
type TransientError struct {
	// At is the simulated time at which the query died.
	At float64
}

func (e *TransientError) Error() string {
	return fmt.Sprintf("exec: transient query failure at t=%.3fs", e.At)
}

// UnavailableError reports that a query needs data that no surviving node
// holds: a non-empty hash shard on a crashed node, or a replicated table
// with every node down. Retrying only helps once the node recovers.
type UnavailableError struct {
	Table      string
	Node       int // the crashed node (-1 when every replica holder is down)
	Replicated bool
}

func (e *UnavailableError) Error() string {
	if e.Replicated {
		return fmt.Sprintf("exec: replicated table %q has no surviving replica: %v", e.Table, ErrNodeDown)
	}
	return fmt.Sprintf("exec: shard of table %q on crashed node %d: %v", e.Table, e.Node, ErrShardLost)
}

// Unwrap classifies the loss: ErrShardLost for a dead shard of a
// partitioned table, ErrNodeDown for a replicated table with no surviving
// copy.
func (e *UnavailableError) Unwrap() error {
	if e.Replicated {
		return ErrNodeDown
	}
	return ErrShardLost
}

// PartitionError reports that a query needs data on a node that is alive
// but on the far side of a network partition. The query fails rather than
// shuffling across the cut; once the partition heals, normal planning
// resumes.
type PartitionError struct {
	Table string
	Node  int // the unreachable node
	At    float64
}

func (e *PartitionError) Error() string {
	return fmt.Sprintf("exec: table %q needs node %d across a partition at t=%.3fs: %v",
		e.Table, e.Node, e.At, ErrPartitioned)
}

// Unwrap marks the error retryable-after-heal via ErrPartitioned.
func (e *PartitionError) Unwrap() error { return ErrPartitioned }

// SetFaults arms (or, with nil, disarms) a fault schedule. The injector
// is evaluated against the engine's simulated clock. Injectors are
// immutable, so one may be shared by several engines.
func (e *Engine) SetFaults(in *faults.Injector) {
	e.mu.Lock()
	defer e.mu.Unlock()
	defer e.publishLocked()
	e.faults = in
	// A new schedule is a new failure epoch: catch-up state recorded under
	// the previous schedule no longer describes anything observable.
	e.lastHeal = e.simNow
	e.pending = nil
}

// SimNow returns the engine's simulated clock: total simulated seconds
// consumed by Exec/Deploy calls (and explicit AdvanceClock) since
// construction or the last ResetClock. Fault windows are defined over
// this clock. Served lock-free from the published view (the clock as of
// the last completed operation).
func (e *Engine) SimNow() float64 {
	return e.loadView().now
}

// AdvanceClock moves the simulated clock forward, modeling idle time
// (think-time between queries, retry backoff). Faults scheduled inside
// the skipped interval simply pass by.
func (e *Engine) AdvanceClock(seconds float64) {
	if seconds < 0 {
		panic(fmt.Sprintf("exec: negative clock advance %g", seconds))
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	defer e.publishLocked()
	e.simNow += seconds
}

// ResetClock rewinds the simulated clock to zero (e.g. to replay a fault
// schedule from the start for a second evaluation pass).
func (e *Engine) ResetClock() {
	e.mu.Lock()
	defer e.mu.Unlock()
	defer e.publishLocked()
	e.simNow = 0
	e.lastHeal = 0
	e.pending = nil
}

// faultCtx samples the fault state at the current clock: queries are short
// relative to fault windows, so node liveness, reachability and slowdowns
// are held fixed for the duration of one execution. The caller must hold
// e.mu.
func (e *Engine) faultCtx() *faultCtx {
	return newFaultCtx(e.faults, e.HW.Nodes, e.simNow)
}

// newFaultCtx builds a query's fault context from an injector at simulated
// time now (nil injector = nil context). It only calls the injector's pure
// window-evaluation methods, so it is safe without the engine mutex — the
// lock-free Explain path uses it against the published view.
func newFaultCtx(f *faults.Injector, nodes int, now float64) *faultCtx {
	if f == nil {
		return nil
	}
	fc := &faultCtx{
		down:    make([]bool, nodes),
		unreach: make([]bool, nodes),
		slow:    make([]float64, nodes),
		net:     f.NetFactor(now),
	}
	nodeStateAt(f, nodes, now, fc.down, fc.unreach)
	for i := 0; i < nodes; i++ {
		fc.slow[i] = f.SlowdownFactor(i, now)
		if !fc.down[i] && !fc.unreach[i] {
			fc.live = append(fc.live, i)
		}
	}
	return fc
}

// nodeStateLocked fills per-node crash and reachability state at simulated
// time now. The caller must hold e.mu and have checked e.faults != nil.
func (e *Engine) nodeStateLocked(now float64, down, unreach []bool) {
	nodeStateAt(e.faults, e.HW.Nodes, now, down, unreach)
}

// nodeStateAt fills per-node crash and reachability state at simulated time
// now. Queries are coordinated from the partition side holding the
// lowest-numbered live node; nodes outside that side are up but
// unreachable — their data cannot be scanned and they receive no shuffle
// or broadcast traffic. Pure with respect to the injector (window
// evaluation only), so callers may use it lock-free on a published view.
func nodeStateAt(f *faults.Injector, nodes int, now float64, down, unreach []bool) {
	for i := 0; i < nodes; i++ {
		down[i] = f.NodeDown(i, now)
		unreach[i] = false
	}
	if !f.PartitionActive(now) {
		return
	}
	coord := -1
	for i := 0; i < nodes; i++ {
		if !down[i] {
			coord = f.GroupOf(i, now)
			break
		}
	}
	if coord < 0 {
		return // every node down: crash handling already covers it
	}
	for i := 0; i < nodes; i++ {
		if !down[i] && f.GroupOf(i, now) != coord {
			unreach[i] = true
		}
	}
}

// faultCtx is one query's view of the fault schedule.
type faultCtx struct {
	down    []bool    // per node: crashed
	unreach []bool    // per node: live but across an active partition
	slow    []float64 // per node: compute/scan time multiplier (>= 1)
	live    []int     // nodes both up and reachable, ascending
	net     float64   // interconnect bandwidth multiplier (0 < net <= 1)
}
