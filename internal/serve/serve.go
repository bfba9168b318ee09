// Package serve turns the batch advisor engine into a long-running
// multi-tenant service that degrades gracefully under overload — the
// "advisor-as-a-service" layer of DESIGN.md §9.
//
// Each tenant is an independent database: schema + materialized data +
// exec.Engine + workload monitor + a guarded online advisor refining the
// tenant's partitioning in a background goroutine. The robustness core
// wraps every request path:
//
//  1. Admission control. Work is admitted through bounded per-tenant
//     queues, a bounded global queue, and a fixed worker pool (a global
//     semaphore) with a per-tenant in-flight cap. When a bound is hit the
//     request is shed immediately with ErrTenantQueueFull /
//     ErrGlobalQueueFull — the HTTP layer maps every shed to
//     429 + Retry-After — instead of piling up goroutines.
//
//  2. Weighted-fair scheduling. Queued batches are dispatched by
//     start-time-lifted virtual-time fair queueing: each tenant accrues
//     virtual time cost/weight per dispatched batch, and the scheduler
//     always serves the backlogged tenant with the smallest virtual time.
//     A hot tenant saturating its queue cannot starve the others; it can
//     only consume its weight share of the worker pool.
//
//  3. Request deadlines. A batch's context deadline propagates through
//     exec.Engine.Exec(ctx, Request) into the frozen-cursor abort:
//     a batch cut at its deadline charges exactly the delivered prefix
//     with bit-identical accounting. Deadlines that expire while the
//     request is still queued cancel it without occupying a worker.
//
//  4. Graceful degradation tiers. A tick loop watches global queue
//     occupancy with hysteresis. Sustained load past half the queue
//     pauses every tenant's background advising (the service sheds its
//     own optional work first); past nine tenths it also sheds
//     lowest-priority batch traffic at admission. Health and stats
//     endpoints never queue and are never shed — they read the engines'
//     lock-free published views. When the load drops the tiers step back
//     down and advising resumes.
//
// The lifecycle is one path: NewServer opens the state directory,
// Recover rebuilds the tenants its manifest records, MarkReady opens the
// request paths. Shutdown is drain-then-stop: admission closes first (new
// work is rejected with ErrClosed → 503), admitted work drains through the
// worker pool, tenant advisor goroutines stop at an episode boundary via
// the core.Advisor.Stop contract, and every tenant writes a final
// checkpoint generation, which the next Recover restores. Every durable
// write goes through durable.Replace.
package serve

import (
	"errors"
	"fmt"
	"runtime"
	"time"
)

// Shed/admission sentinel errors. The HTTP layer maps the two queue-full
// errors and ErrShedPriority to 429 with a Retry-After header, and
// ErrClosed to 503.
var (
	// ErrTenantQueueFull sheds a request because its tenant's bounded
	// queue is at capacity.
	ErrTenantQueueFull = errors.New("serve: tenant queue full")
	// ErrGlobalQueueFull sheds a request because the server-wide queue
	// bound is reached.
	ErrGlobalQueueFull = errors.New("serve: global queue full")
	// ErrShedPriority sheds a low-priority request while the overload
	// controller is at the shedding tier.
	ErrShedPriority = errors.New("serve: low-priority traffic shed under overload")
	// ErrClosed rejects work because the server is draining for shutdown.
	ErrClosed = errors.New("serve: server is draining")
	// ErrUnknownTenant rejects work for a tenant that does not exist.
	ErrUnknownTenant = errors.New("serve: unknown tenant")
	// ErrCancelled answers a waiter whose admitted batch the scheduler
	// withdrew before execution — its tenant was deleted, or the drain
	// deadline cleared the queue. The work never ran.
	ErrCancelled = errors.New("serve: batch cancelled before execution")
)

// IsShed reports whether an admission error is a load-shed (mapped to 429)
// as opposed to a hard rejection.
func IsShed(err error) bool {
	return errors.Is(err, ErrTenantQueueFull) || errors.Is(err, ErrGlobalQueueFull) ||
		errors.Is(err, ErrShedPriority)
}

// The fixed parts of the service envelope. The tier ladder arms tier 1
// (pause background advising) at half the global queue and tier 2 (also
// shed priority-0 traffic) at nine tenths; the overload controller samples
// the occupancy every tickEvery, escalates after tierUpTicks consecutive
// samples over a threshold and steps one tier back down after
// tierDownTicks under it (hysteresis keeps it from flapping). One tenant
// occupies at most maxTenantInflight workers (engine batches serialize on
// the tenant's engine mutex anyway, so more only buys queue overlap), and
// each tenant keeps its newest three checkpoint generations.
const (
	tier1Occupancy    = 0.5
	tier2Occupancy    = 0.9
	tickEvery         = 100 * time.Millisecond
	tierUpTicks       = 3
	tierDownTicks     = 8
	maxTenantInflight = 2
	checkpointKeep    = 3
)

// Config holds the service knobs. The zero value is unusable; start from
// DefaultConfig and set StateDir.
type Config struct {
	// MaxConcurrent is the worker-pool size — the global execution
	// semaphore. At most this many batches execute at once.
	MaxConcurrent int
	// MaxTenantQueue bounds each tenant's wait queue; submissions past it
	// are shed with ErrTenantQueueFull.
	MaxTenantQueue int
	// MaxGlobalQueue bounds the sum of all queued requests; submissions
	// past it are shed with ErrGlobalQueueFull.
	MaxGlobalQueue int

	// AdviseEvery is the default per-tenant background advising period, at
	// most MaxAdviseEveryMS milliseconds.
	AdviseEvery time.Duration

	// StateDir is the durable state directory (required): tenant specs
	// are recorded in an fsync'd manifest (written on create, removed on
	// delete), each tenant's advisor state is checkpointed in the
	// background into generation-numbered files, and Recover rebuilds the
	// fleet from it after a restart, clean or not.
	StateDir string
	// CheckpointEvery is the per-tenant background checkpoint interval
	// (checkpoints land at the next advising episode boundary after the
	// interval elapses).
	CheckpointEvery time.Duration
}

// DefaultConfig returns a service envelope sized for the test benchmarks:
// a CPU-bound worker pool and short queues (shed early, retry cheap). It
// has no StateDir; the caller names one.
func DefaultConfig() Config {
	return Config{
		MaxConcurrent:   max(2, runtime.GOMAXPROCS(0)),
		MaxTenantQueue:  16,
		MaxGlobalQueue:  64,
		AdviseEvery:     500 * time.Millisecond,
		CheckpointEvery: 5 * time.Second,
	}
}

// Validate rejects nonsensical configurations.
func (c Config) Validate() error {
	switch {
	case c.MaxConcurrent < 1:
		return fmt.Errorf("serve: MaxConcurrent %d < 1", c.MaxConcurrent)
	case c.MaxTenantQueue < 1:
		return fmt.Errorf("serve: MaxTenantQueue %d < 1", c.MaxTenantQueue)
	case c.MaxGlobalQueue < 1:
		return fmt.Errorf("serve: MaxGlobalQueue %d < 1", c.MaxGlobalQueue)
	case c.AdviseEvery <= 0 || c.AdviseEvery > MaxAdviseEveryMS*time.Millisecond:
		return fmt.Errorf("serve: AdviseEvery %v outside (0, %v]", c.AdviseEvery, MaxAdviseEveryMS*time.Millisecond)
	case c.StateDir == "":
		return fmt.Errorf("serve: StateDir is required")
	case c.CheckpointEvery <= 0:
		return fmt.Errorf("serve: CheckpointEvery %v <= 0", c.CheckpointEvery)
	}
	return nil
}
