// Package faults implements a deterministic, seedable fault-injection
// subsystem for the simulated cluster: node crash/recovery schedules,
// per-node straggler slowdowns, transient query failures, and windowed
// network-bandwidth degradation.
//
// Faults are defined over the engine's *simulated* clock (seconds since
// the injector was armed), so a fault schedule composed with a
// deterministic engine yields bit-identical runs: same seed, same
// schedule, same measurements. The only stochastic source — transient
// query failures — is a stateless splitmix64 hash of (Config.Seed, batch
// number, position in the batch), so an Injector is immutable after New and
// needs no lock.
package faults

import (
	"fmt"
	"math"
	"sort"
)

// Window is a half-open interval [Start, End) of simulated seconds.
type Window struct {
	Start, End float64
}

// Contains reports whether t falls inside the window.
func (w Window) Contains(t float64) bool { return t >= w.Start && t < w.End }

// Overlap returns the length of the intersection of the window with
// [t0, t1).
func (w Window) Overlap(t0, t1 float64) float64 {
	lo := math.Max(w.Start, t0)
	hi := math.Min(w.End, t1)
	if hi <= lo {
		return 0
	}
	return hi - lo
}

// NodeCrash takes one node down for the duration of the window. Queries
// needing a hash shard stored on the node fail; replicated tables fail
// over to surviving copies.
type NodeCrash struct {
	Node int
	Window
}

// PeriodicCrash crashes a node on a repeating schedule: the node is down
// whenever DownStart <= mod(t, Period) < DownEnd. It models recurring
// maintenance/failure regimes without enumerating an unbounded window
// list.
type PeriodicCrash struct {
	Node                       int
	Period, DownStart, DownEnd float64
}

// down reports whether the periodic schedule has the node down at t.
func (p PeriodicCrash) down(t float64) bool {
	if t < 0 {
		return false
	}
	ph := math.Mod(t, p.Period)
	return ph >= p.DownStart && ph < p.DownEnd
}

// Straggler multiplies a node's compute/scan time by Factor (> 1) during
// the window.
type Straggler struct {
	Node   int
	Factor float64
	Window
}

// NetDegradation multiplies the interconnect bandwidth by Factor
// (0 < Factor <= 1) during the window, slowing shuffles, broadcasts and
// repartitioning.
type NetDegradation struct {
	Factor float64
	Window
}

// NetPartition splits the cluster into isolated groups for the duration of
// the window: nodes inside one group reach each other, nodes in different
// groups cannot exchange data at all (no shuffles, no broadcasts, no
// replica reads across the cut). Nodes listed in no group form one
// implicit final group of their own. When the window closes the partition
// heals and the cluster is fully connected again.
type NetPartition struct {
	// Groups are disjoint, non-empty node subsets.
	Groups [][]int
	Window
}

// groupOf returns the group index of a node under this partition:
// the listed group, or len(Groups) for unlisted nodes (the implicit
// leftover group).
func (p NetPartition) groupOf(node int) int {
	for gi, g := range p.Groups {
		for _, n := range g {
			if n == node {
				return gi
			}
		}
	}
	return len(p.Groups)
}

// SeededBisect derives a deterministic two-sided partition of nodes
// [0, n): each node joins side A or B by a stateless splitmix64 draw on
// (seed, node). The draw is re-salted until both sides are non-empty, so
// the same (seed, n) always yields the same non-trivial cut.
func SeededBisect(seed int64, n int, w Window) NetPartition {
	if n < 2 {
		panic(fmt.Sprintf("faults: cannot bisect %d nodes", n))
	}
	for salt := uint64(0); ; salt++ {
		var a, b []int
		for node := 0; node < n; node++ {
			s := splitmix(uint64(seed) + 0x9e3779b97f4a7c15*salt)
			s = splitmix(s + 0x9e3779b97f4a7c15*uint64(node+1))
			if s&1 == 0 {
				a = append(a, node)
			} else {
				b = append(b, node)
			}
		}
		if len(a) > 0 && len(b) > 0 {
			return NetPartition{Groups: [][]int{a, b}, Window: w}
		}
	}
}

// Config is a complete declarative fault schedule.
type Config struct {
	// Seed keys the transient-failure verdicts. Schedules with the same
	// seed fail the same (batch, position) pairs.
	Seed int64
	// Crashes are one-shot node outages.
	Crashes []NodeCrash
	// PeriodicCrashes are repeating node outages.
	PeriodicCrashes []PeriodicCrash
	// Stragglers are windowed per-node slowdowns.
	Stragglers []Straggler
	// Degradations are windowed interconnect-bandwidth reductions.
	Degradations []NetDegradation
	// Partitions are windowed network partitions. Windows of distinct
	// partitions must not overlap (one cut at a time keeps the reachability
	// relation unambiguous).
	Partitions []NetPartition
	// TransientFailureRate is the probability that one query execution
	// fails transiently (connection reset, worker restart). Zero disables
	// transient failures.
	TransientFailureRate float64
}

// Validate checks the schedule for inconsistencies.
func (c Config) Validate() error {
	for _, cr := range c.Crashes {
		if cr.Node < 0 {
			return fmt.Errorf("faults: crash on negative node %d", cr.Node)
		}
		if cr.End <= cr.Start {
			return fmt.Errorf("faults: crash window [%g, %g) on node %d is empty", cr.Start, cr.End, cr.Node)
		}
	}
	for _, p := range c.PeriodicCrashes {
		if p.Node < 0 {
			return fmt.Errorf("faults: periodic crash on negative node %d", p.Node)
		}
		if p.Period <= 0 {
			return fmt.Errorf("faults: periodic crash period %g must be positive", p.Period)
		}
		if p.DownStart < 0 || p.DownEnd <= p.DownStart || p.DownEnd > p.Period {
			return fmt.Errorf("faults: periodic crash down-window [%g, %g) must satisfy 0 <= start < end <= period %g",
				p.DownStart, p.DownEnd, p.Period)
		}
	}
	for _, s := range c.Stragglers {
		if s.Node < 0 {
			return fmt.Errorf("faults: straggler on negative node %d", s.Node)
		}
		if s.Factor <= 1 {
			return fmt.Errorf("faults: straggler factor %g must exceed 1", s.Factor)
		}
		if s.End <= s.Start {
			return fmt.Errorf("faults: straggler window [%g, %g) on node %d is empty", s.Start, s.End, s.Node)
		}
	}
	for _, d := range c.Degradations {
		if d.Factor <= 0 || d.Factor > 1 {
			return fmt.Errorf("faults: degradation factor %g must be in (0, 1]", d.Factor)
		}
		if d.End <= d.Start {
			return fmt.Errorf("faults: degradation window [%g, %g) is empty", d.Start, d.End)
		}
	}
	for pi, p := range c.Partitions {
		if p.End <= p.Start {
			return fmt.Errorf("faults: partition window [%g, %g) is empty", p.Start, p.End)
		}
		if len(p.Groups) == 0 {
			return fmt.Errorf("faults: partition %d has no groups", pi)
		}
		seen := make(map[int]bool)
		for gi, g := range p.Groups {
			if len(g) == 0 {
				return fmt.Errorf("faults: partition %d group %d is empty", pi, gi)
			}
			for _, n := range g {
				if n < 0 {
					return fmt.Errorf("faults: partition %d contains negative node %d", pi, n)
				}
				if seen[n] {
					return fmt.Errorf("faults: partition %d lists node %d in two groups", pi, n)
				}
				seen[n] = true
			}
		}
		for pj, q := range c.Partitions[pi+1:] {
			if p.Overlap(q.Start, q.End) > 0 {
				return fmt.Errorf("faults: partitions %d and %d have overlapping windows", pi, pi+1+pj)
			}
		}
	}
	if c.TransientFailureRate < 0 || c.TransientFailureRate >= 1 {
		return fmt.Errorf("faults: transient failure rate %g must be in [0, 1)", c.TransientFailureRate)
	}
	return nil
}

// Injector evaluates a fault schedule against the simulated clock. It is
// immutable: every method is a pure function of the schedule and its
// arguments, safe for concurrent use.
type Injector struct {
	cfg Config
}

// New validates a schedule and arms an injector for it.
func New(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Injector{cfg: cfg}, nil
}

// MustNew is New for schedules known valid at compile time; it panics on
// an invalid config.
func MustNew(cfg Config) *Injector {
	in, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return in
}

// NodeDown reports whether the node is crashed at simulated time now.
func (in *Injector) NodeDown(node int, now float64) bool {
	for _, cr := range in.cfg.Crashes {
		if cr.Node == node && cr.Contains(now) {
			return true
		}
	}
	for _, p := range in.cfg.PeriodicCrashes {
		if p.Node == node && p.down(now) {
			return true
		}
	}
	return false
}

// PermanentlyLost reports whether the node is inside a crash window that
// never closes (End = +Inf) at simulated time now — the schedule's encoding
// of a permanent node loss (such a node never emits a rejoin event, see
// Events). Guards use this to veto designs that would place unreplicated
// shards with no surviving copy.
func (in *Injector) PermanentlyLost(node int, now float64) bool {
	for _, cr := range in.cfg.Crashes {
		if cr.Node == node && cr.Contains(now) && math.IsInf(cr.End, 1) {
			return true
		}
	}
	return false
}

// SlowdownFactor returns the node's compute/scan time multiplier at now
// (>= 1; overlapping stragglers compound).
func (in *Injector) SlowdownFactor(node int, now float64) float64 {
	f := 1.0
	for _, s := range in.cfg.Stragglers {
		if s.Node == node && s.Contains(now) {
			f *= s.Factor
		}
	}
	return f
}

// NetFactor returns the interconnect-bandwidth multiplier at now
// (0 < f <= 1; overlapping degradations compound).
func (in *Injector) NetFactor(now float64) float64 {
	f := 1.0
	for _, d := range in.cfg.Degradations {
		if d.Contains(now) {
			f *= d.Factor
		}
	}
	return f
}

// TransientFailureAt reports whether the query at the given position of
// the given batch fails transiently. The verdict is derived purely from
// (seed, batch, position) — a stateless splitmix64 evaluation, independent
// of call order — so concurrent executors of a batch get deterministic,
// race-free verdicts: same schedule, same batch, same position ⇒ same
// verdict, regardless of GOMAXPROCS or goroutine scheduling.
func (in *Injector) TransientFailureAt(batch uint64, position int) bool {
	if in.cfg.TransientFailureRate <= 0 {
		return false
	}
	// One splitmix64 scramble per mixed-in word, then a final output step:
	// the standard stateless way to derive an independent stream per key.
	s := uint64(in.cfg.Seed)
	s = splitmix(s + 0x9e3779b97f4a7c15*batch)
	s = splitmix(s + 0x9e3779b97f4a7c15*uint64(position+1))
	u := float64(s>>11) / (1 << 53)
	return u < in.cfg.TransientFailureRate
}

// splitmix is the splitmix64 output function over one state word.
func splitmix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// GroupOf returns the partition group of a node at simulated time now:
// -1 when no partition is active (the cluster is fully connected), the
// node's group index otherwise (unlisted nodes share the implicit group
// len(Groups)). At most one partition is active at a time (Validate
// rejects overlapping windows).
func (in *Injector) GroupOf(node int, now float64) int {
	for _, p := range in.cfg.Partitions {
		if p.Contains(now) {
			return p.groupOf(node)
		}
	}
	return -1
}

// PartitionActive reports whether a network partition is in effect at now.
func (in *Injector) PartitionActive(now float64) bool {
	for _, p := range in.cfg.Partitions {
		if p.Contains(now) {
			return true
		}
	}
	return false
}

// DegradedOverlap returns the number of seconds in [t0, t1) during which
// at least one fault is active — the exact measure of the union of all
// fault windows clipped to the interval.
func (in *Injector) DegradedOverlap(t0, t1 float64) float64 {
	if t1 <= t0 {
		return 0
	}
	var ivals [][2]float64
	add := func(w Window) {
		lo := math.Max(w.Start, t0)
		hi := math.Min(w.End, t1)
		if hi > lo {
			ivals = append(ivals, [2]float64{lo, hi})
		}
	}
	for _, cr := range in.cfg.Crashes {
		add(cr.Window)
	}
	for _, s := range in.cfg.Stragglers {
		add(s.Window)
	}
	for _, d := range in.cfg.Degradations {
		add(d.Window)
	}
	for _, p := range in.cfg.Partitions {
		add(p.Window)
	}
	for _, p := range in.cfg.PeriodicCrashes {
		// Expand the occurrences intersecting [t0, t1). The loop is
		// bounded by (t1-t0)/Period + 2 iterations.
		k := math.Floor(t0/p.Period) - 1
		for {
			base := k * p.Period
			if base+p.DownStart >= t1 {
				break
			}
			if k >= 0 {
				add(Window{Start: base + p.DownStart, End: base + p.DownEnd})
			}
			k++
		}
	}
	if len(ivals) == 0 {
		return 0
	}
	sort.Slice(ivals, func(i, j int) bool { return ivals[i][0] < ivals[j][0] })
	total := 0.0
	curLo, curHi := ivals[0][0], ivals[0][1]
	for _, iv := range ivals[1:] {
		if iv[0] > curHi {
			total += curHi - curLo
			curLo, curHi = iv[0], iv[1]
			continue
		}
		if iv[1] > curHi {
			curHi = iv[1]
		}
	}
	return total + (curHi - curLo)
}
