package chaos

import (
	"math"
	"math/rand"

	"partadvisor/internal/faults"
)

// schedule is one episode's generated fault plan plus its composition
// summary (for reporting).
type schedule struct {
	cfg faults.Config
	// Crashes counts crash windows with a rejoin, Permanent those without
	// one; Partitions counts partition windows.
	Crashes    int
	Permanent  int
	Partitions int
}

// buildSchedule derives a randomized fault plan from the episode RNG. All
// times are multiples of unit — the fault-free runtime of one workload
// pass — so the windows land inside the training span regardless of the
// absolute simulated timescale. Every schedule has recurring crash+rejoin
// cycles and several partition windows; permanentLoss additionally takes
// one node down forever partway through.
func buildSchedule(rng *rand.Rand, nodes int, unit float64, permanentLoss bool) schedule {
	s := schedule{cfg: faults.Config{
		Seed:                 rng.Int63(),
		TransientFailureRate: 0.02,
	}}

	// A recurring outage guarantees crash and rejoin events keep firing
	// however long the episode runs in simulated time.
	crashNode := rng.Intn(nodes)
	period := (6 + 4*rng.Float64()) * unit
	s.cfg.PeriodicCrashes = append(s.cfg.PeriodicCrashes, faults.PeriodicCrash{
		Node:      crashNode,
		Period:    period,
		DownStart: 0.40 * period,
		DownEnd:   0.70 * period,
	})
	s.Crashes++

	// One early one-shot crash window with a rejoin, on a different node.
	oneShot := (crashNode + 1 + rng.Intn(nodes-1)) % nodes
	start := (2 + 3*rng.Float64()) * unit
	s.cfg.Crashes = append(s.cfg.Crashes, faults.NodeCrash{
		Node:   oneShot,
		Window: faults.Window{Start: start, End: start + (1+2*rng.Float64())*unit},
	})
	s.Crashes++

	if permanentLoss {
		// Take a third node down forever partway through training: queries
		// needing its shards fail until the agent routes around the loss.
		lost := oneShot
		for lost == crashNode || lost == oneShot {
			lost = rng.Intn(nodes)
		}
		s.cfg.Crashes = append(s.cfg.Crashes, faults.NodeCrash{
			Node:   lost,
			Window: faults.Window{Start: (20 + 10*rng.Float64()) * unit, End: math.Inf(1)},
		})
		s.Permanent++
	}

	// Partition windows marching outward geometrically: the total simulated
	// time of an episode is workload-dependent, so a spread from a few
	// units to hundreds guarantees at least one window overlaps training.
	at := (4 + 2*rng.Float64()) * unit
	for i := 0; i < 6; i++ {
		w := faults.Window{Start: at, End: at + (1.5+rng.Float64())*unit}
		s.cfg.Partitions = append(s.cfg.Partitions, faults.SeededBisect(rng.Int63(), nodes, w))
		s.Partitions++
		at = 2*w.End + rng.Float64()*unit
	}

	// Background noise: a straggler and a degraded interconnect window.
	s.cfg.Stragglers = append(s.cfg.Stragglers, faults.Straggler{
		Node:   rng.Intn(nodes),
		Factor: 2 + 2*rng.Float64(),
		Window: faults.Window{Start: 3 * unit, End: (30 + 20*rng.Float64()) * unit},
	})
	s.cfg.Degradations = append(s.cfg.Degradations, faults.NetDegradation{
		Factor: 0.3 + 0.4*rng.Float64(),
		Window: faults.Window{Start: 8 * unit, End: (12 + 6*rng.Float64()) * unit},
	})
	return s
}
