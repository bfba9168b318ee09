package benchmarks

import (
	"partadvisor/internal/datagen"
	"partadvisor/internal/partition"
	"partadvisor/internal/relation"
	"partadvisor/internal/schema"
	"partadvisor/internal/workload"
	"partadvisor/internal/workload/trace"
)

// Celebrity repro-scale sizes. Orders rows are wide (payload padding) so
// moving them across the network for a join is expensive — the locality
// trade-off the hot-shard experiment exercises.
const (
	celebrityCust   = 40
	celebrityOrders = 4000
	// CelebrityWindows is the length of the benchmark's traffic trace.
	CelebrityWindows = 24
)

// Celebrity returns the hot-shard resilience benchmark: a customer
// dimension and a wide orders fact table whose customer foreign key is
// drawn from a seeded Zipf trace with a flash-crowd spike — one "celebrity"
// customer owns most of the order stream. Hash-partitioning orders by the
// FK gives the join perfect locality but melts one shard; partitioning by
// the primary key balances the scan but repartitions every join over the
// network. The mitigation actions (hot-key split, key salting) exist to
// resolve exactly this tension, so the benchmark enables them in its
// design space.
func Celebrity() *Benchmark {
	sch := schema.New("celebrity",
		[]*schema.Table{
			{
				Name:       "customer",
				Attributes: attrs(8, "c_id", "c_region"),
				PrimaryKey: []string{"c_id"},
			},
			{
				Name:       "orders",
				Attributes: attrs(8, "o_id", "o_c_id", "o_amount", "o_p1", "o_p2", "o_p3"),
				PrimaryKey: []string{"o_id"},
			},
		},
		[]schema.ForeignKey{
			{FromTable: "orders", FromAttr: "o_c_id", ToTable: "customer", ToAttr: "c_id"},
		},
	)
	queries := map[string]string{
		// The celebrity tenant's feed scan: touches every orders row, so its
		// cost is the straggler shard's scan time.
		"feed": "SELECT * FROM orders WHERE o_amount > -1",
		// The analytical join: cheap when orders is co-partitioned with
		// customer on the FK, otherwise the wide orders rows repartition
		// over the network.
		"report": "SELECT * FROM orders, customer WHERE o_c_id = c_id AND c_region = 2",
	}
	wl := workload.MustParse("celebrity", sch, queries, []string{"feed", "report"}, 0)
	return &Benchmark{
		Name:         "celebrity",
		Schema:       sch,
		Workload:     wl,
		SpaceOptions: partition.Options{EnableMitigations: true},
		Generate:     generateCelebrity,
	}
}

// CelebrityTrace is the benchmark's canonical adversarial traffic: a
// heavily key-skewed "celebrity" tenant whose flash crowd ramps up mid-
// trace, interleaved with a diurnal uniform tenant. The same seed yields
// the same trace bit for bit; generateCelebrity replays the event stream
// to build the orders foreign-key column, so the data skew and the traffic
// skew are the same phenomenon.
func CelebrityTrace(seed int64, windows int) *trace.Trace {
	return trace.Generate(trace.Config{
		Seed:    seed,
		Windows: windows,
		Period:  windows / 2,
		Keys:    celebrityCust,
		Tenants: []trace.Tenant{
			{
				Name:   "celebrity",
				Weight: 2,
				ZipfS:  3,
				Spikes: []trace.Spike{
					{Start: windows / 3, Width: windows / 3, Peak: 6},
				},
				Mix: workload.FreqVector{1, 0.1}, // feed-heavy
			},
			{
				Name:       "uniform",
				Weight:     1,
				DiurnalAmp: 0.3,
				Mix:        workload.FreqVector{0.1, 1}, // report-heavy
			},
		},
	})
}

func generateCelebrity(scale float64, seed int64) map[string]*relation.Relation {
	g := datagen.New(seed)
	nCust := celebrityCust
	nOrders := datagen.ScaleRows(celebrityOrders, scale, 400)

	customer := datagen.Table("customer", map[string][]int64{
		"c_id":     g.Seq(nCust),
		"c_region": g.Mod(nCust, 5),
	}, []string{"c_id", "c_region"})

	// Replay the trace's interleaved event stream into the FK column:
	// every order belongs to the customer key of one traced access, cycling
	// through the stream when the table outgrows it.
	tr := CelebrityTrace(seed, CelebrityWindows)
	fk := make([]int64, nOrders)
	stream := 0
	for wi := range tr.Windows {
		for _, ev := range tr.Windows[wi].Events {
			if stream >= nOrders {
				break
			}
			fk[stream] = ev.Key % int64(nCust)
			stream++
		}
	}
	// Cycle through the stream when the table outgrows it (stream is never
	// empty: every trace window carries events at these tenant weights).
	for i := stream; i < nOrders; i++ {
		fk[i] = fk[i%stream]
	}

	orders := datagen.Table("orders", map[string][]int64{
		"o_id":     g.Seq(nOrders),
		"o_c_id":   fk,
		"o_amount": g.Uniform(nOrders, 1000),
		"o_p1":     g.Uniform(nOrders, 1<<40),
		"o_p2":     g.Uniform(nOrders, 1<<40),
		"o_p3":     g.Uniform(nOrders, 1<<40),
	}, []string{"o_id", "o_c_id", "o_amount", "o_p1", "o_p2", "o_p3"})

	return map[string]*relation.Relation{"customer": customer, "orders": orders}
}
