package exec

import (
	"errors"
	"testing"

	"partadvisor/internal/faults"
	"partadvisor/internal/partition"
)

// isTransient reports whether an execution error is an injected transient
// failure.
func isTransient(err error) bool {
	var te *TransientError
	return errors.As(err, &te)
}

// crashNode returns an injector with the node down for [0, end).
func crashNode(t *testing.T, node int, end float64) *faults.Injector {
	t.Helper()
	in, err := faults.New(faults.Config{
		Crashes: []faults.NodeCrash{{Node: node, Window: faults.Window{Start: 0, End: end}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestEmptyScheduleIsByteIdentical(t *testing.T) {
	g := engGraph(t, `SELECT * FROM orderline ol, orders o, customer c
		WHERE ol.ol_o_id = o.o_id AND o.o_c_id = c.c_id`)
	plain, _ := newEngine(t)
	armed, _ := newEngine(t)
	armed.SetFaults(faults.MustNew(faults.Config{}))
	for _, st := range []*partition.State{
		engSpace().InitialState(),
		buildState(t, engSpace(), map[string]string{"customer": "R"}),
	} {
		sp := plain.Deploy(st, nil)
		sa := armed.Deploy(st, nil)
		if sp != sa {
			t.Fatalf("deploy seconds diverge with empty schedule: %v vs %v", sp, sa)
		}
		if rp, ra := runSec(plain, g), runSec(armed, g); rp != ra {
			t.Fatalf("run seconds diverge with empty schedule: %v vs %v", rp, ra)
		}
	}
}

func TestReplicatedFailover(t *testing.T) {
	e, _ := newEngine(t)
	e.Deploy(buildState(t, engSpace(), map[string]string{
		"orders": "R", "customer": "R", "orderline": "R",
	}), nil)
	g := engGraph(t, "SELECT * FROM orders o, customer c WHERE o.o_c_id = c.c_id")
	e.SetFaults(crashNode(t, 1, 1e9))
	rep, err := run1(e, g, 0)
	if err != nil {
		t.Fatalf("replicated query did not fail over: %v", err)
	}
	if rep.Seconds <= 0 {
		t.Fatalf("failover run consumed %v seconds", rep.Seconds)
	}
	if rep.DegradedSeconds <= 0 {
		t.Fatalf("run during a crash window reported DegradedSeconds = %v", rep.DegradedSeconds)
	}
}

func TestLostShardFailsQuery(t *testing.T) {
	e, _ := newEngine(t)
	e.Deploy(engSpace().InitialState(), nil) // every table hash-partitioned
	g := engGraph(t, "SELECT * FROM orders o, customer c WHERE o.o_c_id = c.c_id")
	full := runSec(e, g)

	e.SetFaults(crashNode(t, 1, 1e9))
	rep, err := run1(e, g, 0)
	var ue *UnavailableError
	if !errors.As(err, &ue) {
		t.Fatalf("lost shard: err = %v, want UnavailableError", err)
	}
	if ue.Node != 1 || ue.Replicated {
		t.Fatalf("UnavailableError = %+v", ue)
	}
	if isTransient(err) {
		t.Fatal("availability loss misclassified as transient")
	}
	if rep.Seconds <= 0 || rep.Seconds >= full {
		t.Fatalf("failed run consumed %v seconds (full run: %v)", rep.Seconds, full)
	}
}

func TestRecoveryAfterCrashWindow(t *testing.T) {
	e, _ := newEngine(t)
	e.Deploy(engSpace().InitialState(), nil)
	g := engGraph(t, "SELECT * FROM orders o, customer c WHERE o.o_c_id = c.c_id")
	e.SetFaults(crashNode(t, 0, 5))
	if _, err := run1(e, g, 0); err == nil {
		t.Fatal("query inside the crash window should fail")
	}
	e.AdvanceClock(5) // node recovers
	if _, err := run1(e, g, 0); err != nil {
		t.Fatalf("query after recovery failed: %v", err)
	}
}

func TestTransientFailuresDeterministic(t *testing.T) {
	g := engGraph(t, "SELECT * FROM orders o, customer c WHERE o.o_c_id = c.c_id")
	pattern := func() []bool {
		e, _ := newEngine(t)
		e.SetFaults(faults.MustNew(faults.Config{Seed: 7, TransientFailureRate: 0.4}))
		out := make([]bool, 40)
		for i := range out {
			_, err := run1(e, g, 0)
			if err != nil && !isTransient(err) {
				t.Fatalf("unexpected error type: %v", err)
			}
			out[i] = err != nil
		}
		return out
	}
	a, b := pattern(), pattern()
	fails := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed transient patterns diverge at query %d", i)
		}
		if a[i] {
			fails++
		}
	}
	if fails == 0 || fails == len(a) {
		t.Fatalf("0.4-rate schedule failed %d/%d queries", fails, len(a))
	}
}

func TestStragglerSlowsQuery(t *testing.T) {
	e, _ := newEngine(t)
	e.Deploy(engSpace().InitialState(), nil)
	g := engGraph(t, "SELECT * FROM orders o, customer c WHERE o.o_c_id = c.c_id")
	base := runSec(e, g)
	e.SetFaults(faults.MustNew(faults.Config{
		Stragglers: []faults.Straggler{{Node: 0, Factor: 50, Window: faults.Window{Start: 0, End: 1e9}}},
	}))
	slow := runSec(e, g)
	if slow <= base {
		t.Fatalf("straggler run %v not slower than baseline %v", slow, base)
	}
}

func TestNetDegradationSlowsShuffleAndDeploy(t *testing.T) {
	e, _ := newEngine(t)
	st := engSpace().InitialState() // pk-partitioned: the join must move data
	e.Deploy(st, nil)
	g := engGraph(t, "SELECT * FROM orders o, customer c WHERE o.o_c_id = c.c_id")
	base := runSec(e, g)

	e.SetFaults(faults.MustNew(faults.Config{
		Degradations: []faults.NetDegradation{{Factor: 0.05, Window: faults.Window{Start: 0, End: 1e9}}},
	}))
	slow := runSec(e, g)
	if slow <= base {
		t.Fatalf("degraded-network run %v not slower than baseline %v", slow, base)
	}

	// Deploys move data too: replicating under the same degradation costs
	// more than on the healthy interconnect.
	repl := buildState(t, engSpace(), map[string]string{"customer": "R"})
	degraded := e.Deploy(repl, []string{"customer"})
	clean, _ := newEngine(t)
	clean.Deploy(st, nil)
	if healthy := clean.Deploy(repl, []string{"customer"}); degraded <= healthy {
		t.Fatalf("degraded deploy %v not slower than healthy deploy %v", degraded, healthy)
	}
}

func TestSimClock(t *testing.T) {
	e, _ := newEngine(t)
	if e.SimNow() != 0 {
		t.Fatalf("fresh engine clock = %v", e.SimNow())
	}
	sec := e.Deploy(engSpace().InitialState(), nil)
	g := engGraph(t, "SELECT * FROM orders o, customer c WHERE o.o_c_id = c.c_id")
	sec += runSec(e, g)
	if got := e.SimNow(); got != sec {
		t.Fatalf("SimNow = %v, want %v (deploy+run)", got, sec)
	}
	e.AdvanceClock(3)
	if got := e.SimNow(); got != sec+3 {
		t.Fatalf("SimNow after AdvanceClock = %v, want %v", got, sec+3)
	}
	e.ResetClock()
	if e.SimNow() != 0 {
		t.Fatalf("SimNow after ResetClock = %v", e.SimNow())
	}
}

func TestJoinCorrectUnderNodeCrash(t *testing.T) {
	// Replicated tables must produce the same join result whether or not a
	// node is down.
	e, data := newEngine(t)
	e.Deploy(buildState(t, engSpace(), map[string]string{
		"orders": "R", "customer": "R", "orderline": "R",
	}), nil)
	g := engGraph(t, "SELECT * FROM orders o, customer c WHERE o.o_c_id = c.c_id AND c.c_region = 2")
	want := bruteOrdersCustomer(data, 2, true)
	e.SetFaults(crashNode(t, 2, 1e9))
	if got := resultRows(e, g); got != want {
		t.Fatalf("join rows under crash = %d, want %d", got, want)
	}
}

func TestExplainReportsFault(t *testing.T) {
	e, _ := newEngine(t)
	e.Deploy(engSpace().InitialState(), nil)
	g := engGraph(t, "SELECT * FROM orders o, customer c WHERE o.o_c_id = c.c_id")
	e.SetFaults(crashNode(t, 0, 1e9))
	before, _, _ := e.Counters()
	plan, _ := e.Explain(g)
	if after, _, _ := e.Counters(); after != before {
		t.Fatal("Explain counted as an executed query")
	}
	found := false
	for _, line := range plan {
		if len(line) >= 5 && line[:5] == "ERROR" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Explain plan under crash lacks ERROR line: %v", plan)
	}
}

func TestExecLimitClampsAtLimit(t *testing.T) {
	// §4.2: an aborted query is killed at the deadline, so the consumed
	// time equals the limit exactly — never the overshooting step cost.
	e, _ := newEngine(t)
	e.Deploy(engSpace().InitialState(), nil)
	g := engGraph(t, `SELECT * FROM orderline ol, orders o, customer c
		WHERE ol.ol_o_id = o.o_id AND o.o_c_id = c.c_id`)
	full := runSec(e, g)
	limit := full / 3
	rep, err := run1(e, g, limit)
	if err != nil || !rep.Aborted || rep.Seconds != limit {
		t.Fatalf("run under limit %v (full %v): %+v, %v", limit, full, rep, err)
	}
}
