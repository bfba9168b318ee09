package faults

import (
	"math"
	"reflect"
	"testing"
)

func TestPartitionValidation(t *testing.T) {
	bad := []Config{
		{Partitions: []NetPartition{{Groups: [][]int{{0, 1}}, Window: Window{Start: 2, End: 1}}}},
		{Partitions: []NetPartition{{Groups: nil, Window: Window{Start: 0, End: 1}}}},
		{Partitions: []NetPartition{{Groups: [][]int{{}}, Window: Window{Start: 0, End: 1}}}},
		{Partitions: []NetPartition{{Groups: [][]int{{-1}}, Window: Window{Start: 0, End: 1}}}},
		{Partitions: []NetPartition{{Groups: [][]int{{0}, {0}}, Window: Window{Start: 0, End: 1}}}},
		{Partitions: []NetPartition{ // overlapping windows
			{Groups: [][]int{{0}}, Window: Window{Start: 0, End: 5}},
			{Groups: [][]int{{1}}, Window: Window{Start: 3, End: 8}},
		}},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := New(Config{Partitions: []NetPartition{
		{Groups: [][]int{{0, 2}}, Window: Window{Start: 0, End: 5}},
		{Groups: [][]int{{1}}, Window: Window{Start: 5, End: 8}},
	}}); err != nil {
		t.Fatalf("valid disjoint-window config rejected: %v", err)
	}
}

func TestPartitionGroupsAndReachability(t *testing.T) {
	in := MustNew(Config{Partitions: []NetPartition{
		{Groups: [][]int{{0, 2}}, Window: Window{Start: 1, End: 2}},
	}})
	if in.PartitionActive(0.5) {
		t.Fatal("partition active before its window")
	}
	if !in.PartitionActive(1.5) {
		t.Fatal("partition inactive inside its window")
	}
	if g := in.GroupOf(0, 0.5); g != -1 {
		t.Fatalf("GroupOf outside window = %d, want -1", g)
	}
	// Nodes 0 and 2 are the listed group; 1 and 3 fall into the implicit
	// leftover group.
	if a, b := in.GroupOf(0, 1.5), in.GroupOf(2, 1.5); a != b {
		t.Fatalf("nodes 0 and 2 in different groups: %d vs %d", a, b)
	}
	if a, b := in.GroupOf(1, 1.5), in.GroupOf(3, 1.5); a != b {
		t.Fatalf("leftover nodes 1 and 3 in different groups: %d vs %d", a, b)
	}
	if in.GroupOf(0, 1.5) == in.GroupOf(1, 1.5) {
		t.Fatal("cut nodes share a group")
	}
}

func TestSeededBisectDeterministicAndNonTrivial(t *testing.T) {
	w := Window{Start: 0, End: 1}
	for n := 2; n <= 9; n++ {
		for seed := int64(0); seed < 20; seed++ {
			a := SeededBisect(seed, n, w)
			b := SeededBisect(seed, n, w)
			if !reflect.DeepEqual(a.Groups, b.Groups) {
				t.Fatalf("seed %d n %d: bisect not deterministic: %v vs %v", seed, n, a.Groups, b.Groups)
			}
			if len(a.Groups) != 2 || len(a.Groups[0]) == 0 || len(a.Groups[1]) == 0 {
				t.Fatalf("seed %d n %d: trivial bisect %v", seed, n, a.Groups)
			}
			if got := len(a.Groups[0]) + len(a.Groups[1]); got != n {
				t.Fatalf("seed %d n %d: bisect covers %d nodes", seed, n, got)
			}
		}
	}
}

// TestEventsDeterministicFeed: the same schedule and interval always yield
// the identical event sequence — the contract the self-healing layer's
// repair ordering rests on.
func TestEventsDeterministicFeed(t *testing.T) {
	cfg := Config{
		Crashes: []NodeCrash{
			{Node: 0, Window: Window{Start: 1, End: 3}},
			{Node: 2, Window: Window{Start: 2, End: math.Inf(1)}}, // permanent
		},
		PeriodicCrashes: []PeriodicCrash{
			{Node: 1, Period: 4, DownStart: 1, DownEnd: 2},
		},
		Partitions: []NetPartition{
			{Groups: [][]int{{0, 1}}, Window: Window{Start: 6, End: 7}},
		},
	}
	in := MustNew(cfg)
	a := in.Events(0, 12)
	b := in.Events(0, 12)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("event feed not deterministic:\n%v\n%v", a, b)
	}
	// Permanent loss must never emit a rejoin for node 2.
	for _, ev := range a {
		if ev.Kind == EventRejoin && ev.Node == 2 {
			t.Fatalf("permanent crash emitted a rejoin: %v", ev)
		}
	}
	// The periodic schedule expands to concrete occurrences: node 1 is
	// down during [1,2), [5,6), [9,10) — three crash and three rejoin
	// events inside (0, 12].
	crashes, rejoins := 0, 0
	for _, ev := range a {
		if ev.Node != 1 {
			continue
		}
		switch ev.Kind {
		case EventCrash:
			crashes++
		case EventRejoin:
			rejoins++
		}
	}
	if crashes != 3 || rejoins != 3 {
		t.Fatalf("periodic expansion: %d crashes, %d rejoins, want 3/3 (events: %v)", crashes, rejoins, a)
	}
	// Half-open interval: an event exactly at t0 is excluded, at t1
	// included.
	if evs := in.Events(1, 3); len(evs) == 0 || evs[0].At <= 1 {
		t.Fatalf("Events(1,3) = %v, want (1, 3] only", evs)
	}
	// Ordering is (At, Kind, Node, Partition) ascending.
	for i := 1; i < len(a); i++ {
		if a[i].At < a[i-1].At {
			t.Fatalf("events out of order: %v before %v", a[i-1], a[i])
		}
	}
}
