package core

import (
	"runtime"
	"sync"
	"testing"
)

// TestCommitteeTrainingConcurrentWithQueries exercises the thread-safety
// contract under -race: the committee trains its experts against a measured
// OnlineCost on a shared engine while another goroutine keeps executing
// workload queries and reading the engine's accounting counters on the same
// engine, at a pool width of four. The engine mutex must keep every
// operation and counter update coherent.
func TestCommitteeTrainingConcurrentWithQueries(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	b, sp, e := onlineFixture(t)
	hp := Test()
	hp.Episodes = 30
	naive, err := New(sp, b.Workload, hp, 13)
	if err != nil {
		t.Fatal(err)
	}
	oc := NewOnlineCost(e, b.Workload, nil)
	if err := naive.TrainOffline(oc.WorkloadCost, nil); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			q := b.Workload.Queries[i%len(b.Workload.Queries)]
			if sec := runSec(e, q.Graph); sec < 0 {
				t.Errorf("Run returned negative time %v", sec)
				return
			}
			if queries, reparts, moved := e.Counters(); queries < 0 || reparts < 0 || moved < 0 {
				t.Errorf("counters went negative: %d %d %d", queries, reparts, moved)
				return
			}
		}
	}()

	naive.HP.Episodes = 20 // experts train for half the naive advisor's episodes
	c, err := BuildCommittee(naive, oc.WorkloadCost, 7)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("BuildCommittee: %v", err)
	}
	if len(c.Experts) == 0 {
		t.Fatalf("no experts trained")
	}
	if _, _, err := c.Suggest(b.Workload.UniformFreq()); err != nil {
		t.Fatal(err)
	}
	queries, _, _ := e.Counters()
	if queries == 0 {
		t.Fatalf("no queries executed on the shared engine")
	}
}
