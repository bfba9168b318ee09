package env

import (
	"sync"
	"testing"

	"partadvisor/internal/partition"
	"partadvisor/internal/schema"
	"partadvisor/internal/workload"
)

// cacheSpace builds a tiny two-table design space for cache tests.
func cacheSpace(t *testing.T) *partition.Space {
	t.Helper()
	sch := schema.New("cache", []*schema.Table{
		{Name: "a", Attributes: []schema.Attribute{{Name: "id", Width: 8}}, PrimaryKey: []string{"id"}},
		{Name: "b", Attributes: []schema.Attribute{{Name: "id", Width: 8}}, PrimaryKey: []string{"id"}},
	}, nil)
	return partition.NewSpace(sch, nil, partition.Options{})
}

// cachedEntries counts the entries held across both generations.
func cachedEntries(cc *CostCache) int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return len(cc.hot) + len(cc.cold)
}

func TestCostCacheMemoizes(t *testing.T) {
	sp := cacheSpace(t)
	calls := 0
	base := func(st *partition.State, freq workload.FreqVector) float64 {
		calls++
		return freq[0] * 10
	}
	cc := NewCostCache(base, 16)
	st := sp.InitialState()
	f1 := workload.FreqVector{0.5}
	f2 := workload.FreqVector{0.25}

	if got := cc.Cost(st, f1); got != 5 {
		t.Fatalf("Cost = %v", got)
	}
	if got := cc.Cost(st, f1); got != 5 {
		t.Fatalf("cached Cost = %v", got)
	}
	if calls != 1 {
		t.Fatalf("base called %d times for one distinct key", calls)
	}
	// A different mix or a different layout is a different key.
	cc.Cost(st, f2)
	alt := sp.Apply(st, partition.Action{Kind: partition.ActReplicate, Table: 0})
	cc.Cost(alt, f1)
	if calls != 3 {
		t.Fatalf("base called %d times for three distinct keys", calls)
	}
	if hits, misses := cc.Stats(); hits != 1 || misses != 3 {
		t.Fatalf("stats = (%d, %d), want (1, 3)", hits, misses)
	}
}

func TestCostCacheBoundRotatesGenerations(t *testing.T) {
	sp := cacheSpace(t)
	calls := 0
	base := func(st *partition.State, freq workload.FreqVector) float64 {
		calls++
		return freq[0]
	}
	cc := NewCostCache(base, 4)
	st := sp.InitialState()
	for i := 0; i < 100; i++ {
		cc.Cost(st, workload.FreqVector{float64(i)})
	}
	if n := cachedEntries(cc); n > 8 { // at most two generations of 4
		t.Fatalf("cache grew past its bound: %d entries", n)
	}
	if calls != 100 {
		t.Fatalf("distinct keys collided: %d base calls", calls)
	}
	// A cold-generation hit must not call base again.
	calls = 0
	cc.Cost(st, workload.FreqVector{99})
	cc.Cost(st, workload.FreqVector{98})
	if calls != 0 {
		t.Fatalf("recent entries evicted too eagerly: %d base calls", calls)
	}
}

// TestCostCacheConcurrent exercises the cache from many goroutines under
// -race: the unsynchronized base is safe only because the cache's mutex is
// held across every base call.
func TestCostCacheConcurrent(t *testing.T) {
	sp := cacheSpace(t)
	statefulCounter := 0 // deliberately unsynchronized stateful base
	base := func(st *partition.State, freq workload.FreqVector) float64 {
		statefulCounter++
		return freq[0] * 2
	}
	cc := NewCostCache(base, 32)
	st := sp.InitialState()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				f := workload.FreqVector{float64(i % 16)}
				if got := cc.Cost(st, f); got != f[0]*2 {
					t.Errorf("Cost(%v) = %v", f, got)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestCostCacheSingleFlightCoalesces: goroutines missing the same key cost
// exactly one base call — whoever gets the mutex first fills the entry and
// the rest find it — with every other caller counted as a hit. The base is
// stateful and unsynchronized, so -race also checks that fills never
// overlap.
func TestCostCacheSingleFlightCoalesces(t *testing.T) {
	sp := cacheSpace(t)
	st := sp.InitialState()
	f := workload.FreqVector{1}

	calls := 0
	base := func(*partition.State, workload.FreqVector) float64 {
		calls++
		return 42
	}
	cc := NewCostCache(base, 16)

	const callers = 8
	results := make([]float64, callers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			results[i] = cc.Cost(st, f)
		}(i)
	}
	close(start)
	wg.Wait()

	if calls != 1 {
		t.Fatalf("base called %d times for one key under contention", calls)
	}
	for i, v := range results {
		if v != 42 {
			t.Fatalf("goroutine %d got %v, want 42", i, v)
		}
	}
	hits, misses := cc.Stats()
	if misses != 1 || hits != callers-1 {
		t.Fatalf("stats = (%d hits, %d misses), want (%d, 1)", hits, misses, callers-1)
	}
}

// TestCostCacheBoundUnderContention hammers the cache with distinct keys
// from many goroutines and checks the two-generation bound holds
// throughout. Run with -race.
func TestCostCacheBoundUnderContention(t *testing.T) {
	sp := cacheSpace(t)
	st := sp.InitialState()
	base := func(_ *partition.State, freq workload.FreqVector) float64 { return freq[0] }
	const bound = 8
	cc := NewCostCache(base, bound)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				cc.Cost(st, workload.FreqVector{float64(g*1000 + i)})
			}
		}(g)
	}
	wg.Wait()
	if n := cachedEntries(cc); n > 2*bound {
		t.Fatalf("cache holds %d entries, bound is two generations of %d", n, bound)
	}
}
