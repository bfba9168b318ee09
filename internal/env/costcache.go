package env

import (
	"math"
	"sync"

	"partadvisor/internal/partition"
	"partadvisor/internal/workload"
)

// DefaultCostCacheBound is the per-generation entry bound of NewCostCache
// when the caller passes bound <= 0. At ~100 bytes per entry (key string +
// float64) the cache tops out around a few tens of MB even for the largest
// benchmark design spaces.
const DefaultCostCacheBound = 1 << 16

// CostCache is a bounded, thread-safe memoization layer in front of a
// CostFunc. Offline training re-evaluates identical (partitioning, mix)
// costs thousands of times — the agent oscillates around good designs
// within an episode, and inference rollouts retrace training trajectories —
// so memoizing them removes most cost-model work from the hot path.
//
// Entries are keyed by the state's physical-layout signature plus the exact
// bit pattern of the frequency vector (no rounding: two mixes that differ in
// the last ulp get distinct entries, so cached results are bitwise identical
// to uncached ones). Eviction is two-generational: when the hot generation
// reaches the bound it becomes the cold generation and a fresh hot one
// starts; cold hits are promoted back. Total footprint is therefore at most
// two generations.
//
// One mutex is held across lookup, base call and store. Goroutines that
// miss the same key therefore cost one base call (the rest find the entry
// when they get the lock), Invalidate cannot interleave with a fill, and a
// CostCache stays safe to share when the underlying cost function keeps
// state of its own, like a measured OnlineCost mutating accounting and the
// engine's deployed layout on every call. The base must not call back into
// the cache.
type CostCache struct {
	mu     sync.Mutex
	base   CostFunc
	bound  int
	hot    map[string]float64
	cold   map[string]float64
	hits   uint64
	misses uint64
	keyBuf []byte
}

// NewCostCache wraps base with a memoization cache holding at most bound
// entries per generation (DefaultCostCacheBound when bound <= 0).
func NewCostCache(base CostFunc, bound int) *CostCache {
	if bound <= 0 {
		bound = DefaultCostCacheBound
	}
	return &CostCache{base: base, bound: bound, hot: make(map[string]float64)}
}

// key builds the lookup key into c.keyBuf (valid until the next call; the
// caller must hold c.mu).
func (c *CostCache) key(st *partition.State, freq workload.FreqVector) []byte {
	buf := c.keyBuf[:0]
	buf = append(buf, st.Signature()...)
	buf = append(buf, 0)
	for _, f := range freq {
		bits := math.Float64bits(f)
		buf = append(buf,
			byte(bits), byte(bits>>8), byte(bits>>16), byte(bits>>24),
			byte(bits>>32), byte(bits>>40), byte(bits>>48), byte(bits>>56))
	}
	c.keyBuf = buf
	return buf
}

// Cost implements CostFunc (pass cache.Cost wherever a CostFunc is taken).
func (c *CostCache) Cost(st *partition.State, freq workload.FreqVector) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	keyBytes := c.key(st, freq)
	if v, ok := c.hot[string(keyBytes)]; ok {
		c.hits++
		return v
	}
	if v, ok := c.cold[string(keyBytes)]; ok {
		c.hits++
		c.store(string(keyBytes), v)
		return v
	}
	c.misses++
	key := string(keyBytes)
	v := c.base(st, freq)
	c.store(key, v)
	return v
}

// store inserts into the hot generation, rotating generations at the bound.
// The caller must hold c.mu.
func (c *CostCache) store(key string, v float64) {
	if len(c.hot) >= c.bound {
		c.cold = c.hot
		c.hot = make(map[string]float64, c.bound/2)
	}
	c.hot[key] = v
}

// Stats returns the accumulated hit and miss counts; every miss is exactly
// one base call.
func (c *CostCache) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Len returns the number of currently cached entries across generations.
func (c *CostCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.hot) + len(c.cold)
}

// Invalidate drops every cached entry (call after the underlying catalog or
// engine state changed in a way that alters costs).
func (c *CostCache) Invalidate() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hot = make(map[string]float64)
	c.cold = nil
}
