// Package costmodel implements the paper's "simple yet generic network-
// centric cost model" (§2, §4.1): given a partitioning state, a query's join
// graph and table metadata (row counts, widths, distinct values), it
// enumerates join orders like an optimizer, picks the cheapest distributed
// join strategy per join (co-located, broadcast one side, repartition one
// side, symmetric repartitioning) and returns the estimated query time in
// seconds under a hardware profile.
//
// Estimates from this model are the rewards of the offline training phase.
// The same model, wrapped with deterministic estimation noise that grows
// with join count (NoisyModel), doubles as the inaccurate DBMS-internal
// optimizer estimate consumed by the Minimum-Optimizer baseline.
package costmodel

import (
	"math"
	"sync"

	"partadvisor/internal/hardware"
	"partadvisor/internal/partition"
	"partadvisor/internal/sqlparse"
	"partadvisor/internal/stats"
	"partadvisor/internal/workload"
)

// Model estimates query and workload costs for partitioning states. It is
// safe for concurrent use, so goroutines sharing one model need no lock of
// their own.
//
// Per query it keeps, under mu, a plan skeleton — everything about planning
// the query that depends on the catalog and not on the design — and a memo
// of the costs already priced. Neither is ever dropped: the skeleton caches
// numbers derived from Cat, so the catalog must not change under a model,
// and a model over statistics that keep changing (an engine's true catalog)
// is built over a Clone of them. Pricing a design is a pure function
// of the skeleton, the design and the hardware profile: two goroutines
// racing on the same uncached (design, query) compute the identical cost,
// so which one's store wins is unobservable.
type Model struct {
	Cat *stats.Catalog
	HW  hardware.Profile

	mu    sync.RWMutex
	cache map[*sqlparse.Graph]*queryMemo
}

// queryMemo is what a model keeps per query: its plan skeleton, and its
// costs by the signature of the designs of exactly the tables the query
// touches (the same idea as the paper's Query Runtime Cache, applied to
// estimates). The skeleton is immutable; costs is guarded by Model.mu.
type queryMemo struct {
	plan  *skeleton
	costs map[string]float64
}

// New returns a model over the given catalog and hardware profile.
func New(cat *stats.Catalog, hw hardware.Profile) *Model {
	return &Model{Cat: cat, HW: hw, cache: make(map[*sqlparse.Graph]*queryMemo)}
}

// QueryCost estimates the runtime of one query under the partitioning
// state. The first call for a query builds its plan skeleton; every call
// for a design not yet memoised prices the skeleton under that design.
func (m *Model) QueryCost(st *partition.State, g *sqlparse.Graph) float64 {
	var sig string
	m.mu.RLock()
	qm := m.cache[g]
	if qm != nil {
		sig = st.TableSignature(qm.plan.tables)
		if c, ok := qm.costs[sig]; ok {
			m.mu.RUnlock()
			return c
		}
	}
	m.mu.RUnlock()
	if qm == nil {
		qm = m.memo(g)
		sig = st.TableSignature(qm.plan.tables)
	}
	// Price outside the lock: pricing is pure, so concurrent duplicate
	// computation yields bitwise-identical values.
	c := m.price(qm.plan, st)
	m.mu.Lock()
	qm.costs[sig] = c
	m.mu.Unlock()
	return c
}

// memo returns the query's memo, building its skeleton outside the lock
// if no goroutine has.
func (m *Model) memo(g *sqlparse.Graph) *queryMemo {
	plan := buildSkeleton(m.Cat, g, maxDPAliases)
	m.mu.Lock()
	defer m.mu.Unlock()
	if qm := m.cache[g]; qm != nil {
		return qm
	}
	qm := &queryMemo{plan: plan, costs: make(map[string]float64)}
	m.cache[g] = qm
	return qm
}

// WorkloadCost estimates Σ_j f_j · cm(P, q_j) over the workload mix —
// the (negated) reward of the offline phase.
func (m *Model) WorkloadCost(st *partition.State, wl *workload.Workload, freq workload.FreqVector) float64 {
	total := 0.0
	for i, q := range wl.Queries {
		if i >= len(freq) || freq[i] == 0 {
			continue
		}
		total += freq[i] * q.Weight * m.QueryCost(st, q.Graph)
	}
	return total
}

// parallelism estimates the effective parallel speedup of work distributed
// by hashing the given key: limited by the node count, the key's distinct
// values (few values -> coarse shards) and value skew (heavy values ->
// stragglers). Compound keys spread well and carry no skew penalty — this
// is what makes the TPC-CH compound warehouse+district key attractive on
// the in-memory engine (paper §7.2).
func (m *Model) parallelism(table string, key partition.Key) float64 {
	n := float64(m.HW.Nodes)
	if len(key) == 0 {
		return n
	}
	// The simple cost model knows only metadata: the distinct count of the
	// partitioning key bounds the shard granularity (this is what makes the
	// compound warehouse+district key attractive, §7.2), but value-frequency
	// skew — which requires observing the data — is invisible offline. The
	// online phase measures it on the real (sampled) database instead.
	var distinct float64
	if len(key) == 1 {
		distinct = float64(m.Cat.Distinct(table, key[0]))
	} else {
		distinct = 1
		for _, a := range key {
			distinct *= float64(m.Cat.Distinct(table, a))
			if distinct > 1e12 {
				break
			}
		}
	}
	return effectiveParallelism(n, distinct, 1)
}

// effectiveParallelism combines node count, distinct count and skew into the
// usable parallel speedup in [1, n].
func effectiveParallelism(n, distinct, skew float64) float64 {
	if distinct < 1 {
		distinct = 1
	}
	imbalance := 1.0
	if distinct < 8*n {
		perNode := distinct / n
		imbalance = math.Ceil(perNode) / math.Max(perNode, 1e-9)
		if distinct < n {
			imbalance = n / distinct
		}
	}
	eff := n / (imbalance * skew)
	if eff < 1 {
		return 1
	}
	if eff > n {
		return n
	}
	return eff
}
