// Package cluster models a shared-nothing database cluster: N nodes, each
// holding hash-partitioned shards and/or full replicas of tables. Deploying
// a new design physically redistributes the stored rows and reports the
// bytes that crossed the network — the basis of repartitioning-time
// accounting in the online training phase.
package cluster

import (
	"container/list"
	"fmt"
	"strings"

	"partadvisor/internal/relation"
)

// Design is the physical design of one table on the cluster.
type Design struct {
	// Replicated places a full copy on every node.
	Replicated bool
	// Key hash-partitions rows by these columns; an empty key with
	// Replicated == false means round-robin (the initial layout of loaded
	// data before any explicit design decision).
	Key []string
	// Salt (with a non-empty Key) spreads each key's rows across Salt
	// consecutive hash buckets instead of one: a celebrity key's rows land
	// on up to Salt nodes rather than melting a single shard. 0 disables
	// salting. Queries still co-locate by hash bucket modulo the salt, so
	// salting trades some join co-location for scan balance — exactly the
	// production "key salting" mitigation.
	Salt int
	// HotSplit (with a non-empty Key) detects the modal value of the first
	// key column at materialization time and spreads only that hot key's
	// rows round-robin across all nodes, hashing everything else normally —
	// the "split the hot key" mitigation. It is data-driven, so the fixed
	// action space needs no per-value actions.
	HotSplit bool
}

// Equal reports whether two designs are identical.
func (d Design) Equal(o Design) bool {
	if d.Replicated != o.Replicated || len(d.Key) != len(o.Key) ||
		d.Salt != o.Salt || d.HotSplit != o.HotSplit {
		return false
	}
	for i := range d.Key {
		if d.Key[i] != o.Key[i] {
			return false
		}
	}
	return true
}

// String renders the design.
func (d Design) String() string {
	if d.Replicated {
		return "REPLICATE"
	}
	if len(d.Key) == 0 {
		return "ROUNDROBIN"
	}
	s := fmt.Sprintf("HASH(%v)", d.Key)
	if d.Salt > 0 {
		s += fmt.Sprintf("+SALT(%d)", d.Salt)
	}
	if d.HotSplit {
		s += "+HOTSPLIT"
	}
	return s
}

// canonical renders the design as a cache key: the key-column order is
// significant (it changes the hash), so it is preserved verbatim, and the
// salt/hot-split modifiers change the placement, so they are part of the
// key too.
func (d Design) canonical() string {
	if d.Replicated {
		return "R"
	}
	if len(d.Key) == 0 {
		return "RR"
	}
	s := "H:" + strings.Join(d.Key, "\x1f")
	if d.Salt > 0 {
		s += fmt.Sprintf("\x1eS%d", d.Salt)
	}
	if d.HotSplit {
		s += "\x1eHS"
	}
	return s
}

// plainHash reports whether the design is an unmodified hash partitioning
// (no salt, no hot-split) — the only placement whose appended rows land
// identically to a re-split of the grown base.
func (d Design) plainHash() bool {
	return len(d.Key) > 0 && d.Salt == 0 && !d.HotSplit
}

// table is the stored state of one table.
type table struct {
	base     *relation.Relation
	rowWidth int
	design   Design
	shards   []*relation.Relation // nil when replicated
	replica  *relation.Relation   // full copy when replicated
	// moved memoizes the bytes-moved accounting per (old design → new
	// design) transition. Shard contents are a pure function of (base,
	// design), so the delta is too; the map is dropped whenever base
	// changes (Append).
	moved map[string]int64
}

// DefaultShardCacheBytes bounds the cluster-wide shard cache when the
// caller never calls SetShardCacheLimit. Materialized shard sets of the
// repro-scale benchmarks are a few MB each, so the default keeps every
// design of a training run resident while still bounding pathological
// spaces.
const DefaultShardCacheBytes = 256 << 20

// shardEntry is one cached materialization: the per-node shard set of a
// (table, design) pair.
type shardEntry struct {
	key    string // table\x00design-canonical
	shards []*relation.Relation
	bytes  int64
}

// Cluster is the set of nodes and table placements, plus a bounded LRU
// cache of materialized shard sets so that re-deploying a previously seen
// design is a pointer swap instead of a full re-hash of the table
// (the what-if fast path of the training loop).
type Cluster struct {
	n      int
	tables map[string]*table
	// rev counts layout mutations (loads, deploys that change a design,
	// appends, repairs). Snapshot-taking readers (exec.Engine's immutable
	// layout view) compare revisions to decide whether a cached snapshot
	// still describes the cluster.
	rev uint64

	cacheCap   int64
	cacheBytes int64
	lru        *list.List // front = most recently deployed; holds *shardEntry
	index      map[string]*list.Element
	hits       uint64
	misses     uint64
}

// New creates a cluster with n nodes.
func New(n int) *Cluster {
	if n < 1 {
		panic(fmt.Sprintf("cluster: node count %d", n))
	}
	return &Cluster{
		n:        n,
		tables:   make(map[string]*table),
		cacheCap: DefaultShardCacheBytes,
		lru:      list.New(),
		index:    make(map[string]*list.Element),
	}
}

// SetShardCacheLimit bounds the shard cache to the given number of resident
// bytes (0 disables caching entirely — every Deploy re-materializes, the
// pre-cache behavior). Shrinking the limit evicts immediately.
func (c *Cluster) SetShardCacheLimit(bytes int64) {
	if bytes < 0 {
		bytes = 0
	}
	c.cacheCap = bytes
	c.evictTo(c.cacheCap)
}

// ShardCacheStats reports cache effectiveness: Deploy calls served by a
// cached materialization (hits) vs physical rebuilds (misses), plus the
// current residency.
func (c *Cluster) ShardCacheStats() (hits, misses uint64, entries int, bytes int64) {
	return c.hits, c.misses, c.lru.Len(), c.cacheBytes
}

// cacheKey joins table and design into the cache index key.
func cacheKey(table, designCanonical string) string {
	return table + "\x00" + designCanonical
}

// cacheGet returns a cached shard set, refreshing its recency.
func (c *Cluster) cacheGet(table, designCanonical string) []*relation.Relation {
	el, ok := c.index[cacheKey(table, designCanonical)]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	return el.Value.(*shardEntry).shards
}

// cachePut inserts (or refreshes) a materialized shard set, evicting
// least-recently-deployed entries past the byte bound. Entries larger than
// the whole bound are not cached.
func (c *Cluster) cachePut(table, designCanonical string, shards []*relation.Relation) {
	key := cacheKey(table, designCanonical)
	if el, ok := c.index[key]; ok {
		c.lru.MoveToFront(el)
		return
	}
	var bytes int64
	for _, s := range shards {
		bytes += s.DataBytes()
	}
	if c.cacheCap <= 0 || bytes > c.cacheCap {
		return
	}
	c.evictTo(c.cacheCap - bytes)
	c.index[key] = c.lru.PushFront(&shardEntry{key: key, shards: shards, bytes: bytes})
	c.cacheBytes += bytes
}

// evictTo drops least-recently-deployed entries until residency is at most
// limit. The currently deployed shard sets stay valid — eviction only
// removes the cache's reference, never the tables'.
func (c *Cluster) evictTo(limit int64) {
	for c.cacheBytes > limit {
		el := c.lru.Back()
		if el == nil {
			return
		}
		ent := c.lru.Remove(el).(*shardEntry)
		delete(c.index, ent.key)
		c.cacheBytes -= ent.bytes
	}
}

// invalidateTable drops every cached materialization and memoized
// transition of a table (its base data changed).
func (c *Cluster) invalidateTable(name string) {
	prefix := name + "\x00"
	for key, el := range c.index {
		if strings.HasPrefix(key, prefix) {
			ent := c.lru.Remove(el).(*shardEntry)
			delete(c.index, key)
			c.cacheBytes -= ent.bytes
		}
	}
	c.tables[name].moved = nil
}

// Revision returns the layout revision: it advances on every mutation of
// what is physically placed where (Load, a design-changing Deploy, Append,
// ExecuteRepair). Two calls returning the same value bracket a window in
// which every table's shard set, replica and design were untouched.
func (c *Cluster) Revision() uint64 { return c.rev }

// Load registers a table's data, initially round-robin distributed. rowWidth
// is the stored row width in bytes (from the schema) used for network
// accounting.
func (c *Cluster) Load(name string, data *relation.Relation, rowWidth int) {
	if rowWidth <= 0 {
		panic(fmt.Sprintf("cluster: row width %d for table %s", rowWidth, name))
	}
	t := &table{
		base:     data,
		rowWidth: rowWidth,
		design:   Design{},
		shards:   data.SplitRoundRobin(c.n),
	}
	c.tables[name] = t
	c.rev++
	c.cachePut(name, t.design.canonical(), t.shards)
}

// Design returns the current design of the named table.
func (c *Cluster) Design(name string) Design {
	return c.mustTable(name).design
}

// Base returns the full data of the named table.
func (c *Cluster) Base(name string) *relation.Relation {
	return c.mustTable(name).base
}

// RowWidth returns the stored row width of the named table.
func (c *Cluster) RowWidth(name string) int {
	return c.mustTable(name).rowWidth
}

// Shards returns the per-node shards of a partitioned table, or the full
// replica (with replicated == true) of a replicated one.
func (c *Cluster) Shards(name string) (shards []*relation.Relation, replica *relation.Relation, replicated bool) {
	t := c.mustTable(name)
	if t.design.Replicated {
		return nil, t.replica, true
	}
	return t.shards, nil, false
}

func (c *Cluster) mustTable(name string) *table {
	t := c.tables[name]
	if t == nil {
		panic(fmt.Sprintf("cluster: table %q not loaded", name))
	}
	return t
}

// Deploy changes the physical design of a table and returns the number of
// bytes that crossed the network:
//
//   - unchanged design: 0;
//   - to replicated: every node must receive the rows it is missing,
//     (N−1) × total bytes;
//   - replicated to partitioned: nodes drop non-owned rows locally, 0 bytes;
//   - partitioned to partitioned: exactly the rows whose node assignment
//     changes move.
//
// The bytes-moved figure is the simulated network accounting of the old→new
// placement delta; it is charged on every design change regardless of
// whether the shard set is physically rebuilt or served from the cache.
// Revisiting a design previously materialized for the same base data is a
// pointer swap (the training loop's what-if fast path).
func (c *Cluster) Deploy(name string, d Design) (bytesMoved int64) {
	t := c.mustTable(name)
	if t.design.Equal(d) {
		return 0
	}
	bytesMoved = c.transitionBytes(name, t, d)
	c.materialize(name, t, d)
	t.design = d
	c.rev++
	return bytesMoved
}

// transitionBytes returns the simulated bytes moved by switching the table
// from its current design to d, memoized per (old, new) design pair. Must
// be called before materialize (it reads the current shard layout on a
// memo miss).
func (c *Cluster) transitionBytes(name string, t *table, d Design) int64 {
	if t.design.Replicated {
		if d.Replicated {
			return 0
		}
		return 0 // replicated → anything: nodes drop non-owned rows locally
	}
	if d.Replicated {
		// Every node must receive the rows it is missing.
		totalBytes := int64(t.base.Rows()) * int64(t.rowWidth)
		return totalBytes * int64(c.n-1)
	}
	memoKey := t.design.canonical() + "\x00" + d.canonical()
	if moved, ok := t.moved[memoKey]; ok {
		return moved
	}
	var moved int64
	switch {
	case len(d.Key) == 0:
		moved = c.movedBytes(t, func(r *relation.Relation, row, node int) bool {
			return row%c.n != node // not exact round-robin placement, estimate
		})
	case d.Salt > 0 || d.HotSplit:
		// Salted and hot-split placements depend on row ordinals within the
		// target split, which a per-current-shard walk cannot reproduce
		// exactly; like the round-robin case this is a consistent estimate
		// (memoized per transition, so accounting stays deterministic).
		keyIdx := keyIndices(name, t.base, d.Key)
		var hotVal int64
		hasHot := false
		if d.HotSplit {
			hotVal, hasHot = modalValue(t.base.ColAt(keyIdx[0]))
		}
		moved = c.movedBytes(t, func(r *relation.Relation, row, node int) bool {
			if hasHot && r.ColAt(keyIdx[0])[row] == hotVal {
				return row%c.n != node
			}
			h := r.HashRow(row, keyIdx)
			if d.Salt > 0 {
				h += uint64(row % d.Salt)
			}
			return int(h%uint64(c.n)) != node
		})
	default:
		keyIdx := keyIndices(name, t.base, d.Key)
		moved = c.movedBytes(t, func(r *relation.Relation, row, node int) bool {
			return int(r.HashRow(row, keyIdx)%uint64(c.n)) != node
		})
	}
	if t.moved == nil {
		t.moved = make(map[string]int64)
	}
	t.moved[memoKey] = moved
	return moved
}

// materialize installs the shard set / replica of design d, serving
// previously built shard sets from the cache.
func (c *Cluster) materialize(name string, t *table, d Design) {
	if d.Replicated {
		t.replica = t.base // replicas alias base
		t.shards = nil
		return
	}
	key := d.canonical()
	if shards := c.cacheGet(name, key); shards != nil {
		c.hits++
		t.shards = shards
		t.replica = nil
		return
	}
	c.misses++
	t.shards = c.buildShards(name, t.base, d)
	t.replica = nil
	c.cachePut(name, key, t.shards)
}

// buildShards materializes the shard set of a partitioned design from
// scratch: round-robin for the empty key, plain hashing, or the explicit
// salted/hot-split assignment.
func (c *Cluster) buildShards(name string, base *relation.Relation, d Design) []*relation.Relation {
	if len(d.Key) == 0 {
		return base.SplitRoundRobin(c.n)
	}
	if d.plainHash() {
		return base.SplitByHash(d.Key, c.n)
	}
	keyIdx := keyIndices(name, base, d.Key)
	return base.SplitByAssign(assignFor(base, d, keyIdx, c.n), c.n)
}

// keyIndices resolves the design's key columns on a relation, panicking on
// unknown columns with the same contract as SplitByHash.
func keyIndices(name string, r *relation.Relation, key []string) []int {
	keyIdx := make([]int, len(key))
	for i, k := range key {
		keyIdx[i] = r.ColIndex(k)
		if keyIdx[i] < 0 {
			panic(fmt.Sprintf("cluster: table %s has no column %q", name, k))
		}
	}
	return keyIdx
}

// assignFor computes the per-row node assignment of a salted and/or
// hot-split hash design. Deterministic: the hot key is the modal value of
// the first key column (ties break to the smallest value), its rows go
// round-robin in row order; every other row hashes normally, with the salt
// spreading consecutive same-key rows across Salt adjacent buckets.
func assignFor(r *relation.Relation, d Design, keyIdx []int, n int) []int32 {
	rows := r.Rows()
	out := make([]int32, rows)
	var keyCol []int64
	var hotVal int64
	hasHot := false
	if d.HotSplit {
		keyCol = r.ColAt(keyIdx[0])
		hotVal, hasHot = modalValue(keyCol)
	}
	hotSeen := 0
	for row := 0; row < rows; row++ {
		if hasHot && keyCol[row] == hotVal {
			out[row] = int32(hotSeen % n)
			hotSeen++
			continue
		}
		h := r.HashRow(row, keyIdx)
		if d.Salt > 0 {
			h += uint64(row % d.Salt)
		}
		out[row] = int32(h % uint64(n))
	}
	return out
}

// modalValue returns the most frequent value of a column (ties break to
// the smallest value, so the answer is deterministic); ok is false for an
// empty column.
func modalValue(col []int64) (mode int64, ok bool) {
	if len(col) == 0 {
		return 0, false
	}
	counts := make(map[int64]int, len(col)/4+1)
	for _, v := range col {
		counts[v]++
	}
	bestN := 0
	for v, n := range counts {
		if n > bestN || (n == bestN && v < mode) {
			mode, bestN = v, n
		}
	}
	return mode, true
}

// MaterializeDesign returns the shard set (or replica) a table would have
// under design d WITHOUT deploying it: the deployed design, shards, replica
// and layout revision are untouched, and no bytes-moved accounting runs.
// Results come from the same LRU shard cache Deploy uses — a design the
// training loop later commits to is a pointer swap — and freshly built
// shard sets are registered there, so speculative (what-if) evaluation and
// deployment share one materialization per (table, design).
//
// Replicated designs return (nil, base); partitioned designs return
// (shards, nil). The returned relations are shared immutable snapshots and
// must not be mutated.
func (c *Cluster) MaterializeDesign(name string, d Design) (shards []*relation.Relation, replica *relation.Relation) {
	t := c.mustTable(name)
	if d.Replicated {
		return nil, t.base // replicas alias base
	}
	if t.design.Equal(d) {
		return t.shards, nil
	}
	key := d.canonical()
	if shards := c.cacheGet(name, key); shards != nil {
		c.hits++
		return shards, nil
	}
	c.misses++
	shards = c.buildShards(name, t.base, d)
	c.cachePut(name, key, shards)
	return shards, nil
}

// movedBytes counts the bytes of rows whose new placement differs from their
// current node.
func (c *Cluster) movedBytes(t *table, moves func(r *relation.Relation, row, node int) bool) int64 {
	var rows int64
	for node, shard := range t.shards {
		n := shard.Rows()
		for row := 0; row < n; row++ {
			if moves(shard, row, node) {
				rows++
			}
		}
	}
	return rows * int64(t.rowWidth)
}

// Append bulk-loads additional rows into a table, distributing them
// according to the current design (the paper's Exp. 3a update procedure).
// The table's cached shard sets and memoized transition deltas are built
// from the pre-append base, so they are invalidated first; a hash design's
// updated shard set is re-registered afterwards (it stays hot for
// revisits).
//
// Append is copy-on-write: the grown base and updated shards are fresh
// relations, never in-place mutations of the previous ones. Readers that
// snapshotted the pre-append layout (exec.Engine's lock-free view) keep a
// consistent — merely stale — picture until they observe the new revision.
func (c *Cluster) Append(name string, rows *relation.Relation) {
	t := c.mustTable(name)
	c.invalidateTable(name)
	c.rev++
	grown := t.base.Clone()
	grown.Concat(rows)
	t.base = grown
	switch {
	case t.design.Replicated:
		t.replica = t.base // replicas alias base
	case t.design.plainHash():
		// Hash placement is row-order independent: appending the hash-split
		// of the new rows yields byte-identical shards to re-splitting the
		// grown base, so the updated set is re-registered as this design's
		// materialization.
		add := rows.SplitByHash(t.design.Key, c.n)
		t.shards = concatShards(t.shards, add)
		c.cachePut(name, t.design.canonical(), t.shards)
	default:
		// Round-robin, salted and hot-split placements depend on row
		// ordinals (and, for hot-split, the modal key of the split input),
		// which restart for the appended batch: the updated shards differ
		// from a fresh split of the grown base, so they are NOT
		// re-registered in the cache (a later revisit rebuilds, exactly
		// like the pre-cache engine).
		add := c.buildShards(name, rows, t.design)
		t.shards = concatShards(t.shards, add)
	}
}

// concatShards builds a fresh shard set holding old[i] ++ add[i] per node,
// leaving the old shards untouched (copy-on-write for snapshot readers).
func concatShards(old, add []*relation.Relation) []*relation.Relation {
	out := make([]*relation.Relation, len(old))
	for i := range old {
		s := old[i].Clone()
		s.Concat(add[i])
		out[i] = s
	}
	return out
}

// RowsOn returns how many rows of the named table are stored on a node:
// the shard size for partitioned tables, the full copy for replicated
// ones, and 0 for nodes outside the cluster.
func (c *Cluster) RowsOn(name string, node int) int {
	t := c.mustTable(name)
	if node < 0 || node >= c.n {
		return 0
	}
	if t.design.Replicated {
		return t.replica.Rows()
	}
	return t.shards[node].Rows()
}

// Available reports whether the named table remains fully readable when
// the given nodes are down: a replicated table needs any one live node,
// while a partitioned table needs every node holding a non-empty shard.
func (c *Cluster) Available(name string, down func(node int) bool) bool {
	t := c.mustTable(name)
	if t.design.Replicated {
		for node := 0; node < c.n; node++ {
			if !down(node) {
				return true
			}
		}
		return false
	}
	for node, s := range t.shards {
		if s.Rows() > 0 && down(node) {
			return false
		}
	}
	return true
}
