package exec

// Per-shard access heat: every scan records how many rows each node's shard
// emitted (post-filter), so skewed key access — a celebrity key inflating
// one hash shard — shows up as one node's counter racing ahead of the rest.
// Accumulation is allocation-light and deterministic: executors append
// (table, node, rows) entries into their per-worker scratch while running
// lock-free against the layout snapshot; at batch end exactly the charged
// position prefix [0, Completed) is folded into the engine's cumulative
// counters in position order. Counters are monotone int64s, so the merged
// totals are bit-identical at every worker count, and a windowed detector
// builds deltas by differencing successive ShardHeat reports.

// heatEntry is one query's emitted-row count for one (table, node) shard.
type heatEntry struct {
	table int32
	node  int32
	rows  int64
}

// addHeat records emitted rows for one table shard during a scan. Tables
// unknown to the snapshot's index (hand-built test snapshots) are skipped.
func (x *executor) addHeat(table string, node int, rows int64) {
	if rows == 0 || x.lay.tableIdx == nil {
		return
	}
	ti, ok := x.lay.tableIdx[table]
	if !ok {
		return
	}
	x.heat = append(x.heat, heatEntry{table: int32(ti), node: int32(node), rows: rows})
}

// mergeHeat folds one query's heat entries into the cumulative counters.
// Caller must hold e.mu.
func (e *Engine) mergeHeat(entries []heatEntry) {
	nodes := e.HW.Nodes
	for _, h := range entries {
		e.heat[int(h.table)*nodes+int(h.node)] += h.rows
	}
}

// ShardHeat is a coherent snapshot of cumulative per-shard access heat:
// Rows[t][n] is the total rows emitted by scans of table Tables[t] on node
// n since engine construction. Counters are monotone; callers wanting a
// window diff two snapshots.
type ShardHeat struct {
	Tables []string
	Nodes  int
	Rows   [][]int64
}

// ShardHeat reports cumulative access heat, served lock-free from the
// published view (the state as of the last completed operation — it never
// blocks behind a running batch).
func (e *Engine) ShardHeat() ShardHeat {
	v := e.loadView()
	nodes := e.HW.Nodes
	h := ShardHeat{
		Tables: make([]string, len(e.Schema.Tables)),
		Nodes:  nodes,
		Rows:   make([][]int64, len(e.Schema.Tables)),
	}
	for i, t := range e.Schema.Tables {
		h.Tables[i] = t.Name
		// Views are immutable and their heat slice is a private copy, so
		// sub-slicing is safe to hand out.
		h.Rows[i] = v.heat[i*nodes : (i+1)*nodes]
	}
	return h
}

// TableRows returns the per-node heat of one table (nil for unknown names).
func (h ShardHeat) TableRows(table string) []int64 {
	for i, t := range h.Tables {
		if t == table {
			return h.Rows[i]
		}
	}
	return nil
}

// Imbalance returns max/mean heat over the table's nodes: 1 for a
// perfectly balanced table, N for all heat on one of N nodes, and 0 for a
// table with no heat at all. This is the soak's heat-bound metric.
func (h ShardHeat) Imbalance(table string) float64 {
	return imbalance(h.TableRows(table))
}

func imbalance(row []int64) float64 {
	if len(row) == 0 {
		return 0
	}
	var sum, max int64
	for _, v := range row {
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(row))
	return float64(max) / mean
}

// Sub returns the windowed delta h - prev (element-wise; prev must come
// from the same engine, earlier). A zero-value prev yields h itself.
func (h ShardHeat) Sub(prev ShardHeat) ShardHeat {
	out := ShardHeat{Tables: h.Tables, Nodes: h.Nodes, Rows: make([][]int64, len(h.Rows))}
	for i, row := range h.Rows {
		d := make([]int64, len(row))
		copy(d, row)
		if i < len(prev.Rows) {
			for n := range d {
				d[n] -= prev.Rows[i][n]
			}
		}
		out.Rows[i] = d
	}
	return out
}

// Digest folds the heat matrix into one FNV-1a hash for determinism checks
// (worker sweeps, soak replay).
func (h ShardHeat) Digest() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	hash := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			hash ^= (v >> (8 * i)) & 0xff
			hash *= prime64
		}
	}
	for _, row := range h.Rows {
		for _, v := range row {
			mix(uint64(v))
		}
	}
	return hash
}
