package exec

import (
	"partadvisor/internal/relation"
	"partadvisor/internal/sqlparse"
)

// execScratch is one worker's reusable execution state: a bump arena for
// intermediate column storage plus the executor's recycled maps, planning
// slices and join-kernel buffers. The engine keeps a pool of them (guarded by e.mu); a batch
// checks out one per worker at batch start and returns them at batch end,
// so arenas warm up once and are recycled across queries, workers and
// consecutive batches.
//
// Recycling contract: the arena is Reset between queries and nothing an
// executor allocates survives a query (only the RunReport scalars and the
// error escape), so no data can leak from one query — or one batch — into
// the next through a reused scratch buffer.
type execScratch struct {
	ar relation.Arena
	x  executor
}

// prepare readies the embedded executor for one query against the given
// layout snapshot. The previous query's maps are cleared in place; the
// arena keeps its slabs (Reset after the previous query already rewound
// them).
func (s *execScratch) prepare(lay *layoutSnap, g *sqlparse.Graph, limit, now float64, fc *faultCtx) *executor {
	x := &s.x
	x.lay = lay
	x.g = g
	x.limit = limit
	x.now = now
	x.fc = fc
	x.ar = &s.ar
	x.time = 0
	x.aborted = false
	x.err = nil
	x.trace = nil
	x.items = x.items[:0]
	x.heat = x.heat[:0]
	if x.aliasIdx == nil {
		x.aliasIdx = make(map[string]int, len(g.Refs))
		x.colTable = make(map[string]string)
		x.colBase = make(map[string]string)
	} else {
		clear(x.aliasIdx)
		clear(x.colTable)
		clear(x.colBase)
	}
	x.filters = x.filters[:0]
	x.filterAt = x.filterAt[:0]
	for i, r := range g.Refs {
		x.aliasIdx[r.Alias] = i
		x.filterAt = append(x.filterAt, len(x.filters))
		for j := range g.Filters {
			if f := &g.Filters[j]; f.Alias == r.Alias {
				x.filters = append(x.filters, compileFilter(f))
			}
		}
	}
	x.filterAt = append(x.filterAt, len(x.filters))
	x.joins = x.joins[:0]
	for _, j := range g.Joins {
		li, lok := x.aliasIdx[j.LeftAlias]
		ri, rok := x.aliasIdx[j.RightAlias]
		if !lok || !rok {
			continue
		}
		x.joins = append(x.joins, graphJoin{
			lBit: 1 << uint(li), rBit: 1 << uint(ri),
			lq: j.LeftAlias + "." + j.LeftCol, rq: j.RightAlias + "." + j.RightCol,
			semi: j.Semi, anti: j.Anti,
		})
	}
	// No hash table survives a query: the arena rewind already recycled
	// the storage of the inner relation it indexed.
	x.tableOf = nil
	return x
}

// release rewinds the arena after a query: every intermediate allocated
// during execution is recycled for the next one.
func (s *execScratch) release() { s.ar.Reset() }

// grabScratchesLocked checks n scratches (one per worker) out of the engine
// pool, allocating cold ones when the pool runs dry. Caller must hold e.mu.
func (e *Engine) grabScratchesLocked(n int) []*execScratch {
	out := make([]*execScratch, n)
	for i := range out {
		if last := len(e.scratches) - 1; last >= 0 {
			out[i] = e.scratches[last]
			e.scratches[last] = nil
			e.scratches = e.scratches[:last]
		} else {
			out[i] = &execScratch{}
		}
	}
	return out
}

// putScratchesLocked returns a request's worker scratches to the pool for
// reuse by later requests. Caller must hold e.mu.
func (e *Engine) putScratchesLocked(ss []*execScratch) {
	for _, s := range ss {
		s.ar.Reset()
	}
	e.scratches = append(e.scratches, ss...)
}
