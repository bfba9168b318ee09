package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the harness into a module's public API.
// Start and End are nanoseconds since the recorder was created; Parent is
// the id of the span that caused this one (-1 for a root); Op groups the
// spans of one repetition, design, request or crash cycle.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per call site.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

const noSpan = -1

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id (noSpan on a nil recorder).
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return noSpan
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: -1})
	r.mu.Unlock()
	return id
}

// end closes a span and returns its duration.
func (r *recorder) end(id int) time.Duration {
	if r == nil || id < 0 {
		return 0
	}
	now := time.Since(r.t0).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	d := now - r.spans[id].Start
	r.mu.Unlock()
	return time.Duration(d)
}

// snapshot returns the closed spans recorded so far.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span id, the span's duration minus the part of
// its interval that its child spans cover. Overlapping children (parallel
// work) are counted once: the union of their intervals, clipped to the
// parent, is what is subtracted.
func selfTimes(spans []span) map[int]int64 {
	type iv struct{ a, b int64 }
	kids := make(map[int][]iv)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok {
			a, b := max(s.Start, p.Start), min(s.End, p.End)
			if b > a {
				kids[p.ID] = append(kids[p.ID], iv{a, b})
			}
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		covered, hi := int64(0), s.Start
		for _, v := range ivs {
			if v.b <= hi {
				continue
			}
			covered += v.b - max(v.a, hi)
			hi = v.b
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// layerTotal is the per-name roll-up written beside the raw spans.
type layerTotal struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

func layerTotals(spans []span) []layerTotal {
	self := selfTimes(spans)
	idx := make(map[string]int)
	var out []layerTotal
	for _, s := range spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, layerTotal{Name: s.Name})
		}
		out[i].Count++
		out[i].TotalMS += float64(s.End-s.Start) / 1e6
		out[i].SelfMS += float64(self[s.ID]) / 1e6
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// spanCostNS measures what one begin/end pair costs on this host, so the
// traced run can report the recorder's own share of its wall-clock.
func spanCostNS() float64 {
	const n = 200000
	r := newRecorder()
	r.spans = make([]span, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		r.end(r.begin("calibrate", noSpan, 0))
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

type traceFile struct {
	Workload string       `json:"workload"`
	Seed     int64        `json:"seed"`
	Layers   []layerTotal `json:"layers"`
	Spans    []span       `json:"spans"`
}

func writeTrace(path, workload string, seed int64, spans []span) error {
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Layers: layerTotals(spans), Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
