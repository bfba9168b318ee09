package costmodel_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"partadvisor/internal/benchmarks"
	"partadvisor/internal/costmodel"
	"partadvisor/internal/exec"
	"partadvisor/internal/hardware"
	"partadvisor/internal/partition"
	"partadvisor/internal/schema"
	"partadvisor/internal/stats"
	"partadvisor/internal/workload"
)

// costPins are SHA-256s over the bits of every QueryCost and
// NoisyModel.QueryCost a fixed set of seeded random walks prices, per
// benchmark (scale 0.3, seed 1) and for a synthetic 13-alias chain and star
// that only the greedy planner can plan. Recorded while the planner still kept
// its property costs in per-relation maps; they are never recomputed.
var costPins = map[string]string{
	"micro":   "1b28805b12061812f53bc89af7f302bd562bc595ded717c3443f28240bddbf07",
	"ssb":     "3224ccca81fc5dc64069d9cce9b0275d8f746319b1ebb542ef94bb35d7194c62",
	"tpcch":   "76beae3b30e7b00c1f508450db673e75eedb377186f5e664f624b5129ca423d5",
	"tpch":    "f70cc5e6560f003f984e51d55242c6495dfa2bb4ed1adaaaf01557255cbd1424",
	"tpcds":   "4cb75f3c7d5c5bb2958105eb242cba236aab43b989b7a24f7a088e9b1985e5f6",
	"chain13": "fcd08c26b44f3005b634739f88fc5480fecc7d3bfe9bc7a2cf751d9baca7b38c",
	"star13":  "b2ecee5fbd3d24d56c57a811e4d41fff2644a950cfdcc76eddee96d197fb1643",
}

// pinWalks and pinSteps size the random walks over each design space.
const (
	pinWalks = 8
	pinSteps = 20
)

// walkStates returns the states of n seeded random walks of the given
// length, each starting from the initial state.
func walkStates(sp *partition.Space, seed int64, n, steps int) []*partition.State {
	rng := rand.New(rand.NewSource(seed))
	var out []*partition.State
	var buf []int
	for w := 0; w < n; w++ {
		st := sp.InitialState()
		out = append(out, st)
		for i := 0; i < steps; i++ {
			st = sp.Apply(st, sp.Actions()[sp.RandomValidAction(st, rng, buf)])
			out = append(out, st)
		}
	}
	return out
}

func putFloat(h hash.Hash, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}

// costDigest hashes QueryCost and the noisy estimate of every (state,
// query) pair the walks visit, on both hardware profiles, each profile on a
// fresh model so that every first price is a cold plan.
func costDigest(sp *partition.Space, wl *workload.Workload, cat *stats.Catalog) string {
	h := sha256.New()
	states := walkStates(sp, 1, pinWalks, pinSteps)
	for _, hw := range []hardware.Profile{hardware.PostgresXLDisk(), hardware.SystemXMemory()} {
		m := costmodel.New(cat, hw)
		nm := &costmodel.NoisyModel{Base: m, SigmaPerJoin: 0.7, Salt: 3}
		for _, st := range states {
			for _, q := range wl.Queries {
				putFloat(h, m.QueryCost(st, q.Graph))
				putFloat(h, nm.QueryCost(st, q.Graph))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestCostModelDigestPinned pins the offline cost model bit for bit: the
// planner may be restructured freely, but every estimate must stay the
// same float.
//
// amd64 only: arm64 (and others) fuse a*b+c into one rounding.
func TestCostModelDigestPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests were recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	for _, name := range []string{"micro", "ssb", "tpcch", "tpch", "tpcds"} {
		b := benchmarks.ByName(name)
		cat := exec.BuildCatalog(b.Schema, b.Generate(0.3, 1))
		if got := costDigest(b.Space(), b.Workload, cat); got != costPins[name] {
			t.Errorf("%s: cost digest %s, want %s", name, got, costPins[name])
		}
	}
	syn := synthetic()
	for name, wl := range map[string]*workload.Workload{"chain13": syn.chain, "star13": syn.star} {
		if got := costDigest(syn.space, wl, syn.cat); got != costPins[name] {
			t.Errorf("%s: cost digest %s, want %s", name, got, costPins[name])
		}
	}
}

// synth is a 13-table schema — a hub with twelve foreign keys and twelve
// dimensions that also chain to each other — with hand-written statistics,
// and two 13-alias queries over it: a chain and a star.
type synth struct {
	sch         *schema.Schema
	space       *partition.Space
	cat         *stats.Catalog
	chain, star *workload.Workload
}

const synthDims = 12

func synthetic() synth {
	attr := func(names ...string) []schema.Attribute {
		out := make([]schema.Attribute, len(names))
		for i, n := range names {
			out[i] = schema.Attribute{Name: n, Width: 8}
		}
		return out
	}
	hubCols := []string{"h_id"}
	var tables []*schema.Table
	var fks []schema.ForeignKey
	for i := 1; i <= synthDims; i++ {
		hubCols = append(hubCols, fmt.Sprintf("h_k%d", i))
	}
	tables = append(tables, &schema.Table{Name: "hub", Attributes: attr(hubCols...), PrimaryKey: []string{"h_id"}})
	cat := stats.NewCatalog()
	hubStats := map[string]*stats.ColumnStats{"h_id": {Distinct: 2_000_000, Min: 0, Max: 1_999_999}}
	for i := 1; i <= synthDims; i++ {
		d := fmt.Sprintf("d%d", i)
		tables = append(tables, &schema.Table{Name: d, Attributes: attr("id", "nxt", "v"), PrimaryKey: []string{"id"}})
		fks = append(fks, schema.ForeignKey{FromTable: "hub", FromAttr: fmt.Sprintf("h_k%d", i), ToTable: d, ToAttr: "id"})
		rows := int64(500 * i * i)
		hubStats[fmt.Sprintf("h_k%d", i)] = &stats.ColumnStats{Distinct: rows, Min: 0, Max: rows - 1}
		cat.SetTable(d, &stats.TableStats{Rows: rows, RowWidth: 8 * (2 + i%4), Columns: map[string]*stats.ColumnStats{
			"id":  {Distinct: rows, Min: 0, Max: rows - 1},
			"nxt": {Distinct: int64(400 * (i + 1) * (i + 1)), Min: 0, Max: int64(400*(i+1)*(i+1)) - 1},
			"v":   {Distinct: 100, Min: 0, Max: 99},
		}})
	}
	cat.SetTable("hub", &stats.TableStats{Rows: 2_000_000, RowWidth: 8 * (synthDims + 1), Columns: hubStats})
	sch := schema.New("synth13", tables, fks)

	var chainJoins, starJoins []string
	var from []string
	for i := 1; i <= synthDims; i++ {
		from = append(from, fmt.Sprintf("d%d", i))
		starJoins = append(starJoins, fmt.Sprintf("hub.h_k%d = d%d.id", i, i))
		if i < synthDims {
			chainJoins = append(chainJoins, fmt.Sprintf("d%d.nxt = d%d.id", i, i+1))
		}
	}
	fromList := "hub, " + strings.Join(from, ", ")
	chainSQL := "SELECT * FROM " + fromList + " WHERE hub.h_k1 = d1.id AND " + strings.Join(chainJoins, " AND ") + " AND d7.v < 50"
	starSQL := "SELECT * FROM " + fromList + " WHERE " + strings.Join(starJoins, " AND ") + " AND d3.v = 4"
	chain := workload.MustParse("chain13", sch, map[string]string{"chain": chainSQL}, []string{"chain"}, 0)
	star := workload.MustParse("star13", sch, map[string]string{"star": starSQL}, []string{"star"}, 0)
	edges := schema.MergeEdges(chain.JoinEdges(sch.ForeignKeyEdges()), star.JoinEdges())
	return synth{
		sch:   sch,
		space: partition.NewSpace(sch, edges, partition.Options{}),
		cat:   cat,
		chain: chain,
		star:  star,
	}
}
