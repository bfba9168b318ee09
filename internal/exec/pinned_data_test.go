package exec

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"partadvisor/internal/benchmarks"
	"partadvisor/internal/hardware"
	"partadvisor/internal/relation"
	"partadvisor/internal/schema"
	"partadvisor/internal/stats"
)

// deploymentPins are the databases the benchmark deploys — the six tenants
// of its crash_recover fleet (bench/loadgen.go planTenants: scale 0.3, seeds
// 1–6) and TPC-DS at scale 1 — with SHA-256s of what a deployment builds
// from them: the generated columns, BuildCatalog's statistics, and the true
// catalog after one bulk load. Recorded before statistics moved off the
// sort-based distinct count and before datagen.Table went columnar; they
// are never recomputed.
var deploymentPins = []struct {
	bench   string
	scale   float64
	seed    int64
	data    string
	catalog string
	loaded  string
}{
	{"micro", 0.3, 1,
		"47a0841cd81b7f1662c7be0ca8bb58e74e0ec5edf629c1ba28117fb351a41c54",
		"1c56019c8a88887a72867c569303678ea60db426930690bf0750498abd769dc3",
		"c6f9f9af6e92f5afaeebeb1d0ae4662e79986836fa5aa467a4ff6ccc90e8e558"},
	{"micro", 0.3, 2,
		"f40d4e0b66650117663add629ed0b19962c7de34f526f41794496f0fd773fe4f",
		"063db50b167e39ebbe16ecf640e26a1fd5a5e6b74fa347327b4a4f3dbce6083d",
		"97e9339570fd081d12265004d09fffce71046f9a012169a53253cc48b4fbdeee"},
	{"ssb", 0.3, 3,
		"5d821f6764a2b41cba709e66afda1ebdd3ea06fbac6a1e8c6ed85f5e467f8fc0",
		"bbacf10869977f89a25e21213b7762e11fa076d168fb03022f09c95b5973debe",
		"b045fd657ca4cc90cbfe5fbd7cba7706b16ecc482ddd7c22e5d524f4071f4a22"},
	{"ssb", 0.3, 4,
		"f5df84742ef87bc72309b1600028875d01460e8dacb1085620c35ea1d49196ee",
		"484ed3b79487fb37dc404f1e06ab21ea34ed810b85b557eaafa36e88fc325c99",
		"6ea3384d793791215bad03c255f255fbcd9b39158a2000bb5d0dda4330711229"},
	{"tpcch", 0.3, 5,
		"be77a4a195e9a7714a1dc82a4583c45af2f2e1472abd7b416063d57a3b590ebf",
		"3d3f38f596cd89818d7a85907df296797d79de82d3a4b7d35a87af26ba51cff9",
		"b55e6f113e29df4fce702f59d78024bb879e4d8800c792b4be07fe15527e047e"},
	{"tpch", 0.3, 6,
		"41e8a285bbc107d20c3118147f01477ed6b9433758bcc61acd39dc47dced3c0b",
		"d3d280c5dff49bd58a40153add19287d17149ebe37e911409e66a550402b25df",
		"38eec8dd963de551c751b5bbda61c31800cf237db162e6abd94f8a0e03a3f03b"},
	{"tpcds", 1, 1,
		"980d2b2eb355ef478ed4638cd29ace079420399e081ecd3396ef121e9a1a629b",
		"be513860a294da3b714bbc7090809515f326c1256b68d3e9c9c17fc34385359f",
		"b9b453e1bfeb776540665d78b1e2df41965d19240765684ba39fba10a3adeffd"},
}

func putInt64(h hash.Hash, v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}

// dataDigest hashes every generated column in schema table and attribute
// order.
func dataDigest(sch *schema.Schema, data map[string]*relation.Relation) string {
	h := sha256.New()
	for _, t := range sch.Tables {
		rel := data[t.Name]
		if rel == nil {
			continue
		}
		h.Write([]byte(t.Name))
		for _, a := range t.Attributes {
			if !rel.HasCol(a.Name) {
				continue
			}
			h.Write([]byte(a.Name))
			col := rel.Col(a.Name)
			putInt64(h, int64(len(col)))
			for _, v := range col {
				putInt64(h, v)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// catalogDigest hashes each table's Rows and RowWidth and each column's
// Distinct, Min, Max and Histogram, tables in schema order and columns in
// sorted order.
func catalogDigest(sch *schema.Schema, cat *stats.Catalog) string {
	h := sha256.New()
	for _, t := range sch.Tables {
		ts := cat.Table(t.Name)
		if ts == nil {
			continue
		}
		h.Write([]byte(t.Name))
		putInt64(h, ts.Rows)
		putInt64(h, int64(ts.RowWidth))
		cols := make([]string, 0, len(ts.Columns))
		for c := range ts.Columns {
			cols = append(cols, c)
		}
		sort.Strings(cols)
		for _, c := range cols {
			cs := ts.Columns[c]
			h.Write([]byte(c))
			putInt64(h, cs.Distinct)
			putInt64(h, cs.Min)
			putInt64(h, cs.Max)
			putInt64(h, int64(len(cs.Histogram)))
			for _, b := range cs.Histogram {
				putInt64(h, b)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// largestTable is the schema's table with the most generated rows (the
// first in schema order on a tie).
func largestTable(sch *schema.Schema, data map[string]*relation.Relation) string {
	best, rows := "", -1
	for _, t := range sch.Tables {
		if rel := data[t.Name]; rel != nil && rel.Rows() > rows {
			best, rows = t.Name, rel.Rows()
		}
	}
	return best
}

// TestDeploymentDataDigestPinned pins, bit for bit, the data and statistics
// every deployment is built from: what the generators produce, what
// BuildCatalog derives from it, and what an engine's true catalog holds
// after a bulk load of a 1 % sample of its largest table and an Analyze.
func TestDeploymentDataDigestPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests were recorded on amd64; %s may round histogram buckets differently", runtime.GOARCH)
	}
	for _, p := range deploymentPins {
		b := benchmarks.ByName(p.bench)
		data := b.Generate(p.scale, p.seed)
		if got := dataDigest(b.Schema, data); got != p.data {
			t.Errorf("%s scale %g seed %d: data digest %s, want %s", p.bench, p.scale, p.seed, got, p.data)
		}
		if got := catalogDigest(b.Schema, BuildCatalog(b.Schema, data)); got != p.catalog {
			t.Errorf("%s scale %g seed %d: catalog digest %s, want %s", p.bench, p.scale, p.seed, got, p.catalog)
		}
		big := largestTable(b.Schema, data)
		sample := data[big].Sample(0.01, 1, rand.New(rand.NewSource(p.seed)))
		e := New(b.Schema, data, hardware.PostgresXLDisk(), Disk)
		if err := e.BulkLoad(big, sample); err != nil {
			t.Fatal(err)
		}
		e.Analyze()
		if got := catalogDigest(b.Schema, e.TrueCatalog()); got != p.loaded {
			t.Errorf("%s scale %g seed %d: loaded catalog digest %s, want %s", p.bench, p.scale, p.seed, got, p.loaded)
		}
	}
}
