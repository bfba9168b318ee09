package workload

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"partadvisor/internal/schema"
	"partadvisor/internal/sqlparse"
)

func wlSchema() *schema.Schema {
	attr := func(names ...string) []schema.Attribute {
		out := make([]schema.Attribute, len(names))
		for i, n := range names {
			out[i] = schema.Attribute{Name: n, Width: 8}
		}
		return out
	}
	return schema.New("mini",
		[]*schema.Table{
			{Name: "fact", Attributes: attr("f_id", "f_c", "f_p", "f_v"), PrimaryKey: []string{"f_id"}},
			{Name: "cust", Attributes: attr("c_id", "c_r"), PrimaryKey: []string{"c_id"}},
			{Name: "part", Attributes: attr("p_id", "p_b"), PrimaryKey: []string{"p_id"}},
		},
		[]schema.ForeignKey{
			{FromTable: "fact", FromAttr: "f_c", ToTable: "cust", ToAttr: "c_id"},
			{FromTable: "fact", FromAttr: "f_p", ToTable: "part", ToAttr: "p_id"},
		},
	)
}

func testWorkload(t *testing.T) *Workload {
	t.Helper()
	w, err := Parse("mini", wlSchema(), map[string]string{
		"q1": "SELECT * FROM fact f, cust c WHERE f.f_c = c.c_id AND c.c_r = 3",
		"q2": "SELECT * FROM fact f, part p WHERE f.f_p = p.p_id",
		"q3": "SELECT * FROM fact f, cust c, part p WHERE f.f_c = c.c_id AND f.f_p = p.p_id",
	}, []string{"q1", "q2", "q3"}, 2)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return w
}

func TestParseWorkload(t *testing.T) {
	w := testWorkload(t)
	if w.Size() != 5 {
		t.Fatalf("Size = %d, want 5 (3 queries + 2 reserved)", w.Size())
	}
	if w.Query("q2") == nil || w.Query("zz") != nil {
		t.Fatalf("Query lookup broken")
	}
	if w.QueryIndex("q3") != 2 || w.QueryIndex("zz") != -1 {
		t.Fatalf("QueryIndex broken")
	}
}

func TestParseWorkloadErrors(t *testing.T) {
	_, err := Parse("bad", wlSchema(), map[string]string{"q1": "SELECT * FROM nosuch"}, []string{"q1"}, 0)
	if err == nil {
		t.Fatalf("accepted bad query")
	}
	_, err = Parse("bad", wlSchema(), map[string]string{}, []string{"q1"}, 0)
	if err == nil || !strings.Contains(err.Error(), "not defined") {
		t.Fatalf("accepted missing query, err=%v", err)
	}
}

func TestWorkloadTablesAndEdges(t *testing.T) {
	w := testWorkload(t)
	edges := w.JoinEdges()
	if len(edges) != 2 {
		t.Fatalf("JoinEdges = %v", edges)
	}
	// Merging schema FK edges adds nothing new here.
	edges2 := w.JoinEdges(wlSchema().ForeignKeyEdges())
	if len(edges2) != 2 {
		t.Fatalf("JoinEdges with FKs = %v", edges2)
	}
}

func TestAddQueryUsesReservedSlots(t *testing.T) {
	w := testWorkload(t)
	g, err := sqlparse.ParseAndAnalyze("SELECT * FROM cust WHERE c_r = 1", wlSchema())
	if err != nil {
		t.Fatal(err)
	}
	slot, err := w.AddQuery(&Query{Name: "q4", Graph: g})
	if err != nil || slot != 3 {
		t.Fatalf("AddQuery = %d, %v", slot, err)
	}
	if w.Size() != 5 {
		t.Fatalf("Size changed to %d, want stable 5", w.Size())
	}
	if w.Reserved != 1 {
		t.Fatalf("Reserved = %d, want 1", w.Reserved)
	}
	if _, err := w.AddQuery(&Query{Name: "q5", Graph: g}); err != nil {
		t.Fatalf("second AddQuery: %v", err)
	}
	if _, err := w.AddQuery(&Query{Name: "q6", Graph: g}); err == nil {
		t.Fatalf("AddQuery accepted beyond reserved slots")
	}
}

func TestSubset(t *testing.T) {
	w := testWorkload(t)
	sub, err := w.Subset([]string{"q1", "q3"})
	if err != nil {
		t.Fatalf("Subset: %v", err)
	}
	if len(sub.Queries) != 2 || sub.Reserved != 3 {
		t.Fatalf("Subset = %d queries, %d reserved", len(sub.Queries), sub.Reserved)
	}
	if sub.Size() != w.Size() {
		t.Fatalf("Subset changed vector size: %d vs %d", sub.Size(), w.Size())
	}
	if _, err := w.Subset([]string{"zz"}); err == nil {
		t.Fatalf("Subset accepted unknown query")
	}
}

func TestFreqNormalize(t *testing.T) {
	f := FreqVector{1, 2, 0}
	n := f.Normalize()
	if n[0] != 0.5 || n[1] != 1 || n[2] != 0 {
		t.Fatalf("Normalize = %v", n)
	}
	z := FreqVector{0, 0}.Normalize()
	if z[0] != 0 || z[1] != 0 {
		t.Fatalf("zero Normalize = %v", z)
	}
	c := f.Clone()
	c[0] = 99
	if f[0] != 1 {
		t.Fatalf("Clone aliases storage")
	}
}

func TestFreqNormalizeProperty(t *testing.T) {
	// Property: after normalization the max is 1 (or the vector is zero),
	// and relative proportions are preserved.
	f := func(raw []uint8) bool {
		v := make(FreqVector, len(raw))
		allZero := true
		for i, r := range raw {
			v[i] = float64(r)
			if r != 0 {
				allZero = false
			}
		}
		n := v.Normalize()
		if len(raw) == 0 || allZero {
			return true
		}
		maxV := 0.0
		for _, x := range n {
			if x > maxV {
				maxV = x
			}
		}
		return maxV > 0.999999 && maxV < 1.000001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUniformAndExtremeFreq(t *testing.T) {
	w := testWorkload(t)
	u := w.UniformFreq()
	if len(u) != 5 || u[0] != 1 || u[2] != 1 || u[3] != 0 || u[4] != 0 {
		t.Fatalf("UniformFreq = %v", u)
	}
	e := w.ExtremeFreq(1, 0.1, 1.0)
	if e[1] != 1 {
		t.Fatalf("ExtremeFreq peak = %v", e)
	}
	if e[0] != 0.1 || e[2] != 0.1 {
		t.Fatalf("ExtremeFreq low = %v", e)
	}
	if e[3] != 0 {
		t.Fatalf("ExtremeFreq reserved slot = %v", e)
	}
}

func TestSamplers(t *testing.T) {
	w := testWorkload(t)
	rng := rand.New(rand.NewSource(42))
	u := w.SampleUniform(rng)
	if len(u) != 5 || u[3] != 0 || u[4] != 0 {
		t.Fatalf("SampleUniform = %v", u)
	}
	// Biased sampler must boost q3 (joins cust and part) on average.
	boostWins := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		b := w.SampleBiased(rng, []string{"cust", "part"}, 5)
		if b[2] >= b[0] && b[2] >= b[1] {
			boostWins++
		}
	}
	if boostWins < trials*6/10 {
		t.Fatalf("biased sampler boosted q3 only %d/%d times", boostWins, trials)
	}
}

func TestAddQueryDefaultsWeight(t *testing.T) {
	w := testWorkload(t)
	g, _ := sqlparse.ParseAndAnalyze("SELECT * FROM cust", wlSchema())
	if _, err := w.AddQuery(&Query{Name: "qq", Graph: g}); err != nil {
		t.Fatal(err)
	}
	if got := w.Query("qq").Weight; got != 1 {
		t.Fatalf("default weight = %v", got)
	}
}
