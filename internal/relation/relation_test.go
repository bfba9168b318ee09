package relation

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func sample() *Relation {
	r := New("t", []string{"a", "b"})
	for i := int64(0); i < 10; i++ {
		r.AppendRow(i, i*2)
	}
	return r
}

func TestBasics(t *testing.T) {
	r := sample()
	if r.Rows() != 10 || r.NumCols() != 2 {
		t.Fatalf("shape = %d x %d", r.Rows(), r.NumCols())
	}
	if got := r.Col("b")[3]; got != 6 {
		t.Fatalf("Col(b)[3] = %d", got)
	}
	if !r.HasCol("a") || r.HasCol("z") {
		t.Fatalf("HasCol broken")
	}
	if r.ColIndex("b") != 1 || r.ColIndex("z") != -1 {
		t.Fatalf("ColIndex broken")
	}
	if cols := r.Columns(); len(cols) != 2 || cols[0] != "a" {
		t.Fatalf("Columns = %v", cols)
	}
	empty := New("e", nil)
	if empty.Rows() != 0 {
		t.Fatalf("empty Rows = %d", empty.Rows())
	}
}

func TestPanics(t *testing.T) {
	r := sample()
	for name, f := range map[string]func(){
		"dup column":     func() { New("x", []string{"a", "a"}) },
		"missing col":    func() { r.Col("zz") },
		"bad append len": func() { r.AppendRow(1) },
		"bad split key":  func() { r.SplitByHash([]string{"zz"}, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestAppendFromAndConcat(t *testing.T) {
	r := sample()
	o := New("o", []string{"b", "a"}) // different order; matched by name
	o.AppendFrom(r, 2)
	if o.Col("a")[0] != 2 || o.Col("b")[0] != 4 {
		t.Fatalf("AppendFrom = %v / %v", o.Col("a"), o.Col("b"))
	}
	o.Concat(r)
	if o.Rows() != 11 {
		t.Fatalf("Concat rows = %d", o.Rows())
	}
	if o.Col("b")[1] != 0 || o.Col("b")[10] != 18 {
		t.Fatalf("Concat data = %v", o.Col("b"))
	}
}

func TestFilter(t *testing.T) {
	r := sample()
	f := r.Filter(func(row int) bool { return r.Col("a")[row]%2 == 0 })
	if f.Rows() != 5 {
		t.Fatalf("Filter rows = %d", f.Rows())
	}
	for _, v := range f.Col("a") {
		if v%2 != 0 {
			t.Fatalf("Filter kept odd value %d", v)
		}
	}
}

func TestClone(t *testing.T) {
	r := sample()
	c := r.Clone()
	c.Col("a")[0] = 42
	if r.Col("a")[0] == 42 {
		t.Fatalf("Clone shares storage")
	}
}

func TestSplitByHashPartitionsAllRows(t *testing.T) {
	r := New("t", []string{"k", "v"})
	for i := int64(0); i < 1000; i++ {
		r.AppendRow(i, i)
	}
	shards := r.SplitByHash([]string{"k"}, 4)
	total := 0
	for _, s := range shards {
		total += s.Rows()
	}
	if total != 1000 {
		t.Fatalf("shards lose rows: %d", total)
	}
	// Rough balance for a high-cardinality key.
	for i, s := range shards {
		if s.Rows() < 150 || s.Rows() > 350 {
			t.Fatalf("shard %d has %d rows (imbalanced)", i, s.Rows())
		}
	}
	// Determinism: same key -> same shard.
	shards2 := r.SplitByHash([]string{"k"}, 4)
	for i := range shards {
		if shards[i].Rows() != shards2[i].Rows() {
			t.Fatalf("split not deterministic")
		}
	}
}

func TestSplitByHashSkew(t *testing.T) {
	// A low-cardinality key (3 values) on 4 nodes must leave >= 1 node
	// empty — the physical origin of the paper's skew observation.
	r := New("t", []string{"k"})
	for i := int64(0); i < 300; i++ {
		r.AppendRow(i % 3)
	}
	shards := r.SplitByHash([]string{"k"}, 4)
	empty := 0
	for _, s := range shards {
		if s.Rows() == 0 {
			empty++
		}
	}
	if empty == 0 {
		t.Fatalf("expected at least one empty shard with 3 distinct keys on 4 nodes")
	}
}

func TestSplitByHashCompoundKeySpreads(t *testing.T) {
	// Compound (k1, k2) with 3x50 combinations spreads much better than k1
	// alone.
	r := New("t", []string{"k1", "k2"})
	for i := int64(0); i < 3000; i++ {
		r.AppendRow(i%3, i%50)
	}
	single := r.SplitByHash([]string{"k1"}, 4)
	compound := r.SplitByHash([]string{"k1", "k2"}, 4)
	maxRows := func(shards []*Relation) int {
		m := 0
		for _, s := range shards {
			if s.Rows() > m {
				m = s.Rows()
			}
		}
		return m
	}
	if maxRows(compound) >= maxRows(single) {
		t.Fatalf("compound key did not mitigate skew: %d vs %d", maxRows(compound), maxRows(single))
	}
}

func TestSplitRoundRobin(t *testing.T) {
	r := sample()
	shards := r.SplitRoundRobin(3)
	if shards[0].Rows() != 4 || shards[1].Rows() != 3 || shards[2].Rows() != 3 {
		t.Fatalf("round robin sizes = %d,%d,%d", shards[0].Rows(), shards[1].Rows(), shards[2].Rows())
	}
}

func TestSampleRateAndMinRows(t *testing.T) {
	r := New("t", []string{"a"})
	for i := int64(0); i < 10000; i++ {
		r.AppendRow(i)
	}
	rng := rand.New(rand.NewSource(1))
	s := r.Sample(0.1, 0, rng)
	if s.Rows() < 800 || s.Rows() > 1200 {
		t.Fatalf("10%% sample of 10000 = %d rows", s.Rows())
	}
	// Min-rows floor kicks in for tiny rates.
	s2 := r.Sample(0.0001, 500, rand.New(rand.NewSource(2)))
	if s2.Rows() < 500 {
		t.Fatalf("min-rows floor violated: %d", s2.Rows())
	}
	// A small table is returned (nearly) whole rather than inflated.
	small := sample()
	s3 := small.Sample(0.01, 500, rand.New(rand.NewSource(3)))
	if s3.Rows() > small.Rows() {
		t.Fatalf("sample larger than base: %d", s3.Rows())
	}
}

func TestHashRowDeterministicProperty(t *testing.T) {
	r := New("t", []string{"a", "b"})
	f := func(a, b int64) bool {
		r2 := New("t", []string{"a", "b"})
		r2.AppendRow(a, b)
		r3 := New("t", []string{"a", "b"})
		r3.AppendRow(a, b)
		return r2.HashRow(0, []int{0, 1}) == r3.HashRow(0, []int{0, 1})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	_ = r
}

func TestGrowPreservesData(t *testing.T) {
	r := sample()
	r.Grow(1000)
	if r.Rows() != 10 || r.Col("a")[9] != 9 {
		t.Fatalf("Grow corrupted data")
	}
	r.AppendRow(10, 20)
	if r.Rows() != 11 {
		t.Fatalf("append after Grow failed")
	}
}
