package schema

import (
	"strings"
	"testing"
	"testing/quick"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	return New("test",
		[]*Table{
			{
				Name: "lineorder",
				Attributes: []Attribute{
					{Name: "lo_key", Width: 8},
					{Name: "lo_custkey", Width: 8},
					{Name: "lo_partkey", Width: 8},
					{Name: "lo_revenue", Width: 8},
				},
				PrimaryKey: []string{"lo_key"},
			},
			{
				Name: "customer",
				Attributes: []Attribute{
					{Name: "c_custkey", Width: 8},
					{Name: "c_region", Width: 16},
				},
				PrimaryKey: []string{"c_custkey"},
			},
			{
				Name: "part",
				Attributes: []Attribute{
					{Name: "p_partkey", Width: 8},
					{Name: "p_brand", Width: 16},
				},
				PrimaryKey:   []string{"p_partkey"},
				CompoundKeys: [][]string{{"p_partkey", "p_brand"}},
			},
		},
		[]ForeignKey{
			{FromTable: "lineorder", FromAttr: "lo_custkey", ToTable: "customer", ToAttr: "c_custkey"},
			{FromTable: "lineorder", FromAttr: "lo_partkey", ToTable: "part", ToAttr: "p_partkey"},
		},
	)
}

func TestValidateAccepts(t *testing.T) {
	s := testSchema(t)
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		tables []*Table
		fks    []ForeignKey
		want   string
	}{
		{
			name:   "duplicate table",
			tables: []*Table{{Name: "t", Attributes: []Attribute{{Name: "a", Width: 8}}}, {Name: "t", Attributes: []Attribute{{Name: "a", Width: 8}}}},
			want:   "duplicate table",
		},
		{
			name:   "duplicate attribute",
			tables: []*Table{{Name: "t", Attributes: []Attribute{{Name: "a", Width: 8}, {Name: "a", Width: 8}}}},
			want:   "duplicate attribute",
		},
		{
			name:   "zero width",
			tables: []*Table{{Name: "t", Attributes: []Attribute{{Name: "a", Width: 0}}}},
			want:   "non-positive width",
		},
		{
			name:   "bad primary key",
			tables: []*Table{{Name: "t", Attributes: []Attribute{{Name: "a", Width: 8}}, PrimaryKey: []string{"b"}}},
			want:   "primary key",
		},
		{
			name:   "short compound key",
			tables: []*Table{{Name: "t", Attributes: []Attribute{{Name: "a", Width: 8}}, CompoundKeys: [][]string{{"a"}}}},
			want:   "compound key",
		},
		{
			name:   "fk unknown table",
			tables: []*Table{{Name: "t", Attributes: []Attribute{{Name: "a", Width: 8}}}},
			fks:    []ForeignKey{{FromTable: "x", FromAttr: "a", ToTable: "t", ToAttr: "a"}},
			want:   "unknown table",
		},
		{
			name:   "fk unknown attribute",
			tables: []*Table{{Name: "t", Attributes: []Attribute{{Name: "a", Width: 8}}}, {Name: "u", Attributes: []Attribute{{Name: "b", Width: 8}}}},
			fks:    []ForeignKey{{FromTable: "t", FromAttr: "z", ToTable: "u", ToAttr: "b"}},
			want:   "unknown attribute",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := &Schema{Name: "bad", Tables: tc.tables, ForeignKeys: tc.fks}
			err := s.Validate()
			if err == nil {
				t.Fatalf("Validate accepted invalid schema")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("New did not panic on invalid schema")
		}
	}()
	New("bad", []*Table{{Name: ""}}, nil)
}

func TestTableLookup(t *testing.T) {
	s := testSchema(t)
	if s.Table("customer") == nil {
		t.Fatalf("Table(customer) = nil")
	}
	if s.Table("nope") != nil {
		t.Fatalf("Table(nope) != nil")
	}
	if got := s.TableNames(); len(got) != 3 || got[0] != "lineorder" {
		t.Fatalf("TableNames = %v", got)
	}
}

func TestMustTablePanics(t *testing.T) {
	s := testSchema(t)
	defer func() {
		if recover() == nil {
			t.Fatalf("MustTable did not panic for missing table")
		}
	}()
	s.MustTable("missing")
}

func TestAttributeHelpers(t *testing.T) {
	s := testSchema(t)
	lo := s.MustTable("lineorder")
	if !lo.HasAttribute("lo_custkey") {
		t.Fatalf("HasAttribute(lo_custkey) = false")
	}
	if lo.HasAttribute("nope") {
		t.Fatalf("HasAttribute(nope) = true")
	}
	if got := lo.AttributeIndex("lo_partkey"); got != 2 {
		t.Fatalf("AttributeIndex = %d, want 2", got)
	}
	if got := lo.RowWidth(); got != 32 {
		t.Fatalf("RowWidth = %d, want 32", got)
	}
	cust := s.MustTable("customer")
	if got := cust.RowWidth(); got != 24 {
		t.Fatalf("customer RowWidth = %d, want 24", got)
	}
}

func TestJoinEdgeCanonicalization(t *testing.T) {
	e1 := NewJoinEdge("b", "x", "a", "y")
	e2 := NewJoinEdge("a", "y", "b", "x")
	if e1 != e2 {
		t.Fatalf("canonicalization mismatch: %v vs %v", e1, e2)
	}
	if e1.Table1 != "a" {
		t.Fatalf("Table1 = %q, want a", e1.Table1)
	}
	// Self-join edge ordering by attribute.
	e3 := NewJoinEdge("t", "z", "t", "a")
	if e3.Attr1 != "a" || e3.Attr2 != "z" {
		t.Fatalf("self-join canonicalization = %v", e3)
	}
}

func TestJoinEdgeCanonicalizationProperty(t *testing.T) {
	// Property: NewJoinEdge is symmetric in its endpoint arguments.
	f := func(t1, a1, t2, a2 string) bool {
		return NewJoinEdge(t1, a1, t2, a2) == NewJoinEdge(t2, a2, t1, a1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestJoinEdgeAccessors(t *testing.T) {
	e := NewJoinEdge("customer", "c_custkey", "lineorder", "lo_custkey")
	if !e.Touches("customer") || !e.Touches("lineorder") || e.Touches("part") {
		t.Fatalf("Touches misbehaves: %v", e)
	}
	a, ok := e.AttrFor("lineorder")
	if !ok || a != "lo_custkey" {
		t.Fatalf("AttrFor(lineorder) = %q, %v", a, ok)
	}
	if _, ok := e.AttrFor("part"); ok {
		t.Fatalf("AttrFor(part) reported ok")
	}
	ot, oa, ok := e.Other("customer")
	if !ok || ot != "lineorder" || oa != "lo_custkey" {
		t.Fatalf("Other(customer) = %q.%q, %v", ot, oa, ok)
	}
	if _, _, ok := e.Other("part"); ok {
		t.Fatalf("Other(part) reported ok")
	}
	if got := e.String(); got != "customer.c_custkey = lineorder.lo_custkey" {
		t.Fatalf("String = %q", got)
	}
}

func TestForeignKeyEdges(t *testing.T) {
	s := testSchema(t)
	edges := s.ForeignKeyEdges()
	if len(edges) != 2 {
		t.Fatalf("ForeignKeyEdges = %v, want 2 edges", edges)
	}
	// Canonical order: customer edge before part edge (customer < lineorder < part).
	want0 := NewJoinEdge("lineorder", "lo_custkey", "customer", "c_custkey")
	want1 := NewJoinEdge("lineorder", "lo_partkey", "part", "p_partkey")
	if edges[0] != want0 || edges[1] != want1 {
		t.Fatalf("ForeignKeyEdges order = %v", edges)
	}
}

func TestForeignKeyEdgesDeduplicate(t *testing.T) {
	s := New("dup",
		[]*Table{
			{Name: "a", Attributes: []Attribute{{Name: "x", Width: 8}}},
			{Name: "b", Attributes: []Attribute{{Name: "y", Width: 8}}},
		},
		[]ForeignKey{
			{FromTable: "a", FromAttr: "x", ToTable: "b", ToAttr: "y"},
			{FromTable: "b", FromAttr: "y", ToTable: "a", ToAttr: "x"},
		},
	)
	if got := s.ForeignKeyEdges(); len(got) != 1 {
		t.Fatalf("expected dedup to 1 edge, got %v", got)
	}
}

func TestMergeEdges(t *testing.T) {
	a := []JoinEdge{NewJoinEdge("t", "a", "u", "b")}
	b := []JoinEdge{NewJoinEdge("u", "b", "t", "a"), NewJoinEdge("t", "a", "v", "c")}
	got := MergeEdges(a, b)
	if len(got) != 2 {
		t.Fatalf("MergeEdges = %v, want 2 edges", got)
	}
}

func TestSchemaString(t *testing.T) {
	s := testSchema(t)
	str := s.String()
	for _, want := range []string{"schema test", "lineorder", "customer", "part"} {
		if !strings.Contains(str, want) {
			t.Fatalf("String() missing %q: %s", want, str)
		}
	}
}
