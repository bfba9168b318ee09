package sqlparse

import (
	"strings"
	"testing"

	"partadvisor/internal/schema"
	"partadvisor/internal/stats"
)

// analyzeSchema is a small TPC-C-flavoured schema exercising joins, nesting
// and correlation.
func analyzeSchema() *schema.Schema {
	attr := func(names ...string) []schema.Attribute {
		out := make([]schema.Attribute, len(names))
		for i, n := range names {
			out[i] = schema.Attribute{Name: n, Width: 8}
		}
		return out
	}
	return schema.New("mini",
		[]*schema.Table{
			{Name: "orders", Attributes: attr("o_id", "o_c_id", "o_date"), PrimaryKey: []string{"o_id"}},
			{Name: "orderline", Attributes: attr("ol_o_id", "ol_i_id", "ol_amount"), PrimaryKey: []string{"ol_o_id"}},
			{Name: "customer", Attributes: attr("c_id", "c_region"), PrimaryKey: []string{"c_id"}},
			{Name: "item", Attributes: attr("i_id", "i_price"), PrimaryKey: []string{"i_id"}},
		},
		[]schema.ForeignKey{
			{FromTable: "orders", FromAttr: "o_c_id", ToTable: "customer", ToAttr: "c_id"},
			{FromTable: "orderline", FromAttr: "ol_o_id", ToTable: "orders", ToAttr: "o_id"},
			{FromTable: "orderline", FromAttr: "ol_i_id", ToTable: "item", ToAttr: "i_id"},
		},
	)
}

func mustAnalyze(t *testing.T, sql string) *Graph {
	t.Helper()
	g, err := ParseAndAnalyze(sql, analyzeSchema())
	if err != nil {
		t.Fatalf("ParseAndAnalyze(%q): %v", sql, err)
	}
	return g
}

func TestAnalyzeJoinAndFilter(t *testing.T) {
	g := mustAnalyze(t, "SELECT * FROM orders o, customer c WHERE o.o_c_id = c.c_id AND c.c_region = 3")
	if len(g.Refs) != 2 {
		t.Fatalf("Refs = %v", g.Refs)
	}
	if len(g.Joins) != 1 {
		t.Fatalf("Joins = %v", g.Joins)
	}
	j := g.Joins[0]
	if j.Semi || j.Anti {
		t.Fatalf("plain join marked semi/anti: %v", j)
	}
	if j.LeftAlias != "o" || j.RightAlias != "c" {
		t.Fatalf("join aliases = %v", j)
	}
	if len(g.Filters) != 1 || g.Filters[0].Alias != "c" || g.Filters[0].Op != stats.OpEq {
		t.Fatalf("Filters = %v", g.Filters)
	}
}

func TestAnalyzeUnqualifiedColumns(t *testing.T) {
	g := mustAnalyze(t, "SELECT * FROM orders, customer WHERE o_c_id = c_id AND c_region > 2")
	if len(g.Joins) != 1 {
		t.Fatalf("Joins = %v", g.Joins)
	}
	if g.Joins[0].LeftAlias != "orders" || g.Joins[0].RightAlias != "customer" {
		t.Fatalf("join = %v", g.Joins[0])
	}
	if g.Filters[0].Alias != "customer" {
		t.Fatalf("filter alias = %v", g.Filters[0])
	}
}

func TestAnalyzeAmbiguousColumn(t *testing.T) {
	sch := schema.New("amb",
		[]*schema.Table{
			{Name: "a", Attributes: []schema.Attribute{{Name: "x", Width: 8}}},
			{Name: "b", Attributes: []schema.Attribute{{Name: "x", Width: 8}}},
		}, nil)
	_, err := ParseAndAnalyze("SELECT * FROM a, b WHERE x = 1", sch)
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Fatalf("want ambiguity error, got %v", err)
	}
}

func TestAnalyzeUnknownTableAndColumn(t *testing.T) {
	if _, err := ParseAndAnalyze("SELECT * FROM nosuch", analyzeSchema()); err == nil {
		t.Fatalf("unknown table accepted")
	}
	if _, err := ParseAndAnalyze("SELECT * FROM orders WHERE nope = 1", analyzeSchema()); err == nil {
		t.Fatalf("unknown column accepted")
	}
	if _, err := ParseAndAnalyze("SELECT * FROM orders o WHERE o.nope = 1", analyzeSchema()); err == nil {
		t.Fatalf("unknown qualified column accepted")
	}
	if _, err := ParseAndAnalyze("SELECT * FROM orders o WHERE z.o_id = 1", analyzeSchema()); err == nil {
		t.Fatalf("unknown alias accepted")
	}
}

func TestAnalyzeDuplicateAlias(t *testing.T) {
	_, err := ParseAndAnalyze("SELECT * FROM orders o, customer o", analyzeSchema())
	if err == nil || !strings.Contains(err.Error(), "duplicate alias") {
		t.Fatalf("want duplicate-alias error, got %v", err)
	}
}

func TestAnalyzeInSubquery(t *testing.T) {
	g := mustAnalyze(t, `SELECT * FROM customer c
		WHERE c.c_id IN (SELECT o.o_c_id FROM orders o WHERE o.o_date > 20200101)`)
	if len(g.Refs) != 2 {
		t.Fatalf("Refs = %v", g.Refs)
	}
	if len(g.Joins) != 1 {
		t.Fatalf("Joins = %v", g.Joins)
	}
	j := g.Joins[0]
	if !j.Semi || j.Anti {
		t.Fatalf("IN linkage should be semi: %v", j)
	}
	if j.LeftAlias != "c" || j.LeftCol != "c_id" || j.RightCol != "o_c_id" {
		t.Fatalf("linkage = %v", j)
	}
	if len(g.Filters) != 1 || g.Filters[0].Alias != "o" {
		t.Fatalf("subquery filter lost: %v", g.Filters)
	}
}

func TestAnalyzeNotInSubquery(t *testing.T) {
	g := mustAnalyze(t, "SELECT * FROM customer c WHERE c.c_id NOT IN (SELECT o_c_id FROM orders)")
	if len(g.Joins) != 1 || !g.Joins[0].Anti || !g.Joins[0].Semi {
		t.Fatalf("NOT IN linkage = %v", g.Joins)
	}
}

func TestAnalyzeExistsCorrelated(t *testing.T) {
	g := mustAnalyze(t, `SELECT * FROM orders o
		WHERE EXISTS (SELECT ol_o_id FROM orderline ol WHERE ol.ol_o_id = o.o_id AND ol.ol_amount > 100)`)
	if len(g.Joins) != 1 {
		t.Fatalf("Joins = %v", g.Joins)
	}
	if !g.Joins[0].Semi {
		t.Fatalf("EXISTS linkage should be semi: %v", g.Joins[0])
	}
	if len(g.Filters) != 1 || g.Filters[0].Alias != "ol" {
		t.Fatalf("Filters = %v", g.Filters)
	}
}

func TestAnalyzeUncorrelatedExistsRejected(t *testing.T) {
	_, err := ParseAndAnalyze("SELECT * FROM orders WHERE EXISTS (SELECT i_id FROM item)", analyzeSchema())
	if err == nil || !strings.Contains(err.Error(), "uncorrelated") {
		t.Fatalf("want uncorrelated error, got %v", err)
	}
}

func TestAnalyzeNestedTwoLevels(t *testing.T) {
	g := mustAnalyze(t, `SELECT * FROM customer c WHERE c.c_id IN (
		SELECT o.o_c_id FROM orders o WHERE o.o_id IN (
			SELECT ol.ol_o_id FROM orderline ol WHERE ol.ol_amount > 50))`)
	if len(g.Refs) != 3 {
		t.Fatalf("Refs = %v", g.Refs)
	}
	if len(g.Joins) != 2 {
		t.Fatalf("Joins = %v", g.Joins)
	}
	for _, j := range g.Joins {
		if !j.Semi {
			t.Fatalf("nested linkage not semi: %v", j)
		}
	}
}

func TestAnalyzeAliasUniquification(t *testing.T) {
	// The IN-subquery reuses alias "o"; graph aliases must stay unique and
	// (per SQL scoping) the inner references bind to the inner, renamed o.
	g := mustAnalyze(t, `SELECT * FROM orders o WHERE o.o_id IN (
		SELECT ol.ol_o_id FROM orderline ol, orders o WHERE ol.ol_o_id = o.o_id AND o.o_date > 5)`)
	seen := make(map[string]bool)
	for _, r := range g.Refs {
		if seen[r.Alias] {
			t.Fatalf("duplicate alias %q in graph refs %v", r.Alias, g.Refs)
		}
		seen[r.Alias] = true
	}
	if len(g.Refs) != 3 {
		t.Fatalf("Refs = %v", g.Refs)
	}
	// The filter o.o_date > 5 inside the subquery must bind to the inner
	// (renamed) orders alias, not to the outer "o".
	var filterAlias string
	for _, f := range g.Filters {
		if f.Column == "o_date" {
			filterAlias = f.Alias
		}
	}
	if filterAlias != "o_s1" {
		t.Fatalf("inner filter bound to %q, want o_s1 (refs %v)", filterAlias, g.Refs)
	}
}

func TestAnalyzeOrMergesToIn(t *testing.T) {
	g := mustAnalyze(t, "SELECT * FROM item WHERE i_price = 1 OR i_price = 2 OR i_price IN (3, 4)")
	if len(g.Filters) != 1 {
		t.Fatalf("Filters = %v", g.Filters)
	}
	f := g.Filters[0]
	if f.Op != stats.OpIn || len(f.Args) != 4 {
		t.Fatalf("merged filter = %v", f)
	}
}

func TestAnalyzeOrAcrossColumnsRejected(t *testing.T) {
	_, err := ParseAndAnalyze("SELECT * FROM item WHERE i_price = 1 OR i_id = 2", analyzeSchema())
	if err == nil || !strings.Contains(err.Error(), "OR") {
		t.Fatalf("want OR error, got %v", err)
	}
	_, err = ParseAndAnalyze("SELECT * FROM item WHERE i_price = 1 OR i_price > 2", analyzeSchema())
	if err == nil {
		t.Fatalf("want OR error for non-equality operand")
	}
}

func TestAnalyzeNotVariants(t *testing.T) {
	g := mustAnalyze(t, "SELECT * FROM item WHERE NOT i_price = 5 AND NOT i_price BETWEEN 1 AND 3 AND i_price NOT IN (7, 8)")
	if len(g.Filters) != 3 {
		t.Fatalf("Filters = %v", g.Filters)
	}
	if g.Filters[0].Op != stats.OpNe {
		t.Fatalf("NOT = should become <>: %v", g.Filters[0])
	}
	if !g.Filters[1].Neg || g.Filters[1].Op != stats.OpBetween {
		t.Fatalf("NOT BETWEEN should be negated filter: %v", g.Filters[1])
	}
	if !g.Filters[2].Neg || g.Filters[2].Op != stats.OpIn {
		t.Fatalf("NOT IN list should be negated filter: %v", g.Filters[2])
	}
	if a := g.Filters[1].Args; len(a) != 2 || a[0] != 1 || a[1] != 3 {
		t.Fatalf("NOT BETWEEN bounds = %v, want [1 3]", a)
	}
}

func TestAnalyzeLiteralComparisonRejected(t *testing.T) {
	if _, err := ParseAndAnalyze("SELECT * FROM item WHERE 1 = 2", analyzeSchema()); err == nil {
		t.Fatalf("literal-literal comparison accepted")
	}
}

func TestAnalyzeNonEquiJoinRejected(t *testing.T) {
	_, err := ParseAndAnalyze("SELECT * FROM orders o, customer c WHERE o.o_c_id > c.c_id", analyzeSchema())
	if err == nil || !strings.Contains(err.Error(), "equality joins") {
		t.Fatalf("want equi-join error, got %v", err)
	}
}

func TestAnalyzeSameAliasEqualityDropped(t *testing.T) {
	g := mustAnalyze(t, "SELECT * FROM orders o WHERE o.o_id = o.o_c_id")
	if len(g.Joins) != 0 || len(g.Filters) != 0 {
		t.Fatalf("same-alias equality should be dropped: joins=%v filters=%v", g.Joins, g.Filters)
	}
}

func TestGraphAccessors(t *testing.T) {
	g := mustAnalyze(t, `SELECT * FROM orders o, orderline ol, item i
		WHERE ol.ol_o_id = o.o_id AND ol.ol_i_id = i.i_id AND i.i_price > 10`)
	bt := g.BaseTables()
	if len(bt) != 3 || bt[0] != "item" || bt[1] != "orderline" || bt[2] != "orders" {
		t.Fatalf("BaseTables = %v", bt)
	}
	edges := g.JoinEdges()
	if len(edges) != 2 {
		t.Fatalf("JoinEdges = %v", edges)
	}
	if g.Table("ol") != "orderline" || g.Table("zz") != "" {
		t.Fatalf("Table lookup broken")
	}
	if got := g.FiltersFor("i"); len(got) != 1 {
		t.Fatalf("FiltersFor(i) = %v", got)
	}
	if got := g.FiltersFor("o"); len(got) != 0 {
		t.Fatalf("FiltersFor(o) = %v", got)
	}
}

func TestJoinString(t *testing.T) {
	j := Join{LeftAlias: "a", LeftCol: "x", RightAlias: "b", RightCol: "y"}
	if got := j.String(); got != "a.x = b.y" {
		t.Fatalf("String = %q", got)
	}
	j.Semi = true
	if got := j.String(); !strings.Contains(got, "semi") {
		t.Fatalf("semi String = %q", got)
	}
	j.Anti = true
	if got := j.String(); !strings.Contains(got, "anti") {
		t.Fatalf("anti String = %q", got)
	}
}

func TestAnalyzeSelfJoinEdgesExcluded(t *testing.T) {
	g := mustAnalyze(t, "SELECT * FROM orders o1, orders o2 WHERE o1.o_c_id = o2.o_id")
	if len(g.Joins) != 1 {
		t.Fatalf("Joins = %v", g.Joins)
	}
	if edges := g.JoinEdges(); len(edges) != 0 {
		t.Fatalf("self-join produced co-partitioning edges: %v", edges)
	}
}

func TestAnalyzeIsNullNoop(t *testing.T) {
	g := mustAnalyze(t, "SELECT * FROM item WHERE i_price IS NOT NULL")
	if len(g.Filters) != 1 {
		t.Fatalf("Filters = %v", g.Filters)
	}
	// What the filter keeps is the scan kernel's to say (exec's
	// TestScanFilterFromSQL); here only its form.
	if f := g.Filters[0]; f.Op != stats.OpGe || len(f.Args) != 1 || f.Args[0] != -(1<<62) || f.Neg {
		t.Fatalf("IS NOT NULL noop filter = %+v, want >= -2^62", f)
	}
}
