package sqlparse

import (
	"fmt"
	"sort"
	"strings"
	"unicode"

	"partadvisor/internal/schema"
	"partadvisor/internal/stats"
)

// Graph is the flattened, analyzer-verified form of a query: everything a
// partitioning advisor or the execution engine needs. Nested subqueries are
// flattened into the graph with their linking predicates marked as semijoins
// (or antijoins for NOT IN / NOT EXISTS).
type Graph struct {
	// Refs lists the table references (alias -> base table). Aliases are
	// unique across the flattened query; subquery aliases that clash with
	// outer aliases are suffixed with "_s<depth>".
	Refs []TableRef
	// Joins lists the alias-level equi-join predicates.
	Joins []Join
	// Filters lists the executable single-column predicates.
	Filters []Filter
	// Outputs lists the (alias, column) pairs referenced by select lists
	// and GROUP BY clauses. The execution engine materializes them so that
	// shuffled intermediates carry realistic payload widths.
	Outputs []ColumnRef
}

// ColumnRef is a resolved (alias, column) reference.
type ColumnRef struct {
	Alias  string
	Column string
}

// Join is an equi-join predicate between two aliased tables.
type Join struct {
	LeftAlias  string
	LeftCol    string
	RightAlias string
	RightCol   string
	// Semi marks predicates that link a flattened subquery to its outer
	// query (IN / EXISTS); Anti additionally marks negated linkage.
	Semi bool
	Anti bool
}

// String renders the join as "a.x = b.y".
func (j Join) String() string {
	s := fmt.Sprintf("%s.%s = %s.%s", j.LeftAlias, j.LeftCol, j.RightAlias, j.RightCol)
	if j.Anti {
		return s + " [anti]"
	}
	if j.Semi {
		return s + " [semi]"
	}
	return s
}

// Filter is an executable predicate on a single column of one alias.
type Filter struct {
	Alias  string
	Column string
	Op     stats.CompareOp
	Args   []int64
	// Neg complements the predicate (e.g. NOT BETWEEN).
	Neg bool
}

// Table returns the base table of the given alias ("" if unknown).
func (g *Graph) Table(alias string) string {
	for _, r := range g.Refs {
		if r.Alias == alias {
			return r.Table
		}
	}
	return ""
}

// BaseTables returns the sorted, deduplicated base table names.
func (g *Graph) BaseTables() []string {
	set := make(map[string]bool, len(g.Refs))
	for _, r := range g.Refs {
		set[r.Table] = true
	}
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// JoinEdges returns the canonicalized base-table-level join edges of the
// query, deduplicated. These seed the co-partitioning edge set of the
// partitioning design space.
func (g *Graph) JoinEdges() []schema.JoinEdge {
	set := make(map[schema.JoinEdge]bool, len(g.Joins))
	for _, j := range g.Joins {
		lt, rt := g.Table(j.LeftAlias), g.Table(j.RightAlias)
		if lt == "" || rt == "" || lt == rt {
			continue // self-joins cannot guide co-partitioning of two tables
		}
		set[schema.NewJoinEdge(lt, j.LeftCol, rt, j.RightCol)] = true
	}
	edges := make([]schema.JoinEdge, 0, len(set))
	for e := range set {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, k int) bool {
		a, b := edges[i], edges[k]
		if a.Table1 != b.Table1 {
			return a.Table1 < b.Table1
		}
		if a.Attr1 != b.Attr1 {
			return a.Attr1 < b.Attr1
		}
		if a.Table2 != b.Table2 {
			return a.Table2 < b.Table2
		}
		return a.Attr2 < b.Attr2
	})
	return edges
}

// FiltersFor returns the filters applying to one alias.
func (g *Graph) FiltersFor(alias string) []Filter {
	var out []Filter
	for _, f := range g.Filters {
		if f.Alias == alias {
			out = append(out, f)
		}
	}
	return out
}

// Analyze resolves a parsed statement against a schema and flattens it into
// a Graph. It verifies that all tables and columns exist, resolves
// unqualified columns, classifies predicates into joins and filters, and
// recursively flattens IN/EXISTS subqueries (correlated predicates become
// semijoin edges).
func Analyze(stmt *SelectStmt, sch *schema.Schema) (*Graph, error) {
	g := &Graph{}
	a := &analyzer{sch: sch, g: g, usedAliases: make(map[string]bool)}
	if err := a.flatten(stmt, nil, 0); err != nil {
		return nil, err
	}
	return g, nil
}

// ParseAndAnalyze is the one-call front door: parse SQL, then analyze it.
func ParseAndAnalyze(sql string, sch *schema.Schema) (*Graph, error) {
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	return Analyze(stmt, sch)
}

type analyzer struct {
	sch         *schema.Schema
	g           *Graph
	usedAliases map[string]bool
	// lastScope records the scope of the most recently flattened statement,
	// so that subquery linkage can resolve the subquery's projected column.
	lastScope *scope
}

// scope maps the aliases visible at one nesting level, with a link to the
// enclosing scope for correlated references. Each entry remembers the alias
// as written in the SQL (orig) and the globally unique alias used in the
// flattened graph (alias) — they differ when a subquery reuses an alias of
// an enclosing query.
type scopeRef struct {
	orig  string
	alias string
	table string
}

type scope struct {
	refs  []scopeRef
	outer *scope
}

// resolve finds the (globally unique) alias owning the column reference,
// searching the current scope first and then outer scopes (correlation).
func (sc *scope) resolve(c ColRef, sch *schema.Schema) (alias string, err error) {
	for s := sc; s != nil; s = s.outer {
		if c.Qualifier != "" {
			for _, r := range s.refs {
				if r.orig == c.Qualifier {
					if !sch.MustTable(r.table).HasAttribute(c.Column) {
						return "", fmt.Errorf("sqlparse: table %q (alias %q) has no column %q", r.table, r.orig, c.Column)
					}
					return r.alias, nil
				}
			}
			continue
		}
		var found []string
		for _, r := range s.refs {
			if sch.MustTable(r.table).HasAttribute(c.Column) {
				found = append(found, r.alias)
			}
		}
		if len(found) > 1 {
			return "", fmt.Errorf("sqlparse: ambiguous column %q (candidates %v)", c.Column, found)
		}
		if len(found) == 1 {
			return found[0], nil
		}
	}
	if c.Qualifier != "" {
		return "", fmt.Errorf("sqlparse: unknown alias %q", c.Qualifier)
	}
	return "", fmt.Errorf("sqlparse: unknown column %q", c.Column)
}

// flatten adds stmt's tables, joins and filters to the graph. outer is the
// enclosing scope (nil at the top level); depth disambiguates subquery
// aliases. It returns the statement's own scope via the analyzer state so
// that IN-linkage can resolve the projected column.
func (a *analyzer) flatten(stmt *SelectStmt, outer *scope, depth int) error {
	if len(stmt.From) == 0 {
		return fmt.Errorf("sqlparse: query has no FROM clause")
	}
	sc := &scope{outer: outer}
	for _, ref := range stmt.From {
		if a.sch.Table(ref.Table) == nil {
			return fmt.Errorf("sqlparse: unknown table %q", ref.Table)
		}
		// Duplicate aliases within one FROM clause are an error; clashes
		// with enclosing queries are resolved by uniquification.
		for _, prev := range sc.refs {
			if prev.orig == ref.Alias {
				return fmt.Errorf("sqlparse: duplicate alias %q in FROM clause", ref.Alias)
			}
		}
		alias := ref.Alias
		for a.usedAliases[alias] {
			alias = fmt.Sprintf("%s_s%d", ref.Alias, depth)
			if a.usedAliases[alias] {
				alias = fmt.Sprintf("%s_s%d_%d", ref.Alias, depth, len(a.usedAliases))
			}
		}
		a.usedAliases[alias] = true
		sc.refs = append(sc.refs, scopeRef{orig: ref.Alias, alias: alias, table: ref.Table})
		a.g.Refs = append(a.g.Refs, TableRef{Table: ref.Table, Alias: alias})
	}
	for _, item := range stmt.SelectList {
		a.collectOutputCols(item, sc)
	}
	for _, item := range stmt.GroupBy {
		a.collectOutputCols(item, sc)
	}
	if stmt.Where != nil {
		if err := a.walk(stmt.Where, sc, depth, false, false); err != nil {
			return err
		}
	}
	a.lastScope = sc
	return nil
}

// collectOutputCols scans a raw projection/grouping expression for column
// references and records the resolvable ones. Unresolvable identifiers
// (aggregate names, '*', literals) are skipped silently — output columns
// only refine byte accounting and never affect correctness.
func (a *analyzer) collectOutputCols(item string, sc *scope) {
	toks, err := lex(item)
	if err != nil {
		return
	}
	for i := 0; i < len(toks); i++ {
		t := toks[i]
		if t.kind != tokIdent || isReserved(t) {
			continue
		}
		// Function call: skip the function name itself.
		if i+1 < len(toks) && toks[i+1].isSymbol("(") {
			continue
		}
		var ref ColRef
		if i+2 < len(toks) && toks[i+1].isSymbol(".") && toks[i+2].kind == tokIdent {
			ref = ColRef{Qualifier: t.text, Column: toks[i+2].text}
			i += 2
		} else {
			ref = ColRef{Column: t.text}
		}
		alias, err := sc.resolve(ref, a.sch)
		if err != nil {
			continue
		}
		cr := ColumnRef{Alias: alias, Column: ref.Column}
		dup := false
		for _, have := range a.g.Outputs {
			if have == cr {
				dup = true
				break
			}
		}
		if !dup {
			a.g.Outputs = append(a.g.Outputs, cr)
		}
	}
}

func (a *analyzer) walk(e Expr, sc *scope, depth int, semi, anti bool) error {
	switch ex := e.(type) {
	case *AndExpr:
		for _, op := range ex.Operands {
			if err := a.walk(op, sc, depth, semi, anti); err != nil {
				return err
			}
		}
		return nil
	case *OrExpr:
		return a.mergeOr(ex, sc)
	case *NotExpr:
		return a.walkNot(ex.Operand, sc, depth)
	case *CmpExpr:
		return a.addCmp(ex, sc, semi, anti, false)
	case *BetweenExpr:
		alias, err := sc.resolve(ex.Col, a.sch)
		if err != nil {
			return err
		}
		a.g.Filters = append(a.g.Filters, Filter{Alias: alias, Column: ex.Col.Column, Op: stats.OpBetween, Args: []int64{ex.Lo, ex.Hi}})
		return nil
	case *InListExpr:
		alias, err := sc.resolve(ex.Col, a.sch)
		if err != nil {
			return err
		}
		a.g.Filters = append(a.g.Filters, Filter{Alias: alias, Column: ex.Col.Column, Op: stats.OpIn, Args: append([]int64(nil), ex.Vals...)})
		return nil
	case *InSubqueryExpr:
		return a.flattenIn(ex, sc, depth)
	case *ExistsExpr:
		return a.flattenExists(ex, sc, depth)
	}
	return fmt.Errorf("sqlparse: unsupported expression %T", e)
}

// walkNot handles NOT over simple predicates by complementing them.
func (a *analyzer) walkNot(e Expr, sc *scope, depth int) error {
	switch ex := e.(type) {
	case *CmpExpr:
		inv := map[stats.CompareOp]stats.CompareOp{
			stats.OpEq: stats.OpNe, stats.OpNe: stats.OpEq,
			stats.OpLt: stats.OpGe, stats.OpGe: stats.OpLt,
			stats.OpLe: stats.OpGt, stats.OpGt: stats.OpLe,
		}
		return a.addCmp(&CmpExpr{Op: inv[ex.Op], Left: ex.Left, Right: ex.Right}, sc, false, false, false)
	case *BetweenExpr:
		alias, err := sc.resolve(ex.Col, a.sch)
		if err != nil {
			return err
		}
		a.g.Filters = append(a.g.Filters, Filter{Alias: alias, Column: ex.Col.Column, Op: stats.OpBetween, Args: []int64{ex.Lo, ex.Hi}, Neg: true})
		return nil
	case *InListExpr:
		alias, err := sc.resolve(ex.Col, a.sch)
		if err != nil {
			return err
		}
		a.g.Filters = append(a.g.Filters, Filter{Alias: alias, Column: ex.Col.Column, Op: stats.OpIn, Args: append([]int64(nil), ex.Vals...), Neg: true})
		return nil
	}
	return fmt.Errorf("sqlparse: unsupported NOT over %T", e)
}

// addCmp classifies a comparison as a join predicate (col = col) or a filter
// (col op literal).
func (a *analyzer) addCmp(ex *CmpExpr, sc *scope, semi, anti, neg bool) error {
	l, r := ex.Left, ex.Right
	switch {
	case l.IsCol() && r.IsCol():
		la, err := sc.resolve(*l.Col, a.sch)
		if err != nil {
			return err
		}
		ra, err := sc.resolve(*r.Col, a.sch)
		if err != nil {
			return err
		}
		if la == ra {
			// Same-alias column comparisons (e.g. TPC-H Q21's
			// l_receiptdate > l_commitdate) are row-local filters; they
			// never influence partitioning and are dropped from the graph.
			return nil
		}
		if ex.Op != stats.OpEq {
			return fmt.Errorf("sqlparse: only equality joins are supported, found %v", ex.Op)
		}
		a.g.Joins = append(a.g.Joins, Join{LeftAlias: la, LeftCol: l.Col.Column, RightAlias: ra, RightCol: r.Col.Column, Semi: semi || anti, Anti: anti})
		return nil
	case l.IsCol():
		alias, err := sc.resolve(*l.Col, a.sch)
		if err != nil {
			return err
		}
		a.g.Filters = append(a.g.Filters, Filter{Alias: alias, Column: l.Col.Column, Op: ex.Op, Args: []int64{r.Value}, Neg: neg})
		return nil
	case r.IsCol():
		// literal op col: flip the operator.
		flip := map[stats.CompareOp]stats.CompareOp{
			stats.OpEq: stats.OpEq, stats.OpNe: stats.OpNe,
			stats.OpLt: stats.OpGt, stats.OpGt: stats.OpLt,
			stats.OpLe: stats.OpGe, stats.OpGe: stats.OpLe,
		}
		alias, err := sc.resolve(*r.Col, a.sch)
		if err != nil {
			return err
		}
		a.g.Filters = append(a.g.Filters, Filter{Alias: alias, Column: r.Col.Column, Op: flip[ex.Op], Args: []int64{l.Value}, Neg: neg})
		return nil
	}
	return fmt.Errorf("sqlparse: comparison between two literals")
}

// mergeOr supports the common OLAP disjunction pattern: OR of equality /
// IN-list predicates over the same column, merged into a single IN filter.
// Any other disjunction is rejected (the benchmark workloads do not need
// it, and silently mis-modeling a disjunction would corrupt selectivities).
func (a *analyzer) mergeOr(or *OrExpr, sc *scope) error {
	var col *ColRef
	var vals []int64
	for _, op := range or.Operands {
		switch ex := op.(type) {
		case *CmpExpr:
			if ex.Op != stats.OpEq || !ex.Left.IsCol() || ex.Right.IsCol() {
				return fmt.Errorf("sqlparse: unsupported OR operand (want column = literal)")
			}
			if col == nil {
				col = ex.Left.Col
			} else if col.Qualifier != ex.Left.Col.Qualifier || col.Column != ex.Left.Col.Column {
				return fmt.Errorf("sqlparse: OR across different columns is unsupported")
			}
			vals = append(vals, ex.Right.Value)
		case *InListExpr:
			if col == nil {
				col = &ex.Col
			} else if col.Qualifier != ex.Col.Qualifier || col.Column != ex.Col.Column {
				return fmt.Errorf("sqlparse: OR across different columns is unsupported")
			}
			vals = append(vals, ex.Vals...)
		default:
			return fmt.Errorf("sqlparse: unsupported OR operand %T", op)
		}
	}
	alias, err := sc.resolve(*col, a.sch)
	if err != nil {
		return err
	}
	a.g.Filters = append(a.g.Filters, Filter{Alias: alias, Column: col.Column, Op: stats.OpIn, Args: vals})
	return nil
}

// flattenIn flattens "col [NOT] IN (SELECT x FROM ...)" by inlining the
// subquery and adding the semijoin edge col = x.
func (a *analyzer) flattenIn(ex *InSubqueryExpr, sc *scope, depth int) error {
	outerAlias, err := sc.resolve(ex.Col, a.sch)
	if err != nil {
		return err
	}
	if len(ex.Sub.SelectList) != 1 {
		return fmt.Errorf("sqlparse: IN-subquery must project exactly one column")
	}
	projCol, err := parseProjectedColumn(ex.Sub.SelectList[0])
	if err != nil {
		return err
	}
	if err := a.flatten(ex.Sub, sc, depth+1); err != nil {
		return err
	}
	subScope := a.lastScope
	subAlias, err := subScope.resolve(projCol, a.sch)
	if err != nil {
		return err
	}
	a.g.Joins = append(a.g.Joins, Join{
		LeftAlias: outerAlias, LeftCol: ex.Col.Column,
		RightAlias: subAlias, RightCol: projCol.Column,
		Semi: true, Anti: ex.Not,
	})
	return nil
}

// flattenExists flattens "[NOT] EXISTS (SELECT ...)": the subquery's tables
// are inlined; its correlated predicates (already resolvable against the
// outer scope) become the semijoin linkage.
func (a *analyzer) flattenExists(ex *ExistsExpr, sc *scope, depth int) error {
	before := len(a.g.Joins)
	if err := a.flatten(ex.Sub, sc, depth+1); err != nil {
		return err
	}
	subScope := a.lastScope
	subAliases := make(map[string]bool, len(subScope.refs))
	for _, r := range subScope.refs {
		subAliases[r.alias] = true
	}
	linked := false
	for i := before; i < len(a.g.Joins); i++ {
		j := &a.g.Joins[i]
		crossing := subAliases[j.LeftAlias] != subAliases[j.RightAlias]
		if crossing {
			// Normalize semijoin linkage so the outer (surviving) side is
			// always on the left — the executor relies on this orientation.
			if subAliases[j.LeftAlias] {
				j.LeftAlias, j.RightAlias = j.RightAlias, j.LeftAlias
				j.LeftCol, j.RightCol = j.RightCol, j.LeftCol
			}
			j.Semi = true
			j.Anti = ex.Not
			linked = true
		}
	}
	if !linked {
		return fmt.Errorf("sqlparse: EXISTS subquery is uncorrelated (no predicate links it to the outer query)")
	}
	return nil
}

// parseProjectedColumn parses a projection item text ("x" or "t.x") into a
// column reference.
func parseProjectedColumn(item string) (ColRef, error) {
	parts := strings.Split(strings.TrimSpace(item), ".")
	switch len(parts) {
	case 1:
		if !isSimpleIdent(parts[0]) {
			return ColRef{}, fmt.Errorf("sqlparse: IN-subquery must project a simple column, got %q", item)
		}
		return ColRef{Column: strings.TrimSpace(parts[0])}, nil
	case 2:
		q, c := strings.TrimSpace(parts[0]), strings.TrimSpace(parts[1])
		if !isSimpleIdent(q) || !isSimpleIdent(c) {
			return ColRef{}, fmt.Errorf("sqlparse: IN-subquery must project a simple column, got %q", item)
		}
		return ColRef{Qualifier: q, Column: c}, nil
	}
	return ColRef{}, fmt.Errorf("sqlparse: IN-subquery must project a simple column, got %q", item)
}

func isSimpleIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		ok := r == '_' || unicode.IsLetter(r) || (i > 0 && unicode.IsDigit(r))
		if !ok {
			return false
		}
	}
	return true
}
