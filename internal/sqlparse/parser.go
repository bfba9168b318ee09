package sqlparse

import (
	"fmt"
	"strconv"
	"strings"

	"partadvisor/internal/stats"
	"partadvisor/internal/valenc"
)

// Parse parses one SELECT statement (optionally ';'-terminated).
func Parse(sql string) (*SelectStmt, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	stmt, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if p.cur().isSymbol(";") {
		p.next()
	}
	if p.cur().kind != tokEOF {
		return nil, p.errf("trailing input %q", p.cur().text)
	}
	return stmt, nil
}

type parser struct {
	toks []token
	pos  int
}

func (p *parser) cur() token { return p.toks[p.pos] }
func (p *parser) peek() token { // token after cur
	if p.pos+1 < len(p.toks) {
		return p.toks[p.pos+1]
	}
	return p.toks[len(p.toks)-1]
}
func (p *parser) next() token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("sqlparse: offset %d: %s", p.cur().pos, fmt.Sprintf(format, args...))
}

func (p *parser) expectKeyword(kw string) error {
	if !p.cur().isKeyword(kw) {
		return p.errf("expected %s, found %q", kw, p.cur().text)
	}
	p.next()
	return nil
}

func (p *parser) expectSymbol(s string) error {
	if !p.cur().isSymbol(s) {
		return p.errf("expected %q, found %q", s, p.cur().text)
	}
	p.next()
	return nil
}

// reservedAfterRef lists keywords that terminate a table reference or
// clause, so that bare identifiers are not swallowed as aliases.
var reservedAfterRef = []string{
	"where", "group", "order", "having", "limit", "join", "inner", "left",
	"right", "full", "on", "and", "or", "as", "from", "select", "union",
}

func isReserved(t token) bool {
	for _, kw := range reservedAfterRef {
		if t.isKeyword(kw) {
			return true
		}
	}
	return false
}

// parseSelect parses SELECT ... FROM ... [WHERE ...] [GROUP BY ...]
// [HAVING ...] [ORDER BY ...] [LIMIT n].
func (p *parser) parseSelect() (*SelectStmt, error) {
	if err := p.expectKeyword("select"); err != nil {
		return nil, err
	}
	stmt := &SelectStmt{Limit: -1}
	items, err := p.scanSelectList()
	if err != nil {
		return nil, err
	}
	stmt.SelectList = items
	if err := p.expectKeyword("from"); err != nil {
		return nil, err
	}
	if err := p.parseFrom(stmt); err != nil {
		return nil, err
	}
	if p.cur().isKeyword("where") {
		p.next()
		w, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		// Merge with any ON-clause joins already collected in Where.
		if stmt.Where != nil {
			stmt.Where = &AndExpr{Operands: []Expr{stmt.Where, w}}
		} else {
			stmt.Where = w
		}
	}
	if p.cur().isKeyword("group") {
		p.next()
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		cols, err := p.scanExprList()
		if err != nil {
			return nil, err
		}
		stmt.GroupBy = cols
	}
	if p.cur().isKeyword("having") {
		// HAVING applies to aggregates and never affects partitioning:
		// skip its condition with balanced parentheses.
		p.next()
		p.skipUntilClause()
	}
	if p.cur().isKeyword("order") {
		p.next()
		if err := p.expectKeyword("by"); err != nil {
			return nil, err
		}
		cols, err := p.scanExprList()
		if err != nil {
			return nil, err
		}
		stmt.OrderBy = cols
	}
	if p.cur().isKeyword("limit") {
		p.next()
		if p.cur().kind != tokNumber {
			return nil, p.errf("expected number after LIMIT")
		}
		v, err := strconv.ParseInt(p.next().text, 10, 64)
		if err != nil {
			return nil, p.errf("bad LIMIT value: %v", err)
		}
		stmt.Limit = v
	}
	return stmt, nil
}

// scanSelectList collects the raw text of projection items up to the
// top-level FROM keyword, respecting parenthesis nesting (so aggregate calls
// and arithmetic pass through).
func (p *parser) scanSelectList() ([]string, error) {
	var items []string
	var b strings.Builder
	depth := 0
	for {
		t := p.cur()
		if t.kind == tokEOF {
			return nil, p.errf("unexpected end of input in select list")
		}
		if depth == 0 && t.isKeyword("from") {
			break
		}
		if depth == 0 && t.isSymbol(",") {
			items = append(items, strings.TrimSpace(b.String()))
			b.Reset()
			p.next()
			continue
		}
		if t.isSymbol("(") {
			depth++
		}
		if t.isSymbol(")") {
			depth--
			if depth < 0 {
				return nil, p.errf("unbalanced ')' in select list")
			}
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		if t.kind == tokString {
			b.WriteString("'" + t.text + "'")
		} else {
			b.WriteString(t.text)
		}
		p.next()
	}
	if s := strings.TrimSpace(b.String()); s != "" {
		items = append(items, s)
	}
	if len(items) == 0 {
		return nil, p.errf("empty select list")
	}
	return items, nil
}

// scanExprList collects comma-separated raw expression texts until a clause
// keyword, ')' at depth 0, ';' or EOF.
func (p *parser) scanExprList() ([]string, error) {
	var items []string
	var b strings.Builder
	depth := 0
	flush := func() {
		if s := strings.TrimSpace(b.String()); s != "" {
			items = append(items, s)
		}
		b.Reset()
	}
	for {
		t := p.cur()
		if t.kind == tokEOF || t.isSymbol(";") {
			break
		}
		if depth == 0 && (t.isKeyword("group") || t.isKeyword("order") || t.isKeyword("having") || t.isKeyword("limit") || t.isSymbol(")")) {
			break
		}
		if depth == 0 && t.isSymbol(",") {
			flush()
			p.next()
			continue
		}
		if t.isSymbol("(") {
			depth++
		}
		if t.isSymbol(")") {
			depth--
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(t.text)
		p.next()
	}
	flush()
	return items, nil
}

// skipUntilClause skips tokens (with balanced parentheses) until the next
// top-level clause keyword, ')' at depth 0, ';' or EOF.
func (p *parser) skipUntilClause() {
	depth := 0
	for {
		t := p.cur()
		if t.kind == tokEOF || t.isSymbol(";") {
			return
		}
		if depth == 0 && (t.isKeyword("group") || t.isKeyword("order") || t.isKeyword("limit") || t.isSymbol(")")) {
			return
		}
		if t.isSymbol("(") {
			depth++
		}
		if t.isSymbol(")") {
			depth--
		}
		p.next()
	}
}

// parseFrom parses the FROM clause: comma-separated table references with
// optional [INNER|LEFT|RIGHT|FULL] JOIN ... ON ... chains. ON conditions are
// accumulated into stmt.Where.
func (p *parser) parseFrom(stmt *SelectStmt) error {
	for {
		ref, err := p.parseTableRef()
		if err != nil {
			return err
		}
		stmt.From = append(stmt.From, ref)
		// JOIN chains.
		for {
			if p.cur().isKeyword("inner") || p.cur().isKeyword("left") || p.cur().isKeyword("right") || p.cur().isKeyword("full") {
				p.next()
				if p.cur().isKeyword("outer") {
					p.next()
				}
			}
			if !p.cur().isKeyword("join") {
				break
			}
			p.next()
			ref, err := p.parseTableRef()
			if err != nil {
				return err
			}
			stmt.From = append(stmt.From, ref)
			if err := p.expectKeyword("on"); err != nil {
				return err
			}
			cond, err := p.parseOr()
			if err != nil {
				return err
			}
			if stmt.Where == nil {
				stmt.Where = cond
			} else {
				stmt.Where = &AndExpr{Operands: []Expr{stmt.Where, cond}}
			}
		}
		if p.cur().isSymbol(",") {
			p.next()
			continue
		}
		return nil
	}
}

// parseTableRef parses "table [AS] [alias]".
func (p *parser) parseTableRef() (TableRef, error) {
	if p.cur().kind != tokIdent || isReserved(p.cur()) {
		return TableRef{}, p.errf("expected table name, found %q", p.cur().text)
	}
	name := p.next().text
	ref := TableRef{Table: name, Alias: name}
	if p.cur().isKeyword("as") {
		p.next()
		if p.cur().kind != tokIdent {
			return TableRef{}, p.errf("expected alias after AS")
		}
		ref.Alias = p.next().text
	} else if p.cur().kind == tokIdent && !isReserved(p.cur()) {
		ref.Alias = p.next().text
	}
	return ref, nil
}

// parseOr parses a disjunction of conjunctions.
func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	if !p.cur().isKeyword("or") {
		return left, nil
	}
	or := &OrExpr{Operands: []Expr{left}}
	for p.cur().isKeyword("or") {
		p.next()
		e, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		or.Operands = append(or.Operands, e)
	}
	return or, nil
}

// parseAnd parses a conjunction of primaries.
func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	if !p.cur().isKeyword("and") {
		return left, nil
	}
	and := &AndExpr{Operands: []Expr{left}}
	for p.cur().isKeyword("and") {
		p.next()
		e, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		and.Operands = append(and.Operands, e)
	}
	return and, nil
}

// parsePrimary parses a single predicate, a parenthesized condition, NOT, or
// EXISTS.
func (p *parser) parsePrimary() (Expr, error) {
	if p.cur().isKeyword("not") {
		p.next()
		inner, err := p.parsePrimary()
		if err != nil {
			return nil, err
		}
		// Push NOT into IN-subquery / EXISTS where it has meaning.
		switch e := inner.(type) {
		case *InSubqueryExpr:
			e.Not = !e.Not
			return e, nil
		case *ExistsExpr:
			e.Not = !e.Not
			return e, nil
		}
		return &NotExpr{Operand: inner}, nil
	}
	if p.cur().isKeyword("exists") {
		p.next()
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &ExistsExpr{Sub: sub}, nil
	}
	if p.cur().isSymbol("(") {
		p.next()
		e, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	// operand [cmp operand | BETWEEN lo AND hi | [NOT] IN (...) | IS [NOT] NULL]
	left, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	switch {
	case p.cur().isKeyword("between"):
		p.next()
		lo, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword("and"); err != nil {
			return nil, err
		}
		hi, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		if !left.IsCol() {
			return nil, p.errf("BETWEEN requires a column on the left")
		}
		return &BetweenExpr{Col: *left.Col, Lo: lo, Hi: hi}, nil
	case p.cur().isKeyword("not") && p.peek().isKeyword("in"):
		p.next()
		p.next()
		e, err := p.parseInTail(left)
		if err != nil {
			return nil, err
		}
		if sub, ok := e.(*InSubqueryExpr); ok {
			sub.Not = true
			return sub, nil
		}
		return &NotExpr{Operand: e}, nil
	case p.cur().isKeyword("in"):
		p.next()
		return p.parseInTail(left)
	case p.cur().isKeyword("is"):
		// IS [NOT] NULL: generated data has no NULLs; treat as no-op filter.
		p.next()
		if p.cur().isKeyword("not") {
			p.next()
		}
		if err := p.expectKeyword("null"); err != nil {
			return nil, err
		}
		if !left.IsCol() {
			return nil, p.errf("IS NULL requires a column")
		}
		return &CmpExpr{Op: stats.OpGe, Left: left, Right: Operand{Value: -(1 << 62)}}, nil
	}
	op, err := p.parseCmpOp()
	if err != nil {
		return nil, err
	}
	right, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	return &CmpExpr{Op: op, Left: left, Right: right}, nil
}

// parseInTail parses the remainder of "col IN ..." after IN was consumed.
func (p *parser) parseInTail(left Operand) (Expr, error) {
	if !left.IsCol() {
		return nil, p.errf("IN requires a column on the left")
	}
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	if p.cur().isKeyword("select") {
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return &InSubqueryExpr{Col: *left.Col, Sub: sub}, nil
	}
	var vals []int64
	for {
		v, err := p.parseLiteral()
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
		if p.cur().isSymbol(",") {
			p.next()
			continue
		}
		break
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	return &InListExpr{Col: *left.Col, Vals: vals}, nil
}

func (p *parser) parseCmpOp() (stats.CompareOp, error) {
	t := p.cur()
	if t.kind != tokSymbol {
		return 0, p.errf("expected comparison operator, found %q", t.text)
	}
	var op stats.CompareOp
	switch t.text {
	case "=":
		op = stats.OpEq
	case "<>":
		op = stats.OpNe
	case "<":
		op = stats.OpLt
	case "<=":
		op = stats.OpLe
	case ">":
		op = stats.OpGt
	case ">=":
		op = stats.OpGe
	default:
		return 0, p.errf("unsupported operator %q", t.text)
	}
	p.next()
	return op, nil
}

// parseOperand parses a column reference or a literal.
func (p *parser) parseOperand() (Operand, error) {
	t := p.cur()
	switch t.kind {
	case tokIdent:
		if isReserved(t) {
			return Operand{}, p.errf("expected operand, found keyword %q", t.text)
		}
		first := p.next().text
		if p.cur().isSymbol(".") {
			p.next()
			if p.cur().kind != tokIdent {
				return Operand{}, p.errf("expected column after %q.", first)
			}
			col := p.next().text
			return Operand{Col: &ColRef{Qualifier: first, Column: col}}, nil
		}
		return Operand{Col: &ColRef{Column: first}}, nil
	case tokNumber, tokString:
		v, err := p.parseLiteral()
		if err != nil {
			return Operand{}, err
		}
		return Operand{Value: v}, nil
	case tokSymbol:
		if t.text == "-" {
			p.next()
			v, err := p.parseLiteral()
			if err != nil {
				return Operand{}, err
			}
			return Operand{Value: -v}, nil
		}
	}
	return Operand{}, p.errf("expected operand, found %q", t.text)
}

// parseLiteral parses an integer or string literal into its int64 encoding.
// Decimal literals are truncated toward zero (generated data is integral).
func (p *parser) parseLiteral() (int64, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.next()
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			// int64(f) is implementation-defined outside [-2^63, 2^63).
			if err != nil || !(f >= -(1<<63) && f < 1<<63) {
				return 0, p.errf("bad numeric literal %q", t.text)
			}
			return int64(f), nil
		}
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return 0, p.errf("bad integer literal %q", t.text)
		}
		return v, nil
	case tokString:
		p.next()
		return valenc.EncodeString(t.text), nil
	case tokSymbol:
		if t.text == "-" {
			p.next()
			v, err := p.parseLiteral()
			if err != nil {
				return 0, err
			}
			return -v, nil
		}
	}
	return 0, p.errf("expected literal, found %q", t.text)
}
