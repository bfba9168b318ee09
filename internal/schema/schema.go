// Package schema models relational database schemas: tables, attributes,
// primary keys and foreign-key relationships. It is the structural foundation
// shared by the SQL parser, the cost model, the execution engine and the
// partitioning design space.
//
// A Schema is immutable after Validate; all higher layers address tables and
// attributes by name and rely on the deterministic ordering of Tables and
// ForeignKeys for stable feature encodings.
package schema

import (
	"fmt"
	"sort"
	"strings"
)

// Attribute describes a single column of a table.
type Attribute struct {
	// Name is the column name, unique within its table.
	Name string
	// Width is the storage width of the column in bytes. It feeds the
	// byte-level accounting of the cost model and the execution engine.
	Width int
}

// Table describes a relation: its columns and primary key. Row counts and
// value distributions live in package stats, not here, so that the same
// schema can be instantiated at different scale factors.
type Table struct {
	// Name is the table name, unique within its schema.
	Name string
	// Attributes lists the columns in definition order.
	Attributes []Attribute
	// PrimaryKey names the primary-key columns (a subset of Attributes).
	PrimaryKey []string
	// CompoundKeys lists additional multi-attribute candidate partitioning
	// keys beyond the single-attribute candidates derived from joins, e.g.
	// (warehouse-id, district-id) in TPC-CH to mitigate skew.
	CompoundKeys [][]string
}

// ForeignKey declares that FromTable.FromAttr references ToTable.ToAttr.
// Foreign keys seed the set of co-partitioning edges of the design space.
type ForeignKey struct {
	FromTable string
	FromAttr  string
	ToTable   string
	ToAttr    string
}

// String renders the foreign key as "from.attr -> to.attr".
func (fk ForeignKey) String() string {
	return fmt.Sprintf("%s.%s -> %s.%s", fk.FromTable, fk.FromAttr, fk.ToTable, fk.ToAttr)
}

// Schema is a named collection of tables and foreign keys.
type Schema struct {
	// Name identifies the schema (e.g. "ssb", "tpcds", "tpcch").
	Name string
	// Tables lists the tables in a fixed, deterministic order.
	Tables []*Table
	// ForeignKeys lists the declared foreign-key relationships.
	ForeignKeys []ForeignKey

	byName map[string]*Table
}

// New constructs a schema and validates it. It panics on invalid input,
// since schemas are static program data defined in package benchmarks.
func New(name string, tables []*Table, fks []ForeignKey) *Schema {
	s := &Schema{Name: name, Tables: tables, ForeignKeys: fks}
	if err := s.Validate(); err != nil {
		panic(fmt.Sprintf("schema %q: %v", name, err))
	}
	return s
}

// Validate checks internal consistency: unique table and attribute names,
// primary keys and compound keys referencing existing attributes, and
// foreign keys referencing existing tables and attributes.
func (s *Schema) Validate() error {
	s.byName = make(map[string]*Table, len(s.Tables))
	for _, t := range s.Tables {
		if t.Name == "" {
			return fmt.Errorf("table with empty name")
		}
		if _, dup := s.byName[t.Name]; dup {
			return fmt.Errorf("duplicate table %q", t.Name)
		}
		s.byName[t.Name] = t

		seen := make(map[string]bool, len(t.Attributes))
		for _, a := range t.Attributes {
			if a.Name == "" {
				return fmt.Errorf("table %q: attribute with empty name", t.Name)
			}
			if seen[a.Name] {
				return fmt.Errorf("table %q: duplicate attribute %q", t.Name, a.Name)
			}
			if a.Width <= 0 {
				return fmt.Errorf("table %q: attribute %q has non-positive width", t.Name, a.Name)
			}
			seen[a.Name] = true
		}
		for _, pk := range t.PrimaryKey {
			if !seen[pk] {
				return fmt.Errorf("table %q: primary key column %q not an attribute", t.Name, pk)
			}
		}
		for _, ck := range t.CompoundKeys {
			if len(ck) < 2 {
				return fmt.Errorf("table %q: compound key must have >= 2 attributes", t.Name)
			}
			for _, a := range ck {
				if !seen[a] {
					return fmt.Errorf("table %q: compound key column %q not an attribute", t.Name, a)
				}
			}
		}
	}
	for _, fk := range s.ForeignKeys {
		from := s.byName[fk.FromTable]
		to := s.byName[fk.ToTable]
		if from == nil {
			return fmt.Errorf("foreign key %v: unknown table %q", fk, fk.FromTable)
		}
		if to == nil {
			return fmt.Errorf("foreign key %v: unknown table %q", fk, fk.ToTable)
		}
		if !from.HasAttribute(fk.FromAttr) {
			return fmt.Errorf("foreign key %v: unknown attribute %q.%q", fk, fk.FromTable, fk.FromAttr)
		}
		if !to.HasAttribute(fk.ToAttr) {
			return fmt.Errorf("foreign key %v: unknown attribute %q.%q", fk, fk.ToTable, fk.ToAttr)
		}
	}
	return nil
}

// Table returns the table with the given name, or nil if absent.
func (s *Schema) Table(name string) *Table {
	if s.byName == nil {
		s.Validate()
	}
	return s.byName[name]
}

// MustTable returns the table with the given name and panics if absent.
func (s *Schema) MustTable(name string) *Table {
	t := s.Table(name)
	if t == nil {
		panic(fmt.Sprintf("schema %q: no table %q", s.Name, name))
	}
	return t
}

// TableNames returns the table names in schema order.
func (s *Schema) TableNames() []string {
	names := make([]string, len(s.Tables))
	for i, t := range s.Tables {
		names[i] = t.Name
	}
	return names
}

// HasAttribute reports whether the table has a column with the given name.
func (t *Table) HasAttribute(name string) bool {
	return t.AttributeIndex(name) >= 0
}

// AttributeIndex returns the position of the named column, or -1.
func (t *Table) AttributeIndex(name string) int {
	for i, a := range t.Attributes {
		if a.Name == name {
			return i
		}
	}
	return -1
}

// AttributeNames returns the column names in definition order.
func (t *Table) AttributeNames() []string {
	names := make([]string, len(t.Attributes))
	for i, a := range t.Attributes {
		names[i] = a.Name
	}
	return names
}

// RowWidth returns the total width in bytes of one row.
func (t *Table) RowWidth() int {
	w := 0
	for _, a := range t.Attributes {
		w += a.Width
	}
	return w
}

// JoinEdge is an undirected join relationship between two table attributes,
// extracted from foreign keys and/or workload join predicates. Edges are
// canonicalized so that Table1 < Table2 (or Table1 == Table2 and
// Attr1 <= Attr2), which makes deduplication and feature indices stable.
type JoinEdge struct {
	Table1 string
	Attr1  string
	Table2 string
	Attr2  string
}

// NewJoinEdge builds a canonicalized join edge.
func NewJoinEdge(t1, a1, t2, a2 string) JoinEdge {
	if t1 > t2 || (t1 == t2 && a1 > a2) {
		t1, a1, t2, a2 = t2, a2, t1, a1
	}
	return JoinEdge{Table1: t1, Attr1: a1, Table2: t2, Attr2: a2}
}

// String renders the edge as "t1.a1 = t2.a2".
func (e JoinEdge) String() string {
	return fmt.Sprintf("%s.%s = %s.%s", e.Table1, e.Attr1, e.Table2, e.Attr2)
}

// Touches reports whether the edge is incident to the named table.
func (e JoinEdge) Touches(table string) bool {
	return e.Table1 == table || e.Table2 == table
}

// AttrFor returns the edge's attribute on the given table's side and whether
// the table is an endpoint. For (rare) self-join edges it returns Attr1.
func (e JoinEdge) AttrFor(table string) (string, bool) {
	switch table {
	case e.Table1:
		return e.Attr1, true
	case e.Table2:
		return e.Attr2, true
	}
	return "", false
}

// Other returns the opposite endpoint (table, attr) relative to the given
// table, and whether the table is an endpoint.
func (e JoinEdge) Other(table string) (string, string, bool) {
	switch table {
	case e.Table1:
		return e.Table2, e.Attr2, true
	case e.Table2:
		return e.Table1, e.Attr1, true
	}
	return "", "", false
}

// ForeignKeyEdges returns the deduplicated, canonicalized join edges implied
// by the schema's foreign keys, in deterministic order.
func (s *Schema) ForeignKeyEdges() []JoinEdge {
	set := make(map[JoinEdge]bool)
	for _, fk := range s.ForeignKeys {
		set[NewJoinEdge(fk.FromTable, fk.FromAttr, fk.ToTable, fk.ToAttr)] = true
	}
	return sortedEdges(set)
}

func sortedEdges(set map[JoinEdge]bool) []JoinEdge {
	edges := make([]JoinEdge, 0, len(set))
	for e := range set {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
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

// MergeEdges unions several edge sets into a deterministic, deduplicated
// slice. It is used to combine foreign-key edges with join edges observed in
// the workload.
func MergeEdges(sets ...[]JoinEdge) []JoinEdge {
	m := make(map[JoinEdge]bool)
	for _, set := range sets {
		for _, e := range set {
			m[e] = true
		}
	}
	return sortedEdges(m)
}

// String renders the schema as a compact textual summary.
func (s *Schema) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "schema %s (%d tables, %d foreign keys)\n", s.Name, len(s.Tables), len(s.ForeignKeys))
	for _, t := range s.Tables {
		fmt.Fprintf(&b, "  %s(%s) pk=%v\n", t.Name, strings.Join(t.AttributeNames(), ", "), t.PrimaryKey)
	}
	return b.String()
}
