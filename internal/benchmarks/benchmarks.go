// Package benchmarks defines the evaluation databases and workloads of the
// paper: the Star Schema Benchmark (5 tables, 13 queries), TPC-DS (24
// tables, 60 queries — the subset size the paper could run on Postgres-XL),
// TPC-CH (the TPC-C schema with TPC-H-style analytical queries, 12 tables,
// 22 queries), and the Exp-5 microbenchmark (3 tables, 2 queries).
//
// Workloads are SQL text parsed by internal/sqlparse; data is materialized
// at "repro scale" — ratio-preserving row counts small enough to execute on
// a laptop (the substitution for the paper's SF=100 deployments, documented
// in DESIGN.md).
package benchmarks

import (
	"partadvisor/internal/partition"
	"partadvisor/internal/relation"
	"partadvisor/internal/schema"
	"partadvisor/internal/valenc"
	"partadvisor/internal/workload"
)

// Benchmark bundles one evaluation database: schema, workload, partitioning
// design-space options and a data generator.
type Benchmark struct {
	Name     string
	Schema   *schema.Schema
	Workload *workload.Workload
	// SpaceOptions carries benchmark-specific design-space restrictions
	// (e.g. TPC-CH forbids partitioning by warehouse-id only, §7.1).
	SpaceOptions partition.Options
	// Generate materializes the database at the given scale (1.0 = repro
	// scale) with a seed.
	Generate func(scale float64, seed int64) map[string]*relation.Relation
	// GenerateUpdate produces frac (e.g. 0.2 for +20%) additional rows for
	// the benchmark's growing tables, keyed after the existing data —
	// the bulk-update procedure of Exp. 3a. Nil when unsupported.
	GenerateUpdate func(base map[string]*relation.Relation, frac float64, seed int64) map[string]*relation.Relation
}

// Space builds the partitioning design space for the benchmark.
func (b *Benchmark) Space() *partition.Space {
	return partition.NewSpace(b.Schema, b.Workload.JoinEdges(b.Schema.ForeignKeyEdges()), b.SpaceOptions)
}

// ComplexSchema is the one rule that picks between the two hyperparameter
// scales of the paper's Table 1 (600 vs 1200 episodes): eight or more tables.
// SSB (5) and the microbenchmark (3) are simple; TPC-H (8), TPC-CH (12) and
// TPC-DS (24) are complex.
func (b *Benchmark) ComplexSchema() bool { return len(b.Schema.Tables) >= 8 }

// ByName returns the built-in evaluation database with the given name (ssb,
// tpcds, tpcch, tpch or micro), or nil.
func ByName(name string) *Benchmark {
	switch name {
	case "ssb":
		return SSB()
	case "tpcds":
		return TPCDS()
	case "tpcch":
		return TPCCH()
	case "tpch":
		return TPCH()
	case "micro":
		return Micro()
	}
	return nil
}

// attrs builds a []schema.Attribute with uniform width.
func attrs(width int, names ...string) []schema.Attribute {
	out := make([]schema.Attribute, len(names))
	for i, n := range names {
		out[i] = schema.Attribute{Name: n, Width: width}
	}
	return out
}

// catAttrs appends wider (string-ish) attributes to a key attribute list.
func catAttrs(keys []schema.Attribute, width int, names ...string) []schema.Attribute {
	return append(keys, attrs(width, names...)...)
}

// encString dictionary-encodes a string value the same way the SQL parser
// encodes string literals.
func encString(s string) int64 { return valenc.EncodeString(s) }
