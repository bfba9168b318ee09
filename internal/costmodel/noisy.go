package costmodel

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"

	"partadvisor/internal/partition"
	"partadvisor/internal/sqlparse"
)

// NoisyModel wraps a Model with deterministic multiplicative estimation
// error whose magnitude grows with the number of joins — following Leis et
// al.'s observation that optimizer estimates degrade on complex queries.
// It stands in for a DBMS-internal optimizer cost model: the
// Minimum-Optimizer baseline minimizes *these* estimates and therefore
// suffers the winner's curse on complex schemas (the paper's Fig. 3c), while
// the DRL agent trained on real runtimes does not.
//
// The error is a deterministic function of (query structure, designs of the
// tables the query touches), so the same partitioning always receives the
// same estimate — exactly like a real optimizer, which is consistently wrong
// rather than randomly wrong.
type NoisyModel struct {
	Base *Model
	// SigmaPerJoin is the standard deviation of the log-space error
	// contributed per join. Zero disables the noise.
	SigmaPerJoin float64
	// Salt differentiates deployments (e.g. before/after stale statistics).
	Salt uint64
}

// QueryCost returns the noisy estimate for one query.
func (nm *NoisyModel) QueryCost(st *partition.State, g *sqlparse.Graph) float64 {
	c := nm.Base.QueryCost(st, g)
	j := len(g.Joins)
	if j == 0 || nm.SigmaPerJoin == 0 {
		return c
	}
	z := gaussHash(graphSignature(g), st.TableSignature(g.BaseTables()), nm.Salt)
	return c * math.Exp(nm.SigmaPerJoin*math.Sqrt(float64(j))*z)
}

// graphSignature canonicalizes a query's structure for hashing.
func graphSignature(g *sqlparse.Graph) string {
	var b strings.Builder
	for _, r := range g.Refs {
		fmt.Fprintf(&b, "%s:%s;", r.Alias, r.Table)
	}
	for _, j := range g.Joins {
		b.WriteString(j.String())
		b.WriteByte(';')
	}
	for _, f := range g.Filters {
		fmt.Fprintf(&b, "%s.%s%v%v%v;", f.Alias, f.Column, f.Op, f.Args, f.Neg)
	}
	return b.String()
}

// gaussHash derives an approximately standard-normal value from the hashed
// inputs via the Irwin–Hall construction (sum of 12 uniforms minus 6).
func gaussHash(parts ...interface{}) float64 {
	h := fnv.New64a()
	for _, p := range parts {
		fmt.Fprintf(h, "%v|", p)
	}
	x := h.Sum64()
	sum := 0.0
	for i := 0; i < 12; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		sum += float64(x>>11) / float64(1<<53)
	}
	return sum - 6
}
