package benchmarks

import (
	"partadvisor/internal/datagen"
	"partadvisor/internal/relation"
	"partadvisor/internal/schema"
	"partadvisor/internal/workload"
)

// TPC-H repro-scale row counts (SF=1 ratios divided by 50). TPC-H is not
// part of the paper's evaluation (SSB re-organizes it and TPC-CH borrows its
// queries), but a partitioning-advisor library without the most widely used
// analytical benchmark would be incomplete — and its 22 queries are the
// hardest workout for the SQL front end (nested IN / EXISTS / NOT EXISTS,
// self-joins on nation).
const (
	tpchLineitem = 120000
	tpchOrders   = 30000
	tpchPartsupp = 16000
	tpchPart     = 4000
	tpchCustomer = 3000
	tpchSupplier = 200
	tpchNation   = 25
	tpchRegion   = 5
)

// TPCH returns the TPC-H benchmark: 8 tables and the 22 analytical queries
// (join structures per the official specification; parameters encoded as
// integers per the repo-wide value encoding).
func TPCH() *Benchmark {
	sch := schema.New("tpch",
		[]*schema.Table{
			{
				Name: "lineitem",
				Attributes: attrs(8, "l_orderkey", "l_partkey", "l_suppkey", "l_linenumber",
					"l_quantity", "l_extendedprice", "l_discount", "l_shipdate", "l_commitdate",
					"l_receiptdate", "l_shipmode", "l_returnflag"),
				PrimaryKey: []string{"l_orderkey", "l_linenumber"},
			},
			{
				Name: "orders",
				Attributes: attrs(8, "o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice",
					"o_orderdate", "o_orderpriority", "o_shippriority"),
				PrimaryKey: []string{"o_orderkey"},
			},
			{
				Name:         "partsupp",
				Attributes:   attrs(8, "ps_partkey", "ps_suppkey", "ps_availqty", "ps_supplycost"),
				PrimaryKey:   []string{"ps_partkey", "ps_suppkey"},
				CompoundKeys: [][]string{{"ps_partkey", "ps_suppkey"}},
			},
			{
				Name:       "part",
				Attributes: attrs(8, "p_partkey", "p_brand", "p_type", "p_size", "p_container", "p_retailprice"),
				PrimaryKey: []string{"p_partkey"},
			},
			{
				Name:       "customer",
				Attributes: attrs(8, "c_custkey", "c_nationkey", "c_acctbal", "c_mktsegment"),
				PrimaryKey: []string{"c_custkey"},
			},
			{
				Name:       "supplier",
				Attributes: attrs(8, "s_suppkey", "s_nationkey", "s_acctbal"),
				PrimaryKey: []string{"s_suppkey"},
			},
			{
				Name:       "nation",
				Attributes: attrs(8, "n_nationkey", "n_regionkey", "n_name"),
				PrimaryKey: []string{"n_nationkey"},
			},
			{
				Name:       "region",
				Attributes: attrs(8, "r_regionkey", "r_name"),
				PrimaryKey: []string{"r_regionkey"},
			},
		},
		[]schema.ForeignKey{
			{FromTable: "lineitem", FromAttr: "l_orderkey", ToTable: "orders", ToAttr: "o_orderkey"},
			{FromTable: "lineitem", FromAttr: "l_partkey", ToTable: "part", ToAttr: "p_partkey"},
			{FromTable: "lineitem", FromAttr: "l_suppkey", ToTable: "supplier", ToAttr: "s_suppkey"},
			{FromTable: "lineitem", FromAttr: "l_partkey", ToTable: "partsupp", ToAttr: "ps_partkey"},
			{FromTable: "lineitem", FromAttr: "l_suppkey", ToTable: "partsupp", ToAttr: "ps_suppkey"},
			{FromTable: "orders", FromAttr: "o_custkey", ToTable: "customer", ToAttr: "c_custkey"},
			{FromTable: "partsupp", FromAttr: "ps_partkey", ToTable: "part", ToAttr: "p_partkey"},
			{FromTable: "partsupp", FromAttr: "ps_suppkey", ToTable: "supplier", ToAttr: "s_suppkey"},
			{FromTable: "customer", FromAttr: "c_nationkey", ToTable: "nation", ToAttr: "n_nationkey"},
			{FromTable: "supplier", FromAttr: "s_nationkey", ToTable: "nation", ToAttr: "n_nationkey"},
			{FromTable: "nation", FromAttr: "n_regionkey", ToTable: "region", ToAttr: "r_regionkey"},
		},
	)
	wl := workload.MustParse("tpch", sch, tpchQueries(), tpchOrder(), 4)
	return &Benchmark{
		Name:     "tpch",
		Schema:   sch,
		Workload: wl,
		Generate: generateTPCH,
	}
}

func tpchOrder() []string {
	out := make([]string, 22)
	for i := range out {
		out[i] = "Q" + itoa(i+1)
	}
	return out
}

// tpchQueries encodes the 22 TPC-H query join structures with representative
// integer-encoded parameters (dates as yyyymmdd, strings dictionary-encoded).
func tpchQueries() map[string]string {
	return map[string]string{
		"Q1": `SELECT l_returnflag, sum(l_quantity), sum(l_extendedprice), count(*) FROM lineitem
			WHERE l_shipdate <= 19980902 GROUP BY l_returnflag`,
		"Q2": `SELECT s_acctbal, n_name, p_partkey FROM part, supplier, partsupp, nation, region
			WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey AND s_nationkey = n_nationkey
			AND n_regionkey = r_regionkey AND p_size = 15 AND r_name = 'EUROPE'`,
		"Q3": `SELECT l_orderkey, sum(l_extendedprice), o_orderdate, o_shippriority
			FROM customer, orders, lineitem
			WHERE c_mktsegment = 2 AND c_custkey = o_custkey AND l_orderkey = o_orderkey
			AND o_orderdate < 19950315 AND l_shipdate > 19950315
			GROUP BY l_orderkey, o_orderdate, o_shippriority`,
		"Q4": `SELECT o_orderpriority, count(*) FROM orders
			WHERE o_orderdate >= 19930701 AND o_orderdate < 19931001 AND EXISTS (
				SELECT l_orderkey FROM lineitem WHERE l_orderkey = o_orderkey AND l_quantity > 10)
			GROUP BY o_orderpriority`,
		"Q5": `SELECT n_name, sum(l_extendedprice) FROM customer, orders, lineitem, supplier, nation, region
			WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey AND l_suppkey = s_suppkey
			AND c_nationkey = s_nationkey AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey
			AND r_name = 'ASIA' AND o_orderdate >= 19940101 AND o_orderdate < 19950101
			GROUP BY n_name`,
		"Q6": `SELECT sum(l_extendedprice) FROM lineitem
			WHERE l_shipdate >= 19940101 AND l_shipdate < 19950101
			AND l_discount BETWEEN 5 AND 7 AND l_quantity < 24`,
		"Q7": `SELECT n1.n_name, n2.n_name, sum(l_extendedprice)
			FROM supplier, lineitem, orders, customer, nation n1, nation n2
			WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey AND c_custkey = o_custkey
			AND s_nationkey = n1.n_nationkey AND c_nationkey = n2.n_nationkey
			AND n1.n_name IN ('FRANCE', 'GERMANY') AND n2.n_name IN ('FRANCE', 'GERMANY')
			AND l_shipdate BETWEEN 19950101 AND 19961231
			GROUP BY n1.n_name, n2.n_name`,
		"Q8": `SELECT o_orderdate, sum(l_extendedprice)
			FROM part, supplier, lineitem, orders, customer, nation n1, nation n2, region
			WHERE p_partkey = l_partkey AND s_suppkey = l_suppkey AND l_orderkey = o_orderkey
			AND o_custkey = c_custkey AND c_nationkey = n1.n_nationkey AND n1.n_regionkey = r_regionkey
			AND s_nationkey = n2.n_nationkey AND r_name = 'AMERICA'
			AND o_orderdate BETWEEN 19950101 AND 19961231 AND p_type = 12
			GROUP BY o_orderdate`,
		"Q9": `SELECT n_name, sum(l_extendedprice) FROM part, supplier, lineitem, partsupp, orders, nation
			WHERE s_suppkey = l_suppkey AND ps_suppkey = l_suppkey AND ps_partkey = l_partkey
			AND p_partkey = l_partkey AND o_orderkey = l_orderkey AND s_nationkey = n_nationkey
			AND p_type BETWEEN 10 AND 20 GROUP BY n_name`,
		"Q10": `SELECT c_custkey, n_name, sum(l_extendedprice) FROM customer, orders, lineitem, nation
			WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey
			AND o_orderdate >= 19931001 AND o_orderdate < 19940101
			AND l_returnflag = 1 AND c_nationkey = n_nationkey
			GROUP BY c_custkey, n_name`,
		"Q11": `SELECT ps_partkey, sum(ps_supplycost) FROM partsupp, supplier, nation
			WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey AND n_name = 'GERMANY'
			GROUP BY ps_partkey`,
		"Q12": `SELECT l_shipmode, count(*) FROM orders, lineitem
			WHERE o_orderkey = l_orderkey AND l_shipmode IN (3, 5)
			AND l_receiptdate >= 19940101 AND l_receiptdate < 19950101
			GROUP BY l_shipmode`,
		"Q13": `SELECT c_custkey, count(*) FROM customer, orders
			WHERE c_custkey = o_custkey AND o_orderpriority <> 2 GROUP BY c_custkey`,
		"Q14": `SELECT sum(l_extendedprice) FROM lineitem, part
			WHERE l_partkey = p_partkey AND l_shipdate >= 19950901 AND l_shipdate < 19951001`,
		"Q15": `SELECT s_suppkey, sum(l_extendedprice) FROM supplier, lineitem
			WHERE s_suppkey = l_suppkey AND l_shipdate >= 19960101 AND l_shipdate < 19960401
			GROUP BY s_suppkey`,
		"Q16": `SELECT p_brand, p_type, count(*) FROM partsupp, part
			WHERE p_partkey = ps_partkey AND p_brand <> 45 AND p_size IN (49, 14, 23, 45, 19, 3, 36, 9)
			AND ps_suppkey NOT IN (SELECT s_suppkey FROM supplier WHERE s_acctbal < 0)
			GROUP BY p_brand, p_type`,
		"Q17": `SELECT sum(l_extendedprice) FROM lineitem, part
			WHERE p_partkey = l_partkey AND p_brand = 23 AND p_container = 17 AND l_quantity < 3`,
		"Q18": `SELECT c_custkey, o_orderkey, sum(l_quantity) FROM customer, orders, lineitem
			WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey AND o_totalprice > 40000
			GROUP BY c_custkey, o_orderkey`,
		"Q19": `SELECT sum(l_extendedprice) FROM lineitem, part
			WHERE p_partkey = l_partkey AND l_quantity BETWEEN 1 AND 11
			AND p_container IN (1, 2, 3, 4) AND p_size BETWEEN 1 AND 15`,
		"Q20": `SELECT s_suppkey FROM supplier, nation
			WHERE s_nationkey = n_nationkey AND n_name = 'CANADA' AND s_suppkey IN (
				SELECT ps_suppkey FROM partsupp WHERE ps_availqty > 100 AND ps_partkey IN (
					SELECT p_partkey FROM part WHERE p_type BETWEEN 30 AND 40))`,
		"Q21": `SELECT s_suppkey, count(*) FROM supplier, lineitem, orders, nation
			WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey AND o_orderstatus = 2
			AND s_nationkey = n_nationkey AND n_name = 'SAUDI ARABIA'
			AND l_receiptdate > l_commitdate GROUP BY s_suppkey`,
		"Q22": `SELECT c_nationkey, count(*), sum(c_acctbal) FROM customer
			WHERE c_acctbal > 0 AND NOT EXISTS (
				SELECT o_orderkey FROM orders WHERE o_custkey = c_custkey)
			GROUP BY c_nationkey`,
	}
}

func generateTPCH(scale float64, seed int64) map[string]*relation.Relation {
	g := datagen.New(seed)
	nL := datagen.ScaleRows(tpchLineitem, scale, 4000)
	nO := datagen.ScaleRows(tpchOrders, scale, 1000)
	nPS := datagen.ScaleRows(tpchPartsupp, scale, 500)
	nP := datagen.ScaleRows(tpchPart, scale, 150)
	nC := datagen.ScaleRows(tpchCustomer, scale, 100)
	nS := datagen.ScaleRows(tpchSupplier, scale, 20)

	region := datagen.Table("region", map[string][]int64{
		"r_regionkey": g.Seq(tpchRegion),
		"r_name":      encNames(tpchRegion, []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}),
	}, []string{"r_regionkey", "r_name"})

	nationNames := []string{
		"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE",
		"GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA",
		"MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA",
		"VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES",
	}
	nation := datagen.Table("nation", map[string][]int64{
		"n_nationkey": g.Seq(tpchNation),
		"n_regionkey": g.Mod(tpchNation, tpchRegion),
		"n_name":      encNames(tpchNation, nationNames),
	}, []string{"n_nationkey", "n_regionkey", "n_name"})

	supplier := datagen.Table("supplier", map[string][]int64{
		"s_suppkey":   g.Seq(nS),
		"s_nationkey": g.Mod(nS, tpchNation),
		"s_acctbal":   g.UniformRange(nS, -500, 10000),
	}, []string{"s_suppkey", "s_nationkey", "s_acctbal"})

	customer := datagen.Table("customer", map[string][]int64{
		"c_custkey":    g.Seq(nC),
		"c_nationkey":  g.Uniform(nC, tpchNation),
		"c_acctbal":    g.UniformRange(nC, -900, 9000),
		"c_mktsegment": g.Uniform(nC, 5),
	}, []string{"c_custkey", "c_nationkey", "c_acctbal", "c_mktsegment"})

	part := datagen.Table("part", map[string][]int64{
		"p_partkey":     g.Seq(nP),
		"p_brand":       g.Uniform(nP, 50),
		"p_type":        g.Uniform(nP, 150),
		"p_size":        g.UniformRange(nP, 1, 50),
		"p_container":   g.Uniform(nP, 40),
		"p_retailprice": g.UniformRange(nP, 900, 2000),
	}, []string{"p_partkey", "p_brand", "p_type", "p_size", "p_container", "p_retailprice"})

	partsupp := relation.New("partsupp", []string{"ps_partkey", "ps_suppkey", "ps_availqty", "ps_supplycost"})
	partsupp.Grow(nPS)
	for i := 0; i < nPS; i++ {
		partsupp.AppendRow(int64(i%nP), int64((i/nP+i)%nS), int64(g.Rand().Intn(10000)), int64(g.Rand().Intn(1000)))
	}

	orders := datagen.Table("orders", map[string][]int64{
		"o_orderkey":      g.Seq(nO),
		"o_custkey":       g.Uniform(nO, int64(nC)),
		"o_orderstatus":   g.Uniform(nO, 3),
		"o_totalprice":    g.UniformRange(nO, 800, 500000),
		"o_orderdate":     g.Dates(nO, 1992, 1998),
		"o_orderpriority": g.Uniform(nO, 5),
		"o_shippriority":  g.Uniform(nO, 2),
	}, []string{"o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice", "o_orderdate",
		"o_orderpriority", "o_shippriority"})

	// Lineitems: ~4 per order, inheriting the order's key; ship dates follow
	// order dates.
	lineitem := relation.New("lineitem", []string{"l_orderkey", "l_partkey", "l_suppkey",
		"l_linenumber", "l_quantity", "l_extendedprice", "l_discount", "l_shipdate",
		"l_commitdate", "l_receiptdate", "l_shipmode", "l_returnflag"})
	lineitem.Grow(nL)
	oDates := orders.Col("o_orderdate")
	for i := 0; i < nL; i++ {
		o := i % nO
		ship := oDates[o] + int64(g.Rand().Intn(90))
		lineitem.AppendRow(int64(o), int64(g.Rand().Intn(nP)), int64(g.Rand().Intn(nS)),
			int64(i/nO), int64(1+g.Rand().Intn(50)), int64(g.Rand().Intn(100000)),
			int64(g.Rand().Intn(11)), ship, ship+int64(g.Rand().Intn(30)),
			ship+int64(g.Rand().Intn(60)), int64(g.Rand().Intn(7)), int64(g.Rand().Intn(3)))
	}

	return map[string]*relation.Relation{
		"lineitem": lineitem, "orders": orders, "partsupp": partsupp, "part": part,
		"customer": customer, "supplier": supplier, "nation": nation, "region": region,
	}
}
