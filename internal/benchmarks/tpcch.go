package benchmarks

import (
	"strings"

	"partadvisor/internal/datagen"
	"partadvisor/internal/partition"
	"partadvisor/internal/relation"
	"partadvisor/internal/schema"
	"partadvisor/internal/workload"
)

// TPC-CH repro-scale row counts (W = 20 warehouses; per-warehouse counts
// scaled down 100x from TPC-C, item fixed). Orderline is the dominant table,
// stock the second largest — the two tables whose treatment separates the
// heuristics from the learned advisor in the paper's §7.2/§7.3.
const (
	tpcchWarehouses = 20
	tpcchDistricts  = tpcchWarehouses * 10
	tpcchCustomers  = 6000
	tpcchOrders     = 6000
	tpcchOrderlines = 60000
	tpcchNewOrders  = 1800
	tpcchHistory    = 6000
	tpcchItems      = 2000
	tpcchStock      = 20000
	tpcchSuppliers  = 500
	tpcchNations    = 62
	tpcchRegions    = 5
)

// TPCCH returns the TPC-CH benchmark: the TPC-C schema extended with
// region/nation/supplier, and the 22 analytical TPC-H-style queries adapted
// to it. Following §7.1 of the paper, the design space forbids partitioning
// any table by its warehouse-id alone (that trivial solution co-partitions
// everything), while compound (warehouse, district) keys remain available.
func TPCCH() *Benchmark {
	sch := schema.New("tpcch",
		[]*schema.Table{
			{
				Name:       "warehouse",
				Attributes: attrs(8, "w_id", "w_tax", "w_ytd"),
				PrimaryKey: []string{"w_id"},
			},
			{
				Name:         "district",
				Attributes:   attrs(8, "d_w_id", "d_id", "d_tax", "d_ytd"),
				PrimaryKey:   []string{"d_w_id", "d_id"},
				CompoundKeys: [][]string{{"d_w_id", "d_id"}},
			},
			{
				Name:         "customer",
				Attributes:   attrs(8, "c_w_id", "c_d_id", "c_id", "c_n_id", "c_balance", "c_discount"),
				PrimaryKey:   []string{"c_w_id", "c_d_id", "c_id"},
				CompoundKeys: [][]string{{"c_w_id", "c_d_id"}},
			},
			{
				Name:       "history",
				Attributes: attrs(8, "h_c_w_id", "h_c_d_id", "h_c_id", "h_amount", "h_date"),
				PrimaryKey: []string{"h_c_id"},
			},
			{
				Name:         "neworder",
				Attributes:   attrs(8, "no_w_id", "no_d_id", "no_o_id"),
				PrimaryKey:   []string{"no_w_id", "no_d_id", "no_o_id"},
				CompoundKeys: [][]string{{"no_w_id", "no_d_id"}},
			},
			{
				Name:         "orders",
				Attributes:   attrs(8, "o_w_id", "o_d_id", "o_id", "o_c_id", "o_entry_d", "o_carrier_id", "o_ol_cnt"),
				PrimaryKey:   []string{"o_w_id", "o_d_id", "o_id"},
				CompoundKeys: [][]string{{"o_w_id", "o_d_id"}},
			},
			{
				Name: "orderline",
				Attributes: attrs(8, "ol_w_id", "ol_d_id", "ol_o_id", "ol_number", "ol_i_id",
					"ol_supply_w_id", "ol_delivery_d", "ol_quantity", "ol_amount"),
				PrimaryKey:   []string{"ol_w_id", "ol_d_id", "ol_o_id", "ol_number"},
				CompoundKeys: [][]string{{"ol_w_id", "ol_d_id"}},
			},
			{
				Name:       "item",
				Attributes: attrs(8, "i_id", "i_im_id", "i_name", "i_price"),
				PrimaryKey: []string{"i_id"},
			},
			{
				Name:         "stock",
				Attributes:   attrs(8, "s_w_id", "s_i_id", "s_suppkey", "s_quantity", "s_ytd", "s_order_cnt"),
				PrimaryKey:   []string{"s_w_id", "s_i_id"},
				CompoundKeys: [][]string{{"s_w_id", "s_i_id"}},
			},
			{
				Name:       "region",
				Attributes: attrs(8, "r_regionkey", "r_name"),
				PrimaryKey: []string{"r_regionkey"},
			},
			{
				Name:       "nation",
				Attributes: attrs(8, "n_nationkey", "n_regionkey", "n_name"),
				PrimaryKey: []string{"n_nationkey"},
			},
			{
				Name:       "supplier",
				Attributes: attrs(8, "su_suppkey", "su_nationkey", "su_balance", "su_name"),
				PrimaryKey: []string{"su_suppkey"},
			},
		},
		[]schema.ForeignKey{
			{FromTable: "district", FromAttr: "d_w_id", ToTable: "warehouse", ToAttr: "w_id"},
			{FromTable: "customer", FromAttr: "c_w_id", ToTable: "district", ToAttr: "d_w_id"},
			{FromTable: "customer", FromAttr: "c_d_id", ToTable: "district", ToAttr: "d_id"},
			{FromTable: "customer", FromAttr: "c_n_id", ToTable: "nation", ToAttr: "n_nationkey"},
			{FromTable: "history", FromAttr: "h_c_id", ToTable: "customer", ToAttr: "c_id"},
			{FromTable: "orders", FromAttr: "o_c_id", ToTable: "customer", ToAttr: "c_id"},
			{FromTable: "orders", FromAttr: "o_w_id", ToTable: "customer", ToAttr: "c_w_id"},
			{FromTable: "orders", FromAttr: "o_d_id", ToTable: "customer", ToAttr: "c_d_id"},
			{FromTable: "neworder", FromAttr: "no_o_id", ToTable: "orders", ToAttr: "o_id"},
			{FromTable: "neworder", FromAttr: "no_w_id", ToTable: "orders", ToAttr: "o_w_id"},
			{FromTable: "neworder", FromAttr: "no_d_id", ToTable: "orders", ToAttr: "o_d_id"},
			{FromTable: "orderline", FromAttr: "ol_o_id", ToTable: "orders", ToAttr: "o_id"},
			{FromTable: "orderline", FromAttr: "ol_w_id", ToTable: "orders", ToAttr: "o_w_id"},
			{FromTable: "orderline", FromAttr: "ol_d_id", ToTable: "orders", ToAttr: "o_d_id"},
			{FromTable: "orderline", FromAttr: "ol_i_id", ToTable: "item", ToAttr: "i_id"},
			{FromTable: "orderline", FromAttr: "ol_supply_w_id", ToTable: "stock", ToAttr: "s_w_id"},
			{FromTable: "orderline", FromAttr: "ol_i_id", ToTable: "stock", ToAttr: "s_i_id"},
			{FromTable: "stock", FromAttr: "s_i_id", ToTable: "item", ToAttr: "i_id"},
			{FromTable: "stock", FromAttr: "s_suppkey", ToTable: "supplier", ToAttr: "su_suppkey"},
			{FromTable: "supplier", FromAttr: "su_nationkey", ToTable: "nation", ToAttr: "n_nationkey"},
			{FromTable: "nation", FromAttr: "n_regionkey", ToTable: "region", ToAttr: "r_regionkey"},
		},
	)

	wl := workload.MustParse("tpcch", sch, tpcchQueries(), tpcchOrder(), 6)

	return &Benchmark{
		Name:     "tpcch",
		Schema:   sch,
		Workload: wl,
		SpaceOptions: partition.Options{
			// §7.1: tables cannot be partitioned by warehouse-id only.
			KeyFilter: func(table string, k partition.Key) bool {
				if table == "warehouse" {
					return true
				}
				return !(len(k) == 1 && strings.HasSuffix(k[0], "w_id"))
			},
		},
		Generate:       generateTPCCH,
		GenerateUpdate: updateTPCCH,
	}
}

func tpcchOrder() []string {
	out := make([]string, 22)
	for i := range out {
		out[i] = queryName(i + 1)
	}
	return out
}

func queryName(i int) string {
	return "Q" + itoa(i)
}

func itoa(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return string(rune('0'+i/10)) + string(rune('0'+i%10))
}

// tpcchQueries adapts the 22 analytical queries of the TPC-CH benchmark to
// this schema. Join structures follow the TPC-CH specification; parameter
// predicates are representative (all data is dictionary/date-encoded
// integers).
func tpcchQueries() map[string]string {
	return map[string]string{
		"Q1": `SELECT ol_number, sum(ol_quantity), sum(ol_amount), count(*) FROM orderline
			WHERE ol_delivery_d > 20070101 GROUP BY ol_number ORDER BY ol_number`,
		"Q2": `SELECT su_suppkey, su_name, n_name, i_id, i_name FROM item, supplier, stock, nation, region
			WHERE i_id = s_i_id AND su_suppkey = s_suppkey AND su_nationkey = n_nationkey
			AND n_regionkey = r_regionkey AND i_im_id BETWEEN 1 AND 10 AND r_name = 'EUROPE'`,
		"Q3": `SELECT ol_o_id, ol_w_id, ol_d_id, sum(ol_amount) FROM customer, neworder, orders, orderline
			WHERE c_id = o_c_id AND c_w_id = o_w_id AND c_d_id = o_d_id
			AND no_w_id = o_w_id AND no_d_id = o_d_id AND no_o_id = o_id
			AND ol_w_id = o_w_id AND ol_d_id = o_d_id AND ol_o_id = o_id
			AND o_entry_d > 20070101 GROUP BY ol_o_id, ol_w_id, ol_d_id`,
		"Q4": `SELECT o_ol_cnt, count(*) FROM orders
			WHERE o_entry_d >= 20070101 AND o_entry_d < 20071231 AND EXISTS (
				SELECT ol_o_id FROM orderline
				WHERE o_id = ol_o_id AND o_w_id = ol_w_id AND o_d_id = ol_d_id AND ol_delivery_d >= 20070201)
			GROUP BY o_ol_cnt ORDER BY o_ol_cnt`,
		"Q5": `SELECT n_name, sum(ol_amount) FROM customer, orders, orderline, stock, supplier, nation, region
			WHERE c_id = o_c_id AND c_w_id = o_w_id AND c_d_id = o_d_id
			AND ol_o_id = o_id AND ol_w_id = o_w_id AND ol_d_id = o_d_id
			AND ol_supply_w_id = s_w_id AND ol_i_id = s_i_id
			AND s_suppkey = su_suppkey AND su_nationkey = n_nationkey AND n_regionkey = r_regionkey
			AND r_name = 'EUROPE' AND o_entry_d >= 20070101 GROUP BY n_name`,
		"Q6": `SELECT sum(ol_amount) FROM orderline
			WHERE ol_delivery_d BETWEEN 19990101 AND 20200101 AND ol_quantity BETWEEN 1 AND 5`,
		"Q7": `SELECT su_nationkey, c_n_id, sum(ol_amount) FROM supplier, stock, orderline, orders, customer, nation n1, nation n2
			WHERE ol_supply_w_id = s_w_id AND ol_i_id = s_i_id AND s_suppkey = su_suppkey
			AND ol_w_id = o_w_id AND ol_d_id = o_d_id AND ol_o_id = o_id
			AND c_id = o_c_id AND c_w_id = o_w_id AND c_d_id = o_d_id
			AND su_nationkey = n1.n_nationkey AND c_n_id = n2.n_nationkey
			AND n1.n_name IN ('GERMANY', 'CAMBODIA') AND n2.n_name IN ('GERMANY', 'CAMBODIA')
			GROUP BY su_nationkey, c_n_id`,
		"Q8": `SELECT sum(ol_amount) FROM item, supplier, stock, orderline, orders, customer, nation n1, nation n2, region
			WHERE i_id = s_i_id AND ol_i_id = s_i_id AND ol_supply_w_id = s_w_id AND s_suppkey = su_suppkey
			AND ol_w_id = o_w_id AND ol_d_id = o_d_id AND ol_o_id = o_id
			AND c_id = o_c_id AND c_w_id = o_w_id AND c_d_id = o_d_id
			AND c_n_id = n1.n_nationkey AND n1.n_regionkey = r_regionkey
			AND su_nationkey = n2.n_nationkey AND r_name = 'EUROPE' AND i_im_id BETWEEN 1 AND 40`,
		"Q9": `SELECT n_name, sum(ol_amount) FROM item, supplier, stock, orderline, orders, nation
			WHERE ol_i_id = s_i_id AND ol_supply_w_id = s_w_id AND s_suppkey = su_suppkey
			AND ol_w_id = o_w_id AND ol_d_id = o_d_id AND ol_o_id = o_id
			AND i_id = ol_i_id AND su_nationkey = n_nationkey AND i_name BETWEEN 100 AND 400
			GROUP BY n_name`,
		"Q10": `SELECT c_id, n_name, sum(ol_amount) FROM customer, orders, orderline, nation
			WHERE c_id = o_c_id AND c_w_id = o_w_id AND c_d_id = o_d_id
			AND ol_w_id = o_w_id AND ol_d_id = o_d_id AND ol_o_id = o_id
			AND o_entry_d >= 20070101 AND c_n_id = n_nationkey
			GROUP BY c_id, n_name`,
		"Q11": `SELECT s_i_id, sum(s_order_cnt) FROM stock, supplier, nation
			WHERE s_suppkey = su_suppkey AND su_nationkey = n_nationkey AND n_name = 'GERMANY'
			GROUP BY s_i_id`,
		"Q12": `SELECT o_ol_cnt, count(*) FROM orders, orderline
			WHERE ol_w_id = o_w_id AND ol_d_id = o_d_id AND ol_o_id = o_id
			AND o_entry_d <= 20071231 AND ol_delivery_d >= 20070105 GROUP BY o_ol_cnt`,
		"Q13": `SELECT c_id, count(*) FROM customer, orders
			WHERE c_id = o_c_id AND c_w_id = o_w_id AND c_d_id = o_d_id AND o_carrier_id > 8
			GROUP BY c_id`,
		"Q14": `SELECT sum(ol_amount) FROM orderline, item
			WHERE ol_i_id = i_id AND ol_delivery_d >= 20070101 AND ol_delivery_d < 20071231`,
		"Q15": `SELECT su_suppkey, su_name, sum(ol_amount) FROM supplier, stock, orderline
			WHERE ol_supply_w_id = s_w_id AND ol_i_id = s_i_id AND s_suppkey = su_suppkey
			AND ol_delivery_d >= 20070301 GROUP BY su_suppkey, su_name`,
		"Q16": `SELECT i_name, count(*) FROM item, stock
			WHERE i_id = s_i_id AND i_price > 500 AND s_suppkey NOT IN (
				SELECT su_suppkey FROM supplier WHERE su_balance < 0)
			GROUP BY i_name`,
		"Q17": `SELECT sum(ol_amount) FROM orderline, item
			WHERE ol_i_id = i_id AND i_im_id BETWEEN 1 AND 25 AND ol_quantity < 4`,
		"Q18": `SELECT c_id, o_id, sum(ol_amount) FROM customer, orders, orderline
			WHERE c_id = o_c_id AND c_w_id = o_w_id AND c_d_id = o_d_id
			AND ol_w_id = o_w_id AND ol_d_id = o_d_id AND ol_o_id = o_id
			GROUP BY c_id, o_id ORDER BY o_id LIMIT 100`,
		"Q19": `SELECT sum(ol_amount) FROM orderline, item
			WHERE ol_i_id = i_id AND ol_quantity BETWEEN 1 AND 10
			AND i_price BETWEEN 100 AND 600 AND ol_w_id IN (1, 2, 3, 5, 7)`,
		"Q20": `SELECT su_name FROM supplier, nation
			WHERE su_nationkey = n_nationkey AND n_name = 'GERMANY' AND su_suppkey IN (
				SELECT s_suppkey FROM stock WHERE s_quantity > 50 AND s_i_id IN (
					SELECT i_id FROM item WHERE i_im_id BETWEEN 1 AND 100))`,
		"Q21": `SELECT su_name, count(*) FROM supplier, orderline, orders, stock, nation
			WHERE ol_supply_w_id = s_w_id AND ol_i_id = s_i_id AND s_suppkey = su_suppkey
			AND ol_w_id = o_w_id AND ol_d_id = o_d_id AND ol_o_id = o_id
			AND su_nationkey = n_nationkey AND n_name = 'GERMANY' AND o_entry_d > 20070101
			GROUP BY su_name`,
		"Q22": `SELECT c_n_id, count(*), sum(c_balance) FROM customer
			WHERE c_balance > 100 AND NOT EXISTS (
				SELECT o_id FROM orders WHERE o_c_id = c_id AND o_w_id = c_w_id AND o_d_id = c_d_id)
			GROUP BY c_n_id`,
	}
}

func generateTPCCH(scale float64, seed int64) map[string]*relation.Relation {
	g := datagen.New(seed)
	nC := datagen.ScaleRows(tpcchCustomers, scale, 200)
	nO := datagen.ScaleRows(tpcchOrders, scale, 200)
	nOL := datagen.ScaleRows(tpcchOrderlines, scale, 2000)
	nNO := datagen.ScaleRows(tpcchNewOrders, scale, 60)
	nH := datagen.ScaleRows(tpcchHistory, scale, 200)
	nI := datagen.ScaleRows(tpcchItems, scale, 100)
	nS := datagen.ScaleRows(tpcchStock, scale, 500)
	nSu := datagen.ScaleRows(tpcchSuppliers, scale, 20)

	warehouse := datagen.Table("warehouse", map[string][]int64{
		"w_id":  g.Seq(tpcchWarehouses),
		"w_tax": g.Uniform(tpcchWarehouses, 20),
		"w_ytd": g.Uniform(tpcchWarehouses, 100000),
	}, []string{"w_id", "w_tax", "w_ytd"})

	district := datagen.Table("district", map[string][]int64{
		"d_w_id": g.Mod(tpcchDistricts, tpcchWarehouses),
		"d_id":   divCol(g.Seq(tpcchDistricts), tpcchWarehouses, 10),
		"d_tax":  g.Uniform(tpcchDistricts, 20),
		"d_ytd":  g.Uniform(tpcchDistricts, 100000),
	}, []string{"d_w_id", "d_id", "d_tax", "d_ytd"})

	// Customers: globally unique c_id; (c_w_id, c_d_id) cycle through the
	// warehouse/district grid — d_id has only 10 distinct values, the skew
	// driver of the paper's §7.2 System-X discussion.
	custW := g.Mod(nC, tpcchWarehouses)
	custD := g.Uniform(nC, 10)
	customer := datagen.Table("customer", map[string][]int64{
		"c_w_id":     custW,
		"c_d_id":     custD,
		"c_id":       g.Seq(nC),
		"c_n_id":     g.Uniform(nC, tpcchNations),
		"c_balance":  g.UniformRange(nC, -100, 5000),
		"c_discount": g.Uniform(nC, 50),
	}, []string{"c_w_id", "c_d_id", "c_id", "c_n_id", "c_balance", "c_discount"})

	history := datagen.Table("history", map[string][]int64{
		"h_c_w_id": g.FK(nH, custW),
		"h_c_d_id": g.Uniform(nH, 10),
		"h_c_id":   g.Uniform(nH, int64(nC)),
		"h_amount": g.Uniform(nH, 5000),
		"h_date":   g.Dates(nH, 2005, 2008),
	}, []string{"h_c_w_id", "h_c_d_id", "h_c_id", "h_amount", "h_date"})

	// Orders: each order belongs to its customer's (w, d).
	orders := relation.New("orders", []string{"o_w_id", "o_d_id", "o_id", "o_c_id", "o_entry_d", "o_carrier_id", "o_ol_cnt"})
	orders.Grow(nO)
	entryDates := g.Dates(nO, 2005, 2008)
	for i := 0; i < nO; i++ {
		c := g.Rand().Intn(nC)
		orders.AppendRow(custW[c], custD[c], int64(i), int64(c), entryDates[i],
			int64(g.Rand().Intn(10)), int64(5+g.Rand().Intn(10)))
	}

	// Orderlines: ~10 per order, inheriting the order's (w, d).
	orderline := relation.New("orderline", []string{"ol_w_id", "ol_d_id", "ol_o_id", "ol_number",
		"ol_i_id", "ol_supply_w_id", "ol_delivery_d", "ol_quantity", "ol_amount"})
	orderline.Grow(nOL)
	oW, oD := orders.Col("o_w_id"), orders.Col("o_d_id")
	for i := 0; i < nOL; i++ {
		o := i % nO
		orderline.AppendRow(oW[o], oD[o], int64(o), int64(i/nO),
			int64(g.Rand().Intn(nI)), oW[o], g.Dates(1, 2005, 2008)[0],
			int64(1+g.Rand().Intn(10)), int64(g.Rand().Intn(10000)))
	}

	neworder := relation.New("neworder", []string{"no_w_id", "no_d_id", "no_o_id"})
	neworder.Grow(nNO)
	for i := 0; i < nNO; i++ {
		o := nO - 1 - i // newest orders
		neworder.AppendRow(oW[o], oD[o], int64(o))
	}

	item := datagen.Table("item", map[string][]int64{
		"i_id":    g.Seq(nI),
		"i_im_id": g.Uniform(nI, 1000),
		"i_name":  g.Uniform(nI, 1000),
		"i_price": g.UniformRange(nI, 1, 1000),
	}, []string{"i_id", "i_im_id", "i_name", "i_price"})

	// Stock: one row per (warehouse, item) slice.
	stock := relation.New("stock", []string{"s_w_id", "s_i_id", "s_suppkey", "s_quantity", "s_ytd", "s_order_cnt"})
	stock.Grow(nS)
	for i := 0; i < nS; i++ {
		w := int64(i % tpcchWarehouses)
		it := int64(i % nI)
		stock.AppendRow(w, it, (w*int64(nI)+it)%int64(nSu), int64(g.Rand().Intn(100)),
			int64(g.Rand().Intn(1000)), int64(g.Rand().Intn(50)))
	}

	region := datagen.Table("region", map[string][]int64{
		"r_regionkey": g.Seq(tpcchRegions),
		"r_name":      encNames(tpcchRegions, []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}),
	}, []string{"r_regionkey", "r_name"})

	nationNames := make([]string, tpcchNations)
	for i := range nationNames {
		nationNames[i] = "NATION" + itoa(i%90)
	}
	nationNames[7] = "GERMANY"
	nationNames[8] = "CAMBODIA"
	nation := datagen.Table("nation", map[string][]int64{
		"n_nationkey": g.Seq(tpcchNations),
		"n_regionkey": g.Mod(tpcchNations, tpcchRegions),
		"n_name":      encNames(tpcchNations, nationNames),
	}, []string{"n_nationkey", "n_regionkey", "n_name"})

	supplier := datagen.Table("supplier", map[string][]int64{
		"su_suppkey":   g.Seq(nSu),
		"su_nationkey": g.Mod(nSu, tpcchNations),
		"su_balance":   g.UniformRange(nSu, -500, 5000),
		"su_name":      g.Uniform(nSu, 100000),
	}, []string{"su_suppkey", "su_nationkey", "su_balance", "su_name"})

	return map[string]*relation.Relation{
		"warehouse": warehouse, "district": district, "customer": customer,
		"history": history, "neworder": neworder, "orders": orders,
		"orderline": orderline, "item": item, "stock": stock,
		"region": region, "nation": nation, "supplier": supplier,
	}
}

// updateTPCCH generates frac additional rows for the growing transactional
// tables (orders, orderline, neworder, history), keyed after the existing
// data — the paper's Exp. 3a bulk-update procedure.
func updateTPCCH(base map[string]*relation.Relation, frac float64, seed int64) map[string]*relation.Relation {
	g := datagen.New(seed)
	out := make(map[string]*relation.Relation)

	orders := base["orders"]
	customer := base["customer"]
	nC := customer.Rows()
	custW, custD := customer.Col("c_w_id"), customer.Col("c_d_id")
	nNewO := int(float64(orders.Rows()) * frac)
	startO := int64(orders.Rows())

	no := relation.New("orders", orders.Columns())
	for i := 0; i < nNewO; i++ {
		c := g.Rand().Intn(nC)
		no.AppendRow(custW[c], custD[c], startO+int64(i), int64(c),
			g.Dates(1, 2008, 2009)[0], int64(g.Rand().Intn(10)), int64(5+g.Rand().Intn(10)))
	}
	out["orders"] = no

	ol := base["orderline"]
	nNewOL := int(float64(ol.Rows()) * frac)
	nol := relation.New("orderline", ol.Columns())
	nI := base["item"].Rows()
	for i := 0; i < nNewOL; i++ {
		o := i % maxInt(nNewO, 1)
		nol.AppendRow(no.Col("o_w_id")[o], no.Col("o_d_id")[o], startO+int64(o), int64(i/maxInt(nNewO, 1)),
			int64(g.Rand().Intn(nI)), no.Col("o_w_id")[o], g.Dates(1, 2008, 2009)[0],
			int64(1+g.Rand().Intn(10)), int64(g.Rand().Intn(10000)))
	}
	out["orderline"] = nol

	nn := relation.New("neworder", base["neworder"].Columns())
	for i := 0; i < int(float64(base["neworder"].Rows())*frac); i++ {
		o := i % maxInt(nNewO, 1)
		nn.AppendRow(no.Col("o_w_id")[o], no.Col("o_d_id")[o], startO+int64(o))
	}
	out["neworder"] = nn

	h := base["history"]
	nh := relation.New("history", h.Columns())
	for i := 0; i < int(float64(h.Rows())*frac); i++ {
		c := g.Rand().Intn(nC)
		nh.AppendRow(custW[c], custD[c], int64(c), int64(g.Rand().Intn(5000)), g.Dates(1, 2008, 2009)[0])
	}
	out["history"] = nh
	return out
}

// divCol maps sequence i to (i / wperiod) % m — district ids within
// warehouses.
func divCol(seq []int64, wperiod int64, m int64) []int64 {
	out := make([]int64, len(seq))
	for i, v := range seq {
		out[i] = (v / wperiod) % m
	}
	return out
}

func encNames(n int, names []string) []int64 {
	out := make([]int64, n)
	for i := 0; i < n; i++ {
		out[i] = encString(names[i%len(names)])
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
