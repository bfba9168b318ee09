package benchmarks

import (
	"partadvisor/internal/datagen"
	"partadvisor/internal/relation"
	"partadvisor/internal/schema"
	"partadvisor/internal/valenc"
	"partadvisor/internal/workload"
)

// TPC-DS repro-scale row counts (ratio-preserving from SF=100; the three
// sales channels keep their 4:2:1 ratio, returns are ~10% of sales, and
// item is the shared medium-sized dimension whose co-partitioning with the
// fact tables is the paper's non-obvious Fig. 3c winner).
const (
	dsStoreSales     = 72000
	dsCatalogSales   = 36000
	dsWebSales       = 18000
	dsStoreReturns   = 7200
	dsCatalogReturns = 3600
	dsWebReturns     = 1800
	dsInventory      = 40000
	dsItem           = 2040
	dsCustomer       = 2000
	dsCustomerAddr   = 1000
	dsCustomerDemo   = 1920
	dsHouseholdDemo  = 720
	dsIncomeBand     = 20
	dsStore          = 40
	dsCallCenter     = 10
	dsCatalogPage    = 204
	dsWebSite        = 8
	dsWebPage        = 204
	dsWarehouse      = 15
	dsPromotion      = 100
	dsReason         = 55
	dsShipMode       = 20
	dsTimeDim        = 864
)

// TPCDS returns the TPC-DS benchmark: 24 tables (7 fact, 17 dimension) and
// 60 analytical queries — the subset size the paper could execute on
// Postgres-XL (§7.1).
func TPCDS() *Benchmark {
	sch := schema.New("tpcds", dsTables(), dsForeignKeys())
	wl := workload.MustParse("tpcds", sch, tpcdsQueries(), tpcdsOrder(), 8)
	return &Benchmark{
		Name:     "tpcds",
		Schema:   sch,
		Workload: wl,
		Generate: generateTPCDS,
	}
}

func dsTables() []*schema.Table {
	return []*schema.Table{
		{
			Name: "store_sales",
			Attributes: attrs(8, "ss_item_sk", "ss_customer_sk", "ss_cdemo_sk", "ss_hdemo_sk",
				"ss_addr_sk", "ss_store_sk", "ss_promo_sk", "ss_sold_date_sk", "ss_sold_time_sk",
				"ss_ticket_number", "ss_quantity", "ss_sales_price"),
			PrimaryKey: []string{"ss_ticket_number"},
		},
		{
			Name: "store_returns",
			Attributes: attrs(8, "sr_item_sk", "sr_customer_sk", "sr_ticket_number",
				"sr_returned_date_sk", "sr_reason_sk", "sr_return_amt"),
			PrimaryKey: []string{"sr_ticket_number"},
		},
		{
			Name: "catalog_sales",
			Attributes: attrs(8, "cs_item_sk", "cs_bill_customer_sk", "cs_call_center_sk",
				"cs_catalog_page_sk", "cs_ship_mode_sk", "cs_warehouse_sk", "cs_promo_sk",
				"cs_sold_date_sk", "cs_order_number", "cs_quantity", "cs_sales_price"),
			PrimaryKey: []string{"cs_order_number"},
		},
		{
			Name: "catalog_returns",
			Attributes: attrs(8, "cr_item_sk", "cr_order_number", "cr_returning_customer_sk",
				"cr_returned_date_sk", "cr_reason_sk", "cr_return_amount"),
			PrimaryKey: []string{"cr_order_number"},
		},
		{
			Name: "web_sales",
			Attributes: attrs(8, "ws_item_sk", "ws_bill_customer_sk", "ws_web_site_sk",
				"ws_web_page_sk", "ws_ship_mode_sk", "ws_warehouse_sk", "ws_promo_sk",
				"ws_sold_date_sk", "ws_order_number", "ws_quantity", "ws_sales_price"),
			PrimaryKey: []string{"ws_order_number"},
		},
		{
			Name: "web_returns",
			Attributes: attrs(8, "wr_item_sk", "wr_order_number", "wr_returning_customer_sk",
				"wr_returned_date_sk", "wr_reason_sk", "wr_return_amt"),
			PrimaryKey: []string{"wr_order_number"},
		},
		{
			Name:       "inventory",
			Attributes: attrs(8, "inv_item_sk", "inv_warehouse_sk", "inv_date_sk", "inv_quantity_on_hand"),
			PrimaryKey: []string{"inv_item_sk"},
		},
		{
			Name: "item",
			Attributes: attrs(8, "i_item_sk", "i_brand_id", "i_class_id", "i_category_id",
				"i_manufact_id", "i_current_price"),
			PrimaryKey: []string{"i_item_sk"},
		},
		{
			Name: "customer",
			Attributes: attrs(8, "c_customer_sk", "c_current_cdemo_sk", "c_current_hdemo_sk",
				"c_current_addr_sk", "c_birth_year"),
			PrimaryKey: []string{"c_customer_sk"},
		},
		{
			Name:       "customer_address",
			Attributes: attrs(8, "ca_address_sk", "ca_state", "ca_gmt_offset"),
			PrimaryKey: []string{"ca_address_sk"},
		},
		{
			Name:       "customer_demographics",
			Attributes: attrs(8, "cd_demo_sk", "cd_gender", "cd_marital_status", "cd_education_status"),
			PrimaryKey: []string{"cd_demo_sk"},
		},
		{
			Name:       "household_demographics",
			Attributes: attrs(8, "hd_demo_sk", "hd_income_band_sk", "hd_dep_count"),
			PrimaryKey: []string{"hd_demo_sk"},
		},
		{
			Name:       "income_band",
			Attributes: attrs(8, "ib_income_band_sk", "ib_lower_bound", "ib_upper_bound"),
			PrimaryKey: []string{"ib_income_band_sk"},
		},
		{
			Name:       "store",
			Attributes: attrs(8, "s_store_sk", "s_state", "s_number_employees"),
			PrimaryKey: []string{"s_store_sk"},
		},
		{
			Name:       "call_center",
			Attributes: attrs(8, "cc_call_center_sk", "cc_class"),
			PrimaryKey: []string{"cc_call_center_sk"},
		},
		{
			Name:       "catalog_page",
			Attributes: attrs(8, "cp_catalog_page_sk", "cp_type"),
			PrimaryKey: []string{"cp_catalog_page_sk"},
		},
		{
			Name:       "web_site",
			Attributes: attrs(8, "web_site_sk", "web_class"),
			PrimaryKey: []string{"web_site_sk"},
		},
		{
			Name:       "web_page",
			Attributes: attrs(8, "wp_web_page_sk", "wp_char_count"),
			PrimaryKey: []string{"wp_web_page_sk"},
		},
		{
			Name:       "warehouse",
			Attributes: attrs(8, "w_warehouse_sk", "w_sq_ft"),
			PrimaryKey: []string{"w_warehouse_sk"},
		},
		{
			Name:       "promotion",
			Attributes: attrs(8, "p_promo_sk", "p_channel"),
			PrimaryKey: []string{"p_promo_sk"},
		},
		{
			Name:       "reason",
			Attributes: attrs(8, "r_reason_sk", "r_reason_desc"),
			PrimaryKey: []string{"r_reason_sk"},
		},
		{
			Name:       "ship_mode",
			Attributes: attrs(8, "sm_ship_mode_sk", "sm_type"),
			PrimaryKey: []string{"sm_ship_mode_sk"},
		},
		{
			Name:       "time_dim",
			Attributes: attrs(8, "t_time_sk", "t_hour"),
			PrimaryKey: []string{"t_time_sk"},
		},
		{
			Name:       "date_dim",
			Attributes: attrs(8, "d_date_sk", "d_year", "d_moy", "d_dom"),
			PrimaryKey: []string{"d_date_sk"},
		},
	}
}

func dsForeignKeys() []schema.ForeignKey {
	fk := func(ft, fa, tt, ta string) schema.ForeignKey {
		return schema.ForeignKey{FromTable: ft, FromAttr: fa, ToTable: tt, ToAttr: ta}
	}
	return []schema.ForeignKey{
		fk("store_sales", "ss_item_sk", "item", "i_item_sk"),
		fk("store_sales", "ss_customer_sk", "customer", "c_customer_sk"),
		fk("store_sales", "ss_cdemo_sk", "customer_demographics", "cd_demo_sk"),
		fk("store_sales", "ss_hdemo_sk", "household_demographics", "hd_demo_sk"),
		fk("store_sales", "ss_addr_sk", "customer_address", "ca_address_sk"),
		fk("store_sales", "ss_store_sk", "store", "s_store_sk"),
		fk("store_sales", "ss_promo_sk", "promotion", "p_promo_sk"),
		fk("store_sales", "ss_sold_date_sk", "date_dim", "d_date_sk"),
		fk("store_sales", "ss_sold_time_sk", "time_dim", "t_time_sk"),
		fk("store_returns", "sr_item_sk", "item", "i_item_sk"),
		fk("store_returns", "sr_customer_sk", "customer", "c_customer_sk"),
		fk("store_returns", "sr_ticket_number", "store_sales", "ss_ticket_number"),
		fk("store_returns", "sr_item_sk", "store_sales", "ss_item_sk"),
		fk("store_returns", "sr_returned_date_sk", "date_dim", "d_date_sk"),
		fk("store_returns", "sr_reason_sk", "reason", "r_reason_sk"),
		fk("catalog_sales", "cs_item_sk", "item", "i_item_sk"),
		fk("catalog_sales", "cs_bill_customer_sk", "customer", "c_customer_sk"),
		fk("catalog_sales", "cs_call_center_sk", "call_center", "cc_call_center_sk"),
		fk("catalog_sales", "cs_catalog_page_sk", "catalog_page", "cp_catalog_page_sk"),
		fk("catalog_sales", "cs_ship_mode_sk", "ship_mode", "sm_ship_mode_sk"),
		fk("catalog_sales", "cs_warehouse_sk", "warehouse", "w_warehouse_sk"),
		fk("catalog_sales", "cs_promo_sk", "promotion", "p_promo_sk"),
		fk("catalog_sales", "cs_sold_date_sk", "date_dim", "d_date_sk"),
		fk("catalog_returns", "cr_item_sk", "item", "i_item_sk"),
		fk("catalog_returns", "cr_order_number", "catalog_sales", "cs_order_number"),
		fk("catalog_returns", "cr_item_sk", "catalog_sales", "cs_item_sk"),
		fk("catalog_returns", "cr_returning_customer_sk", "customer", "c_customer_sk"),
		fk("catalog_returns", "cr_returned_date_sk", "date_dim", "d_date_sk"),
		fk("catalog_returns", "cr_reason_sk", "reason", "r_reason_sk"),
		fk("web_sales", "ws_item_sk", "item", "i_item_sk"),
		fk("web_sales", "ws_bill_customer_sk", "customer", "c_customer_sk"),
		fk("web_sales", "ws_web_site_sk", "web_site", "web_site_sk"),
		fk("web_sales", "ws_web_page_sk", "web_page", "wp_web_page_sk"),
		fk("web_sales", "ws_ship_mode_sk", "ship_mode", "sm_ship_mode_sk"),
		fk("web_sales", "ws_warehouse_sk", "warehouse", "w_warehouse_sk"),
		fk("web_sales", "ws_promo_sk", "promotion", "p_promo_sk"),
		fk("web_sales", "ws_sold_date_sk", "date_dim", "d_date_sk"),
		fk("web_returns", "wr_item_sk", "item", "i_item_sk"),
		fk("web_returns", "wr_order_number", "web_sales", "ws_order_number"),
		fk("web_returns", "wr_item_sk", "web_sales", "ws_item_sk"),
		fk("web_returns", "wr_returning_customer_sk", "customer", "c_customer_sk"),
		fk("web_returns", "wr_returned_date_sk", "date_dim", "d_date_sk"),
		fk("web_returns", "wr_reason_sk", "reason", "r_reason_sk"),
		fk("inventory", "inv_item_sk", "item", "i_item_sk"),
		fk("inventory", "inv_warehouse_sk", "warehouse", "w_warehouse_sk"),
		fk("inventory", "inv_date_sk", "date_dim", "d_date_sk"),
		fk("customer", "c_current_cdemo_sk", "customer_demographics", "cd_demo_sk"),
		fk("customer", "c_current_hdemo_sk", "household_demographics", "hd_demo_sk"),
		fk("customer", "c_current_addr_sk", "customer_address", "ca_address_sk"),
		fk("household_demographics", "hd_income_band_sk", "income_band", "ib_income_band_sk"),
	}
}

func generateTPCDS(scale float64, seed int64) map[string]*relation.Relation {
	g := datagen.New(seed)
	n := func(base, min int) int { return datagen.ScaleRows(base, scale, min) }

	// date_dim: 1998-2003, 28-day months.
	dateDim := relation.New("date_dim", []string{"d_date_sk", "d_year", "d_moy", "d_dom"})
	for y := 1998; y <= 2003; y++ {
		for m := 1; m <= 12; m++ {
			for d := 1; d <= 28; d++ {
				dateDim.AppendRow(valenc.EncodeDate(y, m, d), int64(y), int64(m), int64(d))
			}
		}
	}
	dateKeys := dateDim.Col("d_date_sk")

	simpleDim := func(name, key string, rows int, extra map[string]func(int) []int64, order []string) *relation.Relation {
		cols := map[string][]int64{key: g.Seq(rows)}
		// Generate in declared column order: iterating the map would draw
		// from the shared RNG in map order (nondeterministic across runs).
		for _, c := range order {
			if f, ok := extra[c]; ok {
				cols[c] = f(rows)
			}
		}
		return datagen.Table(name, cols, order)
	}

	nItem := n(dsItem, 100)
	item := simpleDim("item", "i_item_sk", nItem, map[string]func(int) []int64{
		"i_brand_id":      func(r int) []int64 { return g.Uniform(r, 1000) },
		"i_class_id":      func(r int) []int64 { return g.Uniform(r, 100) },
		"i_category_id":   func(r int) []int64 { return g.Uniform(r, 10) },
		"i_manufact_id":   func(r int) []int64 { return g.Uniform(r, 1000) },
		"i_current_price": func(r int) []int64 { return g.UniformRange(r, 1, 300) },
	}, []string{"i_item_sk", "i_brand_id", "i_class_id", "i_category_id", "i_manufact_id", "i_current_price"})

	nCA := n(dsCustomerAddr, 50)
	ca := simpleDim("customer_address", "ca_address_sk", nCA, map[string]func(int) []int64{
		"ca_state":      func(r int) []int64 { return g.Uniform(r, 50) },
		"ca_gmt_offset": func(r int) []int64 { return g.UniformRange(r, -10, -5) },
	}, []string{"ca_address_sk", "ca_state", "ca_gmt_offset"})

	nCD := n(dsCustomerDemo, 50)
	cd := simpleDim("customer_demographics", "cd_demo_sk", nCD, map[string]func(int) []int64{
		"cd_gender":           func(r int) []int64 { return g.Uniform(r, 2) },
		"cd_marital_status":   func(r int) []int64 { return g.Uniform(r, 5) },
		"cd_education_status": func(r int) []int64 { return g.Uniform(r, 7) },
	}, []string{"cd_demo_sk", "cd_gender", "cd_marital_status", "cd_education_status"})

	nHD := n(dsHouseholdDemo, 30)
	hd := simpleDim("household_demographics", "hd_demo_sk", nHD, map[string]func(int) []int64{
		"hd_income_band_sk": func(r int) []int64 { return g.Uniform(r, dsIncomeBand) },
		"hd_dep_count":      func(r int) []int64 { return g.Uniform(r, 10) },
	}, []string{"hd_demo_sk", "hd_income_band_sk", "hd_dep_count"})

	ib := simpleDim("income_band", "ib_income_band_sk", dsIncomeBand, map[string]func(int) []int64{
		"ib_lower_bound": func(r int) []int64 { return g.Uniform(r, 100000) },
		"ib_upper_bound": func(r int) []int64 { return g.Uniform(r, 200000) },
	}, []string{"ib_income_band_sk", "ib_lower_bound", "ib_upper_bound"})

	nCust := n(dsCustomer, 100)
	customer := datagen.Table("customer", map[string][]int64{
		"c_customer_sk":      g.Seq(nCust),
		"c_current_cdemo_sk": g.Uniform(nCust, int64(nCD)),
		"c_current_hdemo_sk": g.Uniform(nCust, int64(nHD)),
		"c_current_addr_sk":  g.Uniform(nCust, int64(nCA)),
		"c_birth_year":       g.UniformRange(nCust, 1930, 2000),
	}, []string{"c_customer_sk", "c_current_cdemo_sk", "c_current_hdemo_sk", "c_current_addr_sk", "c_birth_year"})

	store := simpleDim("store", "s_store_sk", n(dsStore, 5), map[string]func(int) []int64{
		"s_state":            func(r int) []int64 { return g.Uniform(r, 20) },
		"s_number_employees": func(r int) []int64 { return g.UniformRange(r, 50, 300) },
	}, []string{"s_store_sk", "s_state", "s_number_employees"})
	cc := simpleDim("call_center", "cc_call_center_sk", dsCallCenter, map[string]func(int) []int64{
		"cc_class": func(r int) []int64 { return g.Uniform(r, 3) },
	}, []string{"cc_call_center_sk", "cc_class"})
	cp := simpleDim("catalog_page", "cp_catalog_page_sk", n(dsCatalogPage, 20), map[string]func(int) []int64{
		"cp_type": func(r int) []int64 { return g.Uniform(r, 3) },
	}, []string{"cp_catalog_page_sk", "cp_type"})
	webSite := simpleDim("web_site", "web_site_sk", dsWebSite, map[string]func(int) []int64{
		"web_class": func(r int) []int64 { return g.Uniform(r, 2) },
	}, []string{"web_site_sk", "web_class"})
	wp := simpleDim("web_page", "wp_web_page_sk", n(dsWebPage, 20), map[string]func(int) []int64{
		"wp_char_count": func(r int) []int64 { return g.Uniform(r, 8000) },
	}, []string{"wp_web_page_sk", "wp_char_count"})
	wh := simpleDim("warehouse", "w_warehouse_sk", dsWarehouse, map[string]func(int) []int64{
		"w_sq_ft": func(r int) []int64 { return g.Uniform(r, 1000000) },
	}, []string{"w_warehouse_sk", "w_sq_ft"})
	promo := simpleDim("promotion", "p_promo_sk", n(dsPromotion, 10), map[string]func(int) []int64{
		"p_channel": func(r int) []int64 { return g.Uniform(r, 4) },
	}, []string{"p_promo_sk", "p_channel"})
	reason := simpleDim("reason", "r_reason_sk", dsReason, map[string]func(int) []int64{
		"r_reason_desc": func(r int) []int64 { return g.Uniform(r, 100) },
	}, []string{"r_reason_sk", "r_reason_desc"})
	sm := simpleDim("ship_mode", "sm_ship_mode_sk", dsShipMode, map[string]func(int) []int64{
		"sm_type": func(r int) []int64 { return g.Uniform(r, 6) },
	}, []string{"sm_ship_mode_sk", "sm_type"})
	timeDim := simpleDim("time_dim", "t_time_sk", dsTimeDim, map[string]func(int) []int64{
		"t_hour": func(r int) []int64 { return g.Mod(r, 24) },
	}, []string{"t_time_sk", "t_hour"})

	nSS := n(dsStoreSales, 4000)
	ss := datagen.Table("store_sales", map[string][]int64{
		"ss_item_sk":       g.Uniform(nSS, int64(nItem)),
		"ss_customer_sk":   g.Uniform(nSS, int64(nCust)),
		"ss_cdemo_sk":      g.Uniform(nSS, int64(nCD)),
		"ss_hdemo_sk":      g.Uniform(nSS, int64(nHD)),
		"ss_addr_sk":       g.Uniform(nSS, int64(nCA)),
		"ss_store_sk":      g.Uniform(nSS, int64(store.Rows())),
		"ss_promo_sk":      g.Uniform(nSS, int64(promo.Rows())),
		"ss_sold_date_sk":  g.FK(nSS, dateKeys),
		"ss_sold_time_sk":  g.Uniform(nSS, dsTimeDim),
		"ss_ticket_number": g.Seq(nSS),
		"ss_quantity":      g.UniformRange(nSS, 1, 100),
		"ss_sales_price":   g.Uniform(nSS, 20000),
	}, []string{"ss_item_sk", "ss_customer_sk", "ss_cdemo_sk", "ss_hdemo_sk", "ss_addr_sk",
		"ss_store_sk", "ss_promo_sk", "ss_sold_date_sk", "ss_sold_time_sk", "ss_ticket_number",
		"ss_quantity", "ss_sales_price"})

	// Returns reference actual sales rows so channel-internal joins hit.
	nSR := n(dsStoreReturns, 400)
	sr := relation.New("store_returns", []string{"sr_item_sk", "sr_customer_sk", "sr_ticket_number",
		"sr_returned_date_sk", "sr_reason_sk", "sr_return_amt"})
	sr.Grow(nSR)
	for i := 0; i < nSR; i++ {
		row := g.Rand().Intn(nSS)
		sr.AppendRow(ss.Col("ss_item_sk")[row], ss.Col("ss_customer_sk")[row], ss.Col("ss_ticket_number")[row],
			dateKeys[g.Rand().Intn(len(dateKeys))], int64(g.Rand().Intn(dsReason)), int64(g.Rand().Intn(5000)))
	}

	nCS := n(dsCatalogSales, 2000)
	cs := datagen.Table("catalog_sales", map[string][]int64{
		"cs_item_sk":          g.Uniform(nCS, int64(nItem)),
		"cs_bill_customer_sk": g.Uniform(nCS, int64(nCust)),
		"cs_call_center_sk":   g.Uniform(nCS, dsCallCenter),
		"cs_catalog_page_sk":  g.Uniform(nCS, int64(cp.Rows())),
		"cs_ship_mode_sk":     g.Uniform(nCS, dsShipMode),
		"cs_warehouse_sk":     g.Uniform(nCS, dsWarehouse),
		"cs_promo_sk":         g.Uniform(nCS, int64(promo.Rows())),
		"cs_sold_date_sk":     g.FK(nCS, dateKeys),
		"cs_order_number":     g.Seq(nCS),
		"cs_quantity":         g.UniformRange(nCS, 1, 100),
		"cs_sales_price":      g.Uniform(nCS, 20000),
	}, []string{"cs_item_sk", "cs_bill_customer_sk", "cs_call_center_sk", "cs_catalog_page_sk",
		"cs_ship_mode_sk", "cs_warehouse_sk", "cs_promo_sk", "cs_sold_date_sk", "cs_order_number",
		"cs_quantity", "cs_sales_price"})

	nCR := n(dsCatalogReturns, 200)
	cr := relation.New("catalog_returns", []string{"cr_item_sk", "cr_order_number",
		"cr_returning_customer_sk", "cr_returned_date_sk", "cr_reason_sk", "cr_return_amount"})
	cr.Grow(nCR)
	for i := 0; i < nCR; i++ {
		row := g.Rand().Intn(nCS)
		cr.AppendRow(cs.Col("cs_item_sk")[row], cs.Col("cs_order_number")[row],
			cs.Col("cs_bill_customer_sk")[row], dateKeys[g.Rand().Intn(len(dateKeys))],
			int64(g.Rand().Intn(dsReason)), int64(g.Rand().Intn(5000)))
	}

	nWS := n(dsWebSales, 1000)
	ws := datagen.Table("web_sales", map[string][]int64{
		"ws_item_sk":          g.Uniform(nWS, int64(nItem)),
		"ws_bill_customer_sk": g.Uniform(nWS, int64(nCust)),
		"ws_web_site_sk":      g.Uniform(nWS, dsWebSite),
		"ws_web_page_sk":      g.Uniform(nWS, int64(wp.Rows())),
		"ws_ship_mode_sk":     g.Uniform(nWS, dsShipMode),
		"ws_warehouse_sk":     g.Uniform(nWS, dsWarehouse),
		"ws_promo_sk":         g.Uniform(nWS, int64(promo.Rows())),
		"ws_sold_date_sk":     g.FK(nWS, dateKeys),
		"ws_order_number":     g.Seq(nWS),
		"ws_quantity":         g.UniformRange(nWS, 1, 100),
		"ws_sales_price":      g.Uniform(nWS, 20000),
	}, []string{"ws_item_sk", "ws_bill_customer_sk", "ws_web_site_sk", "ws_web_page_sk",
		"ws_ship_mode_sk", "ws_warehouse_sk", "ws_promo_sk", "ws_sold_date_sk", "ws_order_number",
		"ws_quantity", "ws_sales_price"})

	nWR := n(dsWebReturns, 100)
	wr := relation.New("web_returns", []string{"wr_item_sk", "wr_order_number",
		"wr_returning_customer_sk", "wr_returned_date_sk", "wr_reason_sk", "wr_return_amt"})
	wr.Grow(nWR)
	for i := 0; i < nWR; i++ {
		row := g.Rand().Intn(nWS)
		wr.AppendRow(ws.Col("ws_item_sk")[row], ws.Col("ws_order_number")[row],
			ws.Col("ws_bill_customer_sk")[row], dateKeys[g.Rand().Intn(len(dateKeys))],
			int64(g.Rand().Intn(dsReason)), int64(g.Rand().Intn(5000)))
	}

	nInv := n(dsInventory, 2000)
	inv := datagen.Table("inventory", map[string][]int64{
		"inv_item_sk":          g.Uniform(nInv, int64(nItem)),
		"inv_warehouse_sk":     g.Uniform(nInv, dsWarehouse),
		"inv_date_sk":          g.FK(nInv, dateKeys),
		"inv_quantity_on_hand": g.Uniform(nInv, 1000),
	}, []string{"inv_item_sk", "inv_warehouse_sk", "inv_date_sk", "inv_quantity_on_hand"})

	return map[string]*relation.Relation{
		"store_sales": ss, "store_returns": sr, "catalog_sales": cs, "catalog_returns": cr,
		"web_sales": ws, "web_returns": wr, "inventory": inv,
		"item": item, "customer": customer, "customer_address": ca,
		"customer_demographics": cd, "household_demographics": hd, "income_band": ib,
		"store": store, "call_center": cc, "catalog_page": cp, "web_site": webSite,
		"web_page": wp, "warehouse": wh, "promotion": promo, "reason": reason,
		"ship_mode": sm, "time_dim": timeDim, "date_dim": dateDim,
	}
}
