package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// TestNewTenantDigestPinned pins what newTenant produces for the tenant
// specs the benchmark's fleets use (bench/loadgen.go planTenants: scale 0.3,
// default episodes, guard on): the bootstrapped model, bit for bit, and the
// design it deploys. serve_mixed and crash_recover carry no digest of their
// own, so this is the statement that a change to how a tenant is assembled
// — or a recovery that restores instead of re-bootstrapping — stands up the
// same tenant. The constants were recorded at PR 18, before newTenant moved
// onto the shared assembly; they are never recomputed.
//
// amd64 only, like core's TestTrainingDigestPinned.
func TestNewTenantDigestPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests were recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	for _, tc := range []struct {
		bench  string
		seed   int64
		model  string
		design string
	}{
		{"micro", 1, "b2d01eb31a578711de577b7f9afe0c2e8f59a9220cfc16c75341d77dfe73fc71",
			"a=HASH([a_c]);b=HASH([b_id]);c=HASH([c_id]);"},
		{"ssb", 3, "958d92647b182011b3c531e5a19266798a4d123d37bf7ec09554d7431fb1c368",
			"customer=HASH([c_custkey]);date=HASH([d_datekey]);lineorder=HASH([lo_orderdate]);part=HASH([p_partkey]);supplier=HASH([s_suppkey]);"},
		{"tpcch", 1, "1bffe4185ebe0bd4505dafdff9c6f3bb310d8d89867321ad7e33fba153b44540",
			"customer=HASH([c_d_id]);district=HASH([d_id]);history=HASH([h_c_id]);item=HASH([i_id]);nation=HASH([n_nationkey]);neworder=HASH([no_d_id]);orderline=HASH([ol_i_id]);orders=HASH([o_d_id]);region=HASH([r_regionkey]);stock=HASH([s_i_id]);supplier=REPLICATE;warehouse=HASH([w_id]);"},
		{"tpch", 7, "25eb88413562b0dea6a56e84f77e715e405d3f64cf515d817002706e1f869975",
			"customer=HASH([c_custkey]);lineitem=HASH([l_orderkey]);nation=HASH([n_nationkey]);orders=HASH([o_orderkey]);part=HASH([p_partkey]);partsupp=HASH([ps_partkey]);region=HASH([r_regionkey]);supplier=HASH([s_suppkey]);"},
	} {
		t.Run(tc.bench, func(t *testing.T) {
			tn, err := newTenant(TenantSpec{ID: "t1", Bench: tc.bench, Scale: 0.3, Seed: tc.seed}, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer tn.advCancel()
			model, err := tn.adv.SaveModel()
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(model)
			if got := hex.EncodeToString(sum[:]); got != tc.model {
				t.Errorf("bootstrapped model SHA-256\n  got  %s\n  want %s", got, tc.model)
			}
			deployed := tn.Stats().Design
			tables := make([]string, 0, len(deployed))
			for tbl := range deployed {
				tables = append(tables, tbl)
			}
			sort.Strings(tables)
			var sig strings.Builder
			for _, tbl := range tables {
				sig.WriteString(tbl + "=" + deployed[tbl] + ";")
			}
			if got := sig.String(); got != tc.design {
				t.Errorf("deployed design\n  got  %s\n  want %s", got, tc.design)
			}
		})
	}
}
