package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"partadvisor/internal/core"
	"partadvisor/internal/durable"
)

// newTenantPins are the bootstrapped tenants of the benchmark's fleets
// (bench/loadgen.go planTenants: scale 0.3, default episodes, guard on): the
// model SHA-256 and the deployed design, recorded before newTenant moved
// onto the shared assembly. They are never recomputed.
var newTenantPins = []struct {
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
}

func skipUnlessAMD64(t *testing.T) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests were recorded on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
}

// modelSHA is the SHA-256 of the tenant's serialized Q-network.
func modelSHA(t *testing.T, tn *Tenant) string {
	t.Helper()
	model, err := tn.adv.SaveModel()
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(model)
	return hex.EncodeToString(sum[:])
}

// designSig renders the tenant's deployed design in table order.
func designSig(tn *Tenant) string {
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
	return sig.String()
}

// checkpointDigest hashes everything a checkpoint restores: the agent blob
// (both networks, Adam moments, replay buffer, ε), the training counters
// and the RNG position.
func checkpointDigest(ck *core.Checkpoint) string {
	h := sha256.New()
	h.Write(ck.Agent)
	fmt.Fprintf(h, "|%d|%d|%d|%d|%d", ck.EpisodesTrained, ck.StepsTrained, ck.TrainUpdates,
		ck.RNGInt63, ck.RNGUint64)
	return hex.EncodeToString(h.Sum(nil))
}

// recordMix feeds the tenant's workload monitor a fixed observed window:
// every query of the workload, weighted by its position.
func recordMix(t *testing.T, tn *Tenant, weight func(i int) float64) {
	t.Helper()
	tn.monMu.Lock()
	defer tn.monMu.Unlock()
	for i, q := range tn.wl.Queries {
		if err := tn.mon.Record(q.Name, weight(i)); err != nil {
			t.Fatal(err)
		}
	}
}

// idleSpec is a tenant whose advising loop never ticks during a test, so
// the test goroutine may drive adviseOnce itself.
func idleSpec(bench string, seed int64) TenantSpec {
	spec := TenantSpec{ID: "t1", Bench: bench, Scale: 0.3, Seed: seed, AdviseEveryMS: time.Hour.Milliseconds()}
	if err := spec.normalize(); err != nil {
		panic(err)
	}
	return spec
}

// TestNewTenantDigestPinned pins what newTenant produces for the tenant
// specs the benchmark's fleets use: the bootstrapped model, bit for bit, and
// the design it deploys. serve_mixed and crash_recover carry no digest of
// their own, so this is the statement that a change to how a tenant is
// assembled stands up the same tenant.
//
// amd64 only, like core's TestTrainingDigestPinned.
func TestNewTenantDigestPinned(t *testing.T) {
	skipUnlessAMD64(t)
	for _, tc := range newTenantPins {
		t.Run(tc.bench, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.StateDir = t.TempDir()
			tn, err := newTenant(TenantSpec{ID: "t1", Bench: tc.bench, Scale: 0.3, Seed: tc.seed}, cfg, durable.OS)
			if err != nil {
				t.Fatal(err)
			}
			defer tn.advCancel()
			if got := modelSHA(t, tn); got != tc.model {
				t.Errorf("bootstrapped model SHA-256\n  got  %s\n  want %s", got, tc.model)
			}
			if got := designSig(tn); got != tc.design {
				t.Errorf("deployed design\n  got  %s\n  want %s", got, tc.design)
			}
		})
	}
}

// TestRecoveredTenantDigestPinned pins what recovery hands back for the
// benchmark's tenant specs: a tenant is created, advised twice on a fixed
// observed mix, checkpointed as a generation and recovered into a new
// server. The restored training state and the design recovery deploys are
// hashed with constants recorded while recovery still re-ran the offline
// bootstrap underneath the restore; a recovery that restores without it
// must hand back the same advisor. The model after one more advise cycle on
// a second mix was re-recorded when a restored advisor stopped skipping the
// online episodes its snapshot held: until then that cycle trained nothing
// and the model equalled the restored one. Engine accounting (repartitions, bytes moved, the
// simulated clock) is deliberately not hashed: it counts the deploys that
// led up to the restored design, not the design.
//
// amd64 only, like TestNewTenantDigestPinned.
func TestRecoveredTenantDigestPinned(t *testing.T) {
	skipUnlessAMD64(t)
	for _, tc := range []struct {
		bench    string
		seed     int64
		restored string
		design   string
		model    string
	}{
		{"micro", 1, "c7be70e8190dc0f2dd447e1129a6800b0093ed0e4035d0474220f90f7368649d",
			"a=HASH([a_b]);b=HASH([b_id]);c=HASH([c_id]);",
			"a01b5cd994af33c4c030d0a80d3396c423cbbb4e8f8cdc1ee69ece1fc6a1fd54"},
		{"ssb", 3, "fb75c8bda30389d2e2aa7d58259c1e077c3e75d54a4a5be25389f76d27eafd70",
			"customer=HASH([c_custkey]);date=HASH([d_datekey]);lineorder=HASH([lo_orderdate]);part=HASH([p_partkey]);supplier=HASH([s_suppkey]);",
			"c42d0567c842b240efba707f7ca6cfbb51c514b61303ac16773008e4570a7dc6"},
		{"tpcch", 1, "f14ea3daf83bb47a4213404f24834262dd4cc72fab242e191065d3b18e9c4ead",
			"customer=HASH([c_d_id]);district=HASH([d_id]);history=HASH([h_c_id]);item=HASH([i_id]);nation=HASH([n_nationkey]);neworder=HASH([no_d_id]);orderline=HASH([ol_i_id]);orders=HASH([o_d_id]);region=HASH([r_regionkey]);stock=HASH([s_i_id]);supplier=REPLICATE;warehouse=HASH([w_id]);",
			"d56b59eae224c0563d0f16082be2ce0c20669700ab196659cc28079aef7c1eb0"},
		{"tpch", 7, "b60118e1fb522d4577af0842d00f0d7b77fd2d2fbfd11e2d578cc34db9835a07",
			"customer=HASH([c_custkey]);lineitem=HASH([l_orderkey]);nation=HASH([n_nationkey]);orders=HASH([o_orderkey]);part=HASH([p_partkey]);partsupp=HASH([ps_partkey]);region=HASH([r_regionkey]);supplier=HASH([s_suppkey]);",
			"4bad0e144c3463c4c904fc0f983cf6c3210293164646f8220d609efa4c82e696"},
	} {
		t.Run(tc.bench, func(t *testing.T) {
			dir := t.TempDir()
			cfg := DefaultConfig()
			cfg.StateDir = dir
			spec := idleSpec(tc.bench, tc.seed)
			putSpec(t, dir, spec)
			tn, err := newTenant(spec, cfg, durable.OS)
			if err != nil {
				t.Fatal(err)
			}
			for cycle := 0; cycle < 2; cycle++ {
				recordMix(t, tn, func(i int) float64 { return float64(1 + i%3) })
				tn.adviseOnce()
			}
			if _, err := tn.saveGeneration(); err != nil {
				t.Fatal(err)
			}
			tn.discard()

			s, rep := recoverNew(t, cfg)
			if tr := rep.Tenants[0]; tr.Err != "" || tr.RestoredGen != 0 {
				t.Fatalf("recovery: %+v, want generation 0 restored", tr)
			}
			rt, _ := s.Tenant("t1")
			ck, err := rt.adv.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			if got := checkpointDigest(ck); got != tc.restored {
				t.Errorf("restored training state\n  got  %s\n  want %s", got, tc.restored)
			}
			if got := designSig(rt); got != tc.design {
				t.Errorf("design deployed at recovery\n  got  %s\n  want %s", got, tc.design)
			}
			recordMix(t, rt, func(i int) float64 { return float64(1 + (i*7)%5) })
			rt.adviseOnce()
			if got := modelSHA(t, rt); got != tc.model {
				t.Errorf("model after one advise cycle on the recovered tenant\n  got  %s\n  want %s", got, tc.model)
			}
		})
	}
}

// TestManifestBytesPinned pins the manifest's on-disk bytes: three fixed
// specs registered in a fresh state directory, hashed whole, header line
// included. A change to how the manifest is framed or written must leave
// this constant alone; recorded before the manifest moved onto the shared
// atomic-write function.
//
// amd64 only, like the other pins.
func TestManifestBytesPinned(t *testing.T) {
	skipUnlessAMD64(t)
	dir := t.TempDir()
	for _, spec := range []TenantSpec{
		{ID: "t2", Bench: "ssb", Engine: "memory", Scale: 0.3, Seed: 3, Weight: 2, OfflineEpisodes: 30, OnlineEpisodes: 2},
		{ID: "t1", Bench: "micro", Engine: "disk", Scale: 0.05, Seed: 1, Weight: 1, OfflineEpisodes: 2, OnlineEpisodes: 1, AdviseEveryMS: 25},
		{ID: "t3", Bench: "tpcch", Engine: "disk", Scale: 1, Seed: 7, Weight: 0.5, OfflineEpisodes: 4, OnlineEpisodes: 3, NoGuard: true},
	} {
		putSpec(t, dir, spec)
	}
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	const want = "bfc51e353adfad2da1d4e8eb9fd9b67160f0f6557f9817c929750f173c73f2c3"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("manifest.json SHA-256\n  got  %s\n  want %s", got, want)
	}
}
