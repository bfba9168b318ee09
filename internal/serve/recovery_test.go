package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"partadvisor/internal/core"
	"partadvisor/internal/durable"
)

// stateConfig is testConfig plus a durable state dir with a fast
// background checkpointer, sized so -race tests accumulate several
// generations in tens of milliseconds.
func stateConfig(dir string) Config {
	cfg := testConfig()
	cfg.StateDir = dir
	cfg.CheckpointEvery = 20 * time.Millisecond
	return cfg
}

func newStateServer(t *testing.T, dir string) *Server {
	t.Helper()
	s, err := NewServer(stateConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	return s
}

// waitGenerations polls a tenant's checkpoint directory until at least n
// generations exist.
func waitGenerations(t *testing.T, dir string, n int) []generationFile {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		gens, err := listGenerations(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(gens) >= n {
			return gens
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant never wrote %d checkpoint generations (have %d)", n, len(gens))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func submitOne(t *testing.T, s *Server, tn *Tenant) {
	t.Helper()
	wait, err := s.SubmitBatch(context.Background(), tn, nil, 1, 0, 1)
	if err != nil {
		if IsShed(err) {
			return
		}
		t.Fatalf("submit: %v", err)
	}
	if _, err := wait(); err != nil && !errors.Is(err, ErrCancelled) {
		t.Fatalf("wait: %v", err)
	}
}

// TestRegistryPersistsAcrossCrash: create tenants, let the background
// checkpointer run, Halt (the in-process kill -9), and recover into a
// new server — every tenant must come back from the manifest with its
// checkpointed training state, and traffic must flow again.
func TestRegistryPersistsAcrossCrash(t *testing.T) {
	dir := t.TempDir()
	s := newStateServer(t, dir)
	for _, id := range []string{"t1", "t2"} {
		if _, err := s.CreateTenant(fastSpec(id)); err != nil {
			t.Fatal(err)
		}
	}
	t1, _ := s.Tenant("t1")
	submitOne(t, s, t1)
	waitGenerations(t, t1.ckptDir, 2)
	wantEpisodes := 0
	if gens, err := listGenerations(t1.ckptDir); err == nil {
		if ck, err := core.LoadCheckpoint(gens[0].Path); err == nil {
			wantEpisodes = ck.EpisodesTrained
		}
	}
	s.Halt()

	s2 := newStateServer(t, dir)
	defer mustShutdown(t, s2)
	if s2.Ready() {
		t.Fatal("StateDir server must start not-ready")
	}
	rep, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	s2.MarkReady()
	if len(rep.Tenants) != 2 {
		t.Fatalf("recovered %d tenants, want 2: %+v", len(rep.Tenants), rep.Tenants)
	}
	for _, tr := range rep.Tenants {
		if tr.Err != "" {
			t.Fatalf("tenant %s recovery failed: %s", tr.ID, tr.Err)
		}
		if tr.FreshBootstrap || tr.RestoredGen < 0 {
			t.Fatalf("tenant %s fell back to fresh bootstrap with intact checkpoints: %+v", tr.ID, tr)
		}
	}
	rt1, ok := s2.Tenant("t1")
	if !ok {
		t.Fatal("t1 missing after recovery")
	}
	if rt1.Spec != t1.Spec {
		t.Fatalf("recovered spec drifted: %+v vs %+v", rt1.Spec, t1.Spec)
	}
	if got := rt1.adv.EpisodesTrained; got < wantEpisodes {
		t.Fatalf("restored advisor has %d episodes, checkpoint held %d", got, wantEpisodes)
	}
	if st := rt1.Stats(); st.RestoredGeneration < 0 {
		t.Fatalf("stats restored_generation = %d, want >= 0", st.RestoredGeneration)
	}
	submitOne(t, s2, rt1)
}

// TestRecoveryCorruptionFallback: a torn newest generation (truncated,
// plus stray temp debris) must be skipped and the previous generation
// restored, and new generation numbers must stay monotonic past the
// corrupt file.
func TestRecoveryCorruptionFallback(t *testing.T) {
	dir := t.TempDir()
	s := newStateServer(t, dir)
	if _, err := s.CreateTenant(fastSpec("t1")); err != nil {
		t.Fatal(err)
	}
	t1, _ := s.Tenant("t1")
	gens := waitGenerations(t, t1.ckptDir, 2)
	s.Halt()

	gens, err := listGenerations(t1.ckptDir)
	if err != nil || len(gens) < 2 {
		t.Fatalf("need >= 2 generations after halt, have %d (%v)", len(gens), err)
	}
	newest, second := gens[0], gens[1]
	// Truncate the newest generation to half — a torn write — and drop a
	// stray temp file like a crash mid-checkpoint leaves behind.
	fi, err := os.Stat(newest.Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(newest.Path, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(t1.ckptDir, "gen-99999999.ckpt.tmp123")
	if err := os.WriteFile(stray, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newStateServer(t, dir)
	defer mustShutdown(t, s2)
	rep, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	s2.MarkReady()
	tr := rep.Tenants[0]
	if tr.CorruptSkipped != 1 {
		t.Fatalf("corrupt_skipped = %d, want 1 (%+v)", tr.CorruptSkipped, tr)
	}
	if tr.RestoredGen != int64(second.Gen) {
		t.Fatalf("restored generation %d, want fallback to %d", tr.RestoredGen, second.Gen)
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("stray temp file not swept: %v", err)
	}
	rt1, _ := s2.Tenant("t1")
	if got := rt1.nextGen.Load(); got != newest.Gen+1 {
		t.Fatalf("nextGen = %d, want %d (monotonic past the corrupt newest)", got, newest.Gen+1)
	}
}

// TestRecoveryAllCorruptFreshBootstrap: when every generation is
// damaged the tenant still comes back — from its deterministic
// bootstrap — and the report says so instead of failing recovery.
func TestRecoveryAllCorruptFreshBootstrap(t *testing.T) {
	dir := t.TempDir()
	s := newStateServer(t, dir)
	if _, err := s.CreateTenant(fastSpec("t1")); err != nil {
		t.Fatal(err)
	}
	t1, _ := s.Tenant("t1")
	waitGenerations(t, t1.ckptDir, 1)
	s.Halt()

	gens, _ := listGenerations(t1.ckptDir)
	for _, g := range gens {
		if err := os.WriteFile(g.Path, []byte("garbage"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2 := newStateServer(t, dir)
	defer mustShutdown(t, s2)
	rep, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	s2.MarkReady()
	tr := rep.Tenants[0]
	if !tr.FreshBootstrap || tr.RestoredGen != -1 {
		t.Fatalf("want fresh bootstrap, got %+v", tr)
	}
	if tr.CorruptSkipped != len(gens) {
		t.Fatalf("corrupt_skipped = %d, want %d", tr.CorruptSkipped, len(gens))
	}
	rt1, ok := s2.Tenant("t1")
	if !ok {
		t.Fatal("t1 missing after all-corrupt recovery")
	}
	submitOne(t, s2, rt1)
}

// TestManifestRenameInterrupted: temp debris from a manifest replacement
// that crashed before its rename must be swept, with the previous
// manifest staying authoritative. A manifest damaged in place, however,
// must fail loudly.
func TestManifestRenameInterrupted(t *testing.T) {
	dir := t.TempDir()
	s := newStateServer(t, dir)
	for _, id := range []string{"t1", "t2"} {
		if _, err := s.CreateTenant(fastSpec(id)); err != nil {
			t.Fatal(err)
		}
	}
	s.Halt()

	// Crash-simulated replacement: the temp file was written (with
	// whatever bytes) but never renamed over manifest.json.
	stray := filepath.Join(dir, "manifest.json.tmp123")
	if err := os.WriteFile(stray, []byte("half a manifest"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newStateServer(t, dir)
	rep, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Tenants) != 2 {
		t.Fatalf("previous manifest not recovered: %d tenants", len(rep.Tenants))
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Fatalf("manifest temp debris not swept: %v", err)
	}
	s2.Halt()

	// In-place damage: flip a byte inside the committed manifest. The
	// checksum header must reject it at open.
	path := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	idx := bytes.LastIndexByte(data, '}')
	data[idx] = '{'
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewServer(stateConfig(dir)); !errors.Is(err, ErrCorruptManifest) {
		t.Fatalf("corrupt manifest: want ErrCorruptManifest, got %v", err)
	}
}

// TestRecoverySweepsOrphanCheckpointDir: a crash between the manifest
// delete and the checkpoint-dir removal leaves orphan generations;
// recovery must sweep them rather than resurrect the tenant.
func TestRecoverySweepsOrphanCheckpointDir(t *testing.T) {
	dir := t.TempDir()
	s := newStateServer(t, dir)
	if _, err := s.CreateTenant(fastSpec("t1")); err != nil {
		t.Fatal(err)
	}
	s.Halt()

	orphan := filepath.Join(dir, ckptSubdir, "ghost")
	if err := os.MkdirAll(orphan, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(generationPath(orphan, 0), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newStateServer(t, dir)
	defer mustShutdown(t, s2)
	rep, err := s2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	s2.MarkReady()
	if len(rep.Tenants) != 1 || rep.Tenants[0].ID != "t1" {
		t.Fatalf("orphan dir resurrected a tenant: %+v", rep.Tenants)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan checkpoint dir not swept: %v", err)
	}
}

// TestConcurrentCheckpointerTrafficDelete exercises the recovery-path
// data races under -race: background checkpointers writing generations
// while batch traffic flows and one tenant is deleted mid-run. The
// manifest must end up reflecting the deletion and the deleted tenant's
// checkpoint directory must be gone.
func TestConcurrentCheckpointerTrafficDelete(t *testing.T) {
	dir := t.TempDir()
	cfg := stateConfig(dir)
	cfg.CheckpointEvery = 5 * time.Millisecond
	cfg.AdviseEvery = 10 * time.Millisecond
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer mustShutdown(t, s)
	for _, id := range []string{"t1", "t2"} {
		if _, err := s.CreateTenant(fastSpec(id)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stopAt := time.Now().Add(300 * time.Millisecond)
	for _, id := range []string{"t1", "t2"} {
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				for time.Now().Before(stopAt) {
					tn, ok := s.Tenant(id)
					if !ok {
						return
					}
					wait, err := s.SubmitBatch(context.Background(), tn, nil, 1, 0, 1)
					if err != nil {
						continue
					}
					wait()
				}
			}(id)
		}
	}
	time.Sleep(100 * time.Millisecond)
	if err := s.DeleteTenant("t2"); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	specs := s.reg.list()
	if len(specs) != 1 || specs[0].ID != "t1" {
		t.Fatalf("manifest after delete: %+v, want just t1", specs)
	}
	if _, err := os.Stat(filepath.Join(dir, ckptSubdir, "t2")); !os.IsNotExist(err) {
		t.Fatalf("deleted tenant's checkpoint dir survives: %v", err)
	}
}

// TestReadyzGate: with StateDir the HTTP request paths answer
// 503 + Retry-After until MarkReady, while healthz stays 200 (liveness
// is not readiness); /readyz flips 503 → 200 with the recovery report.
func TestReadyzGate(t *testing.T) {
	dir := t.TempDir()
	s := newStateServer(t, dir)
	defer mustShutdown(t, s)
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	drain := func(resp *http.Response) {
		resp.Body.Close()
	}

	if resp := get("/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz before recovery: %d, want 503", resp.StatusCode)
	} else {
		drain(resp)
	}
	if resp := get("/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz must stay liveness-only 200, got %d", resp.StatusCode)
	} else {
		drain(resp)
	}
	body, _ := json.Marshal(fastSpec("t1"))
	resp, err := http.Post(hs.URL+"/tenants", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("create before ready: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("not-ready 503 must carry Retry-After")
	}
	drain(resp)

	if _, err := s.Recover(); err != nil {
		t.Fatal(err)
	}
	s.MarkReady()

	if resp := get("/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz after MarkReady: %d, want 200", resp.StatusCode)
	} else {
		var rr struct {
			Status   string          `json:"status"`
			Recovery *RecoveryReport `json:"recovery"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatal(err)
		}
		drain(resp)
		if rr.Status != "ready" || rr.Recovery == nil {
			t.Fatalf("readyz payload: %+v", rr)
		}
	}
	resp, err = http.Post(hs.URL+"/tenants", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create after ready: %d, want 201", resp.StatusCode)
	}
	drain(resp)
}

// TestShutdownWritesFinalGeneration: a graceful shutdown appends one
// last verified generation per tenant, so a clean restart resumes from
// the very last episode boundary, not the last background interval.
func TestShutdownWritesFinalGeneration(t *testing.T) {
	dir := t.TempDir()
	s := newStateServer(t, dir)
	if _, err := s.CreateTenant(fastSpec("t1")); err != nil {
		t.Fatal(err)
	}
	rep := mustShutdown(t, s)
	var genPath string
	for _, p := range rep.Checkpoints {
		if strings.Contains(p, ckptSubdir) && strings.Contains(filepath.Base(p), "gen-") {
			genPath = p
		}
	}
	if genPath == "" {
		t.Fatalf("no final generation in shutdown report: %v", rep.Checkpoints)
	}
	ck, err := core.LoadCheckpoint(genPath)
	if err != nil {
		t.Fatalf("final generation does not verify: %v", err)
	}
	if ck.Seed != 1 {
		t.Fatalf("final generation seed %d, want 1", ck.Seed)
	}
}

// TestRecoveredTenantKeepsCheckpointCadence: a tenant restored from a
// generation waits a full checkpoint interval before it writes the next
// one. Rewriting the state it just loaded would be a redundant copy that
// pushes an older, distinct generation out of the checkpointKeep window. A
// tenant that fell back to its bootstrap has nothing verified on disk and
// writes at its first tick.
func TestRecoveredTenantKeepsCheckpointCadence(t *testing.T) {
	dir := t.TempDir()
	cfg := stateConfig(dir)
	cfg.CheckpointEvery = time.Hour
	cfg.AdviseEvery = 10 * time.Millisecond
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	for _, id := range []string{"t1", "t2"} {
		if _, err := s.CreateTenant(fastSpec(id)); err != nil {
			t.Fatal(err)
		}
	}
	s.Halt()
	// Each advising loop wrote generation 0 before Halt stopped it.
	gens, err := listGenerations(filepath.Join(dir, ckptSubdir, "t2"))
	if err != nil || len(gens) != 1 {
		t.Fatalf("t2 generations after halt: %d (%v), want 1", len(gens), err)
	}
	if err := os.WriteFile(gens[0].Path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s2.Start()
	defer mustShutdown(t, s2)
	if _, err := s2.Recover(); err != nil {
		t.Fatal(err)
	}
	s2.MarkReady()
	rt1, _ := s2.Tenant("t1")
	rt2, _ := s2.Tenant("t2")
	waitGenerations(t, rt2.ckptDir, 2)
	time.Sleep(100 * time.Millisecond) // ten advising ticks
	if gens, _ := listGenerations(rt1.ckptDir); len(gens) != 1 || rt1.ckptWrites.Load() != 0 {
		t.Fatalf("restored t1 rewrote its generation within the interval: %d on disk, %d written",
			len(gens), rt1.ckptWrites.Load())
	}
}

// putSpec records a spec straight into the manifest under dir, with no
// tenant ever built from it.
func putSpec(t *testing.T, dir string, spec TenantSpec) {
	t.Helper()
	reg, err := openRegistry(durable.OS, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.put(spec); err != nil {
		t.Fatal(err)
	}
}

// recoverNew opens a server on cfg's state directory and recovers it; the
// server is halted when the test ends.
func recoverNew(t *testing.T, cfg Config) (*Server, *RecoveryReport) {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	t.Cleanup(s.Halt)
	rep, err := s.Recover()
	if err != nil {
		t.Fatal(err)
	}
	s.MarkReady()
	return s, rep
}

// TestRecoveryFallbackBootstrapPinned: a tenant with nothing restorable on
// disk comes back with exactly the advisor CreateTenant bootstraps — the
// model and design TestNewTenantDigestPinned pins for micro — whether it
// has no generation at all (a crash between the manifest write and
// generation 0), only corrupt ones, or only ones that verify but fail
// Restore after loading part of their state (written by a tenant of
// another benchmark with the same seed): the bootstrap runs on an advisor
// no failed attempt touched. Generation numbering still resumes past the
// newest file.
func TestRecoveryFallbackBootstrapPinned(t *testing.T) {
	skipUnlessAMD64(t)
	pin := newTenantPins[0]
	for _, tc := range []struct {
		name             string
		corrupt, foreign int
	}{
		{"no generation", 0, 0},
		{"all corrupt", 3, 0},
		{"none restores", 1, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			putSpec(t, dir, idleSpec(pin.bench, pin.seed))
			ckptDir := filepath.Join(dir, ckptSubdir, "t1")
			if err := os.MkdirAll(ckptDir, 0o755); err != nil {
				t.Fatal(err)
			}
			for g := 0; g < tc.corrupt; g++ {
				if err := os.WriteFile(generationPath(ckptDir, uint64(g)), []byte("garbage"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if tc.foreign > 0 {
				// Long enough a bootstrap that the optimizer has stepped, so
				// the state Restore loads before it fails is not empty.
				spec := TenantSpec{ID: "ssb", Bench: "ssb", Scale: 0.05, Seed: pin.seed}
				ft, err := newTenant(spec, stateConfig(t.TempDir()), durable.OS)
				if err != nil {
					t.Fatal(err)
				}
				ft.discard()
				if ft.adv.TrainUpdates == 0 {
					t.Fatal("foreign tenant never trained")
				}
				for g := tc.corrupt; g < tc.corrupt+tc.foreign; g++ {
					if err := ft.adv.SaveCheckpoint(generationPath(ckptDir, uint64(g))); err != nil {
						t.Fatal(err)
					}
				}
			}
			skipped := tc.corrupt + tc.foreign
			s, rep := recoverNew(t, stateConfig(dir))
			tr := rep.Tenants[0]
			if tr.Err != "" || !tr.FreshBootstrap || tr.RestoredGen != -1 || tr.CorruptSkipped != skipped {
				t.Fatalf("recovery %+v, want a fresh bootstrap past %d skipped generations", tr, skipped)
			}
			rt, _ := s.Tenant("t1")
			if got := modelSHA(t, rt); got != pin.model {
				t.Errorf("fallback model SHA-256\n  got  %s\n  want %s", got, pin.model)
			}
			if got := designSig(rt); got != pin.design {
				t.Errorf("fallback design\n  got  %s\n  want %s", got, pin.design)
			}
			if skipped > 0 {
				if got := rt.nextGen.Load(); got != uint64(skipped) {
					t.Errorf("nextGen = %d, want %d (past the newest skipped file)", got, skipped)
				}
			}
		})
	}
}

// TestRecoveryFailedRestoreStartsFresh: the two newest generations verify
// but cannot be restored — one was written by a tenant with another seed
// (rejected before anything is loaded), one by a tenant of another
// benchmark with the same seed (rejected only after its optimizer state
// was loaded). Recovery must skip both and hand back the older good
// generation bit for bit: every attempt restores into a fresh advisor, so
// nothing of a failed attempt reaches the next.
func TestRecoveryFailedRestoreStartsFresh(t *testing.T) {
	dir := t.TempDir()
	cfg := stateConfig(dir)
	spec := fastSpec("t1")
	spec.AdviseEveryMS = time.Hour.Milliseconds()
	if err := spec.normalize(); err != nil {
		t.Fatal(err)
	}
	putSpec(t, dir, spec)
	good, err := newTenant(spec, cfg, durable.OS)
	if err != nil {
		t.Fatal(err)
	}
	recordMix(t, good, func(i int) float64 { return float64(1 + i) })
	good.adviseOnce()
	goodPath, err := good.saveGeneration()
	if err != nil {
		t.Fatal(err)
	}
	good.discard()
	want, err := core.LoadCheckpoint(goodPath)
	if err != nil {
		t.Fatal(err)
	}
	otherBench, otherSeed := spec, spec
	otherBench.Bench, otherBench.OfflineEpisodes = "ssb", 30
	otherSeed.Seed = 2
	for gen, foreign := range map[uint64]TenantSpec{1: otherBench, 2: otherSeed} {
		ft, err := newTenant(foreign, stateConfig(t.TempDir()), durable.OS)
		if err != nil {
			t.Fatal(err)
		}
		ft.discard()
		if err := ft.adv.SaveCheckpoint(generationPath(good.ckptDir, gen)); err != nil {
			t.Fatal(err)
		}
	}

	s, rep := recoverNew(t, cfg)
	tr := rep.Tenants[0]
	if tr.Err != "" || tr.RestoredGen != 0 || tr.CorruptSkipped != 2 || tr.FreshBootstrap {
		t.Fatalf("recovery %+v, want generation 0 after skipping 2", tr)
	}
	rt, _ := s.Tenant("t1")
	got, err := rt.adv.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if checkpointDigest(got) != checkpointDigest(want) {
		t.Fatalf("restored state differs from generation 0: %d/%d/%d episodes/steps/updates, rng %d/%d; want %d/%d/%d, rng %d/%d",
			got.EpisodesTrained, got.StepsTrained, got.TrainUpdates, got.RNGInt63, got.RNGUint64,
			want.EpisodesTrained, want.StepsTrained, want.TrainUpdates, want.RNGInt63, want.RNGUint64)
	}
	if n := rt.nextGen.Load(); n != 3 {
		t.Fatalf("nextGen = %d, want 3", n)
	}
}

// TestRecoverParallelFleet recovers a mixed fleet, plus a manifest entry
// that cannot be built, on several goroutines (run it under -race). The
// report is in sorted-id order, the bad entry carries its error and is
// absent from the server, every other tenant is restored from its
// checkpoint, and recovering the same state again reports the same thing.
func TestRecoverParallelFleet(t *testing.T) {
	dir := t.TempDir()
	cfg := stateConfig(dir)
	cfg.CheckpointEvery = time.Hour
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	for i, bench := range []string{"tpch", "micro", "ssb", "tpcch", "micro", "ssb"} {
		spec := fastSpec(fmt.Sprintf("t%d", 6-i))
		spec.Bench = bench
		spec.AdviseEveryMS = time.Hour.Milliseconds()
		if _, err := s.CreateTenant(spec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.reg.put(TenantSpec{ID: "t3x", Bench: "nope"}); err != nil {
		t.Fatal(err)
	}
	s.Halt()

	var reports [2][]TenantRecovery
	for round := range reports {
		s, rep := recoverNew(t, cfg)
		ids := make([]string, len(rep.Tenants))
		for i, tr := range rep.Tenants {
			ids[i] = tr.ID
			if tr.DurationSec <= 0 {
				t.Errorf("round %d tenant %s: duration_sec %v", round, tr.ID, tr.DurationSec)
			}
			_, present := s.Tenant(tr.ID)
			switch {
			case tr.ID == "t3x":
				if tr.Err == "" || present {
					t.Errorf("round %d: unbuildable entry %+v (present %v), want an error and no tenant", round, tr, present)
				}
			case tr.Err != "" || tr.FreshBootstrap || tr.RestoredGen != 0 || !present:
				t.Errorf("round %d: tenant %+v (present %v), want generation 0 restored", round, tr, present)
			}
			rep.Tenants[i].DurationSec = 0
		}
		if want := []string{"t1", "t2", "t3", "t3x", "t4", "t5", "t6"}; !reflect.DeepEqual(ids, want) {
			t.Fatalf("round %d report order %v, want %v", round, ids, want)
		}
		reports[round] = rep.Tenants
		s.Halt()
	}
	if !reflect.DeepEqual(reports[0], reports[1]) {
		t.Fatalf("second recovery differs:\n  %+v\n  %+v", reports[0], reports[1])
	}
}

// TestRecoveredTenantKeepsTraining: a tenant advised three times, saved as
// a generation and recovered into a new server trains its full online
// budget on its next cycle, exactly like the tenant that never went down.
// A restored advisor continues; it does not skip the online episodes its
// snapshot already holds.
func TestRecoveredTenantKeepsTraining(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.StateDir = dir
	spec := idleSpec("micro", 1)
	putSpec(t, dir, spec)
	tn, err := newTenant(spec, cfg, durable.OS)
	if err != nil {
		t.Fatal(err)
	}
	defer tn.discard()
	mix := func(i int) float64 { return float64(1 + i%3) }
	for cycle := 0; cycle < 3; cycle++ {
		recordMix(t, tn, mix)
		tn.adviseOnce()
	}
	if _, err := tn.saveGeneration(); err != nil {
		t.Fatal(err)
	}
	s, rep := recoverNew(t, cfg)
	if tr := rep.Tenants[0]; tr.Err != "" || tr.RestoredGen != 0 {
		t.Fatalf("recovery: %+v, want generation 0 restored", tr)
	}
	rt, _ := s.Tenant("t1")
	if rt.adv.EpisodesTrained != tn.adv.EpisodesTrained {
		t.Fatalf("recovered tenant holds %d episodes, saved %d", rt.adv.EpisodesTrained, tn.adv.EpisodesTrained)
	}
	for _, c := range []struct {
		name string
		tn   *Tenant
	}{{"never-crashed", tn}, {"recovered", rt}} {
		before := c.tn.adv.EpisodesTrained
		recordMix(t, c.tn, mix)
		c.tn.adviseOnce()
		if got := c.tn.adv.EpisodesTrained - before; got != spec.OnlineEpisodes {
			t.Errorf("%s tenant trained %d episodes in its next cycle, want %d", c.name, got, spec.OnlineEpisodes)
		}
	}
}
