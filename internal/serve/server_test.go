package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"partadvisor/internal/benchmarks"
	"partadvisor/internal/core"
	"partadvisor/internal/durable"
)

// fastSpec is a tenant sized for -race tests: the smallest benchmark at a
// tiny scale with a 2-episode offline bootstrap.
func fastSpec(id string) TenantSpec {
	return TenantSpec{
		ID:              id,
		Bench:           "micro",
		Scale:           0.05,
		Seed:            1,
		OfflineEpisodes: 2,
		OnlineEpisodes:  1,
	}
}

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.MaxConcurrent = 2
	cfg.MaxTenantQueue = 2
	cfg.MaxGlobalQueue = 4
	cfg.AdviseEvery = 25 * time.Millisecond
	return cfg
}

// newTestServer builds a server for cfg on a fresh state directory and
// marks it ready, as after recovering an empty directory.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	cfg.StateDir = t.TempDir()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.MarkReady()
	return s
}

func mustShutdown(t *testing.T, s *Server) ShutdownReport {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rep, err := s.Shutdown(ctx)
	if err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	return rep
}

// TestServerConcurrentTenants drives two tenants from concurrent clients
// over real HTTP under -race: every answer is 200 or 429 (sheds carry
// Retry-After), stats endpoints answer throughout, and shutdown leaves no
// goroutines behind.
func TestServerConcurrentTenants(t *testing.T) {
	baseline := runtime.NumGoroutine()

	s := newTestServer(t, testConfig())
	s.Start()
	hs := httptest.NewServer(s.Handler())

	for _, id := range []string{"t1", "t2"} {
		spec := fastSpec(id)
		body, _ := json.Marshal(spec)
		resp, err := http.Post(hs.URL+"/tenants", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s: status %d", id, resp.StatusCode)
		}
		resp.Body.Close()
	}
	// Duplicate creation must be rejected, not clobber the tenant.
	body, _ := json.Marshal(fastSpec("t1"))
	if resp, err := http.Post(hs.URL+"/tenants", "application/json", bytes.NewReader(body)); err != nil {
		t.Fatal(err)
	} else {
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("duplicate tenant: status %d, want 400", resp.StatusCode)
		}
		resp.Body.Close()
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	statuses := map[int]int{}
	var firstBad string
	record := func(code int, detail string) {
		mu.Lock()
		defer mu.Unlock()
		statuses[code]++
		if detail != "" && firstBad == "" {
			firstBad = detail
		}
	}
	for g := 0; g < 6; g++ {
		wg.Add(1)
		tenant := fmt.Sprintf("t%d", g%2+1)
		go func() {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				resp, err := http.Post(hs.URL+"/tenants/"+tenant+"/batch",
					"application/json", bytes.NewReader([]byte(`{"repeat":2}`)))
				if err != nil {
					record(-1, err.Error())
					return
				}
				detail := ""
				switch resp.StatusCode {
				case http.StatusOK:
				case http.StatusTooManyRequests:
					if resp.Header.Get("Retry-After") == "" {
						detail = "429 without Retry-After"
					}
				default:
					detail = fmt.Sprintf("unexpected status %d", resp.StatusCode)
				}
				resp.Body.Close()
				record(resp.StatusCode, detail)
			}
		}()
	}
	// Health and stats must answer while the pool is saturated.
	for i := 0; i < 10; i++ {
		for _, path := range []string{"/healthz", "/statz", "/tenants/t1/stats", "/tenants"} {
			resp, err := http.Get(hs.URL + path)
			if err != nil {
				t.Fatalf("GET %s under load: %v", path, err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s under load: status %d", path, resp.StatusCode)
			}
			resp.Body.Close()
		}
		time.Sleep(5 * time.Millisecond)
	}
	wg.Wait()

	if firstBad != "" {
		t.Fatalf("bad response under load: %s (statuses: %v)", firstBad, statuses)
	}
	if statuses[http.StatusOK] == 0 {
		t.Fatalf("no batch succeeded: %v", statuses)
	}

	// Explain serves a real plan for a workload query.
	qname := func() string {
		tn, _ := s.Tenant("t1")
		return tn.wl.Queries[0].Name
	}()
	resp, err := http.Get(hs.URL + "/tenants/t1/explain?query=" + qname)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Deleting a tenant makes its endpoints 404.
	req, _ := http.NewRequest(http.MethodDelete, hs.URL+"/tenants/t2", nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("delete: status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
	if resp, err := http.Get(hs.URL + "/tenants/t2/stats"); err != nil {
		t.Fatal(err)
	} else {
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("stats after delete: status %d, want 404", resp.StatusCode)
		}
		resp.Body.Close()
	}

	mustShutdown(t, s)
	hs.Close()
	http.DefaultClient.CloseIdleConnections()

	// No goroutine leaks: workers, tick loop, advisors and HTTP plumbing
	// are all gone.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d now vs %d baseline\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestHTTPShedDeterministic guarantees the 429 path: with no workers
// started, queued requests time out as deadline misses (200) and the
// request past the global bound is shed with Retry-After.
func TestHTTPShedDeterministic(t *testing.T) {
	cfg := testConfig()
	cfg.MaxGlobalQueue = 2
	s := newTestServer(t, cfg)
	// Deliberately no Start(): nothing drains, so the queue fills exactly.
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	if _, err := s.CreateTenant(fastSpec("t1")); err != nil {
		t.Fatal(err)
	}

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(hs.URL+"/tenants/t1/batch", "application/json",
			bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for i := 0; i < 2; i++ {
		resp := post(`{"deadline_ms":150}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("queued request %d: status %d, want 200 deadline-miss", i, resp.StatusCode)
		}
		var br BatchResponse
		if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if !br.DeadlineMiss || br.Completed != 0 {
			t.Fatalf("queued request %d: %+v, want deadline miss with 0 completed", i, br)
		}
	}
	resp := post(`{"deadline_ms":150}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-bound request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	var er struct {
		RetryAfterSec int `json:"retry_after_sec"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if er.RetryAfterSec < 1 || er.RetryAfterSec > 30 {
		t.Fatalf("retry_after_sec = %d, want within [1,30]", er.RetryAfterSec)
	}

	// The cancelled tasks never ran and no worker will sweep them; the
	// drain deadline force-clears the queue.
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if _, err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestQueuedDeadlineCancel covers both deadline paths at the server API:
// a request whose context dies while queued answers immediately without a
// worker, and the running batch it was queued behind is cut promptly at
// the frozen cursor when its own context dies.
func TestQueuedDeadlineCancel(t *testing.T) {
	cfg := testConfig()
	cfg.MaxConcurrent = 1
	s := newTestServer(t, cfg)
	s.Start()
	defer mustShutdown(t, s)

	spec := fastSpec("t1")
	spec.Scale = 0.5 // the largest admissible batch must run for seconds
	tn, err := s.CreateTenant(spec)
	if err != nil {
		t.Fatal(err)
	}

	// A huge batch occupies the only worker...
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	wait1, err := s.SubmitBatch(ctx1, tn, nil, maxBatchPositions/len(tn.wl.Queries), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.sched.inflightTotal() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("big batch never started")
		}
		time.Sleep(time.Millisecond)
	}

	// ...so the second request queues; its already-dead context must
	// answer instantly via the queued-cancel path.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	wait2, err := s.SubmitBatch(ctx2, tn, nil, 3, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res2, err := wait2()
	if err != nil {
		t.Fatal(err)
	}
	if !res2.DeadlineMiss || res2.Completed != 0 {
		t.Fatalf("queued cancel: %+v, want deadline miss with nothing charged", res2)
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("queued cancel took %v; must not wait for the running batch", el)
	}

	// Cutting the running batch charges only the delivered prefix and
	// returns promptly through the propagated abort.
	cancel1()
	res1, err := wait1()
	if err != nil {
		t.Fatal(err)
	}
	if !res1.DeadlineMiss {
		t.Fatal("cancelled running batch not flagged as deadline miss")
	}
	if res1.Completed >= res1.Requested {
		t.Fatalf("cancelled running batch completed %d of %d; expected a cut", res1.Completed, res1.Requested)
	}
	if got := tn.Stats().DeadlineMisses; got != 2 {
		t.Fatalf("tenant deadline misses = %d, want 2", got)
	}
}

// TestDeleteTenantUnblocksQueuedWaiters: deleting a tenant with queued
// batches must answer every waiter with ErrCancelled — even waiters whose
// context has no deadline — instead of leaving their handler goroutines
// blocked forever, and a stale tenant handle must be refused at submit.
func TestDeleteTenantUnblocksQueuedWaiters(t *testing.T) {
	s := newTestServer(t, testConfig())
	// Deliberately no Start(): nothing dispatches, so the scheduler-side
	// cancel in DeleteTenant is the only thing that can answer the waiters.
	tn, err := s.CreateTenant(fastSpec("t1"))
	if err != nil {
		t.Fatal(err)
	}
	var waits []func() (BatchResult, error)
	for i := 0; i < 2; i++ {
		wait, err := s.SubmitBatch(context.Background(), tn, nil, 1, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		waits = append(waits, wait)
	}
	if err := s.DeleteTenant("t1"); err != nil {
		t.Fatal(err)
	}
	for i, wait := range waits {
		errCh := make(chan error, 1)
		go func() {
			_, err := wait()
			errCh <- err
		}()
		select {
		case err := <-errCh:
			if !errors.Is(err, ErrCancelled) {
				t.Fatalf("waiter %d: %v, want ErrCancelled", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("waiter %d still blocked after tenant delete", i)
		}
	}
	// The deleted tenant's queue is deregistered: submitting through the
	// stale handle is refused instead of stranding a task.
	if _, err := s.SubmitBatch(context.Background(), tn, nil, 1, 0, 1); !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("submit via deleted tenant: %v, want ErrUnknownTenant", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if _, err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// gateFS is durable.OS whose RemoveAll announces itself on entered and
// then waits for release.
type gateFS struct {
	durable.FS
	entered, release chan struct{}
}

func (g gateFS) RemoveAll(path string) error {
	close(g.entered)
	<-g.release
	return g.FS.RemoveAll(path)
}

// TestCreateRefusedWhileDeleting: while DeleteTenant is removing a
// tenant's checkpoint directory, a create of the same id is refused — it
// would make its directory only for the delete to remove it. Once the
// delete returns, the id is created again and its generation 0 lands.
func TestCreateRefusedWhileDeleting(t *testing.T) {
	gate := gateFS{FS: durable.OS, entered: make(chan struct{}), release: make(chan struct{})}
	s, err := newServer(crashConfig(t.TempDir()), gate)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer s.Halt()
	createWaitGen0(t, s, "t1")
	deleted := make(chan error)
	go func() { deleted <- s.DeleteTenant("t1") }()
	<-gate.entered
	if _, err := s.CreateTenant(fastSpec("t1")); err == nil {
		t.Fatal("create succeeded while the same id was being deleted")
	}
	close(gate.release)
	if err := <-deleted; err != nil {
		t.Fatal(err)
	}
	tn := createWaitGen0(t, s, "t1")
	if gens, err := listGenerations(tn.ckptDir); err != nil || len(gens) != 1 {
		t.Fatalf("recreated tenant's generations: %v (%v)", gens, err)
	}
}

// TestDrainDeadlineAnswersQueuedWaiters: when the drain deadline clears
// the queue at shutdown, still-blocked waiters (no request deadline of
// their own) must be answered with ErrCancelled, not abandoned.
func TestDrainDeadlineAnswersQueuedWaiters(t *testing.T) {
	s := newTestServer(t, testConfig())
	// No Start(): the task can never run, forcing the drain-deadline path.
	tn, err := s.CreateTenant(fastSpec("t1"))
	if err != nil {
		t.Fatal(err)
	}
	wait, err := s.SubmitBatch(context.Background(), tn, nil, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := wait()
		errCh <- err
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	rep, err := s.Shutdown(ctx)
	if err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if rep.Drained {
		t.Fatal("shutdown claims a clean drain despite the cancelled queue")
	}
	select {
	case err := <-errCh:
		if !errors.Is(err, ErrCancelled) {
			t.Fatalf("waiter: %v, want ErrCancelled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter still blocked after drain deadline")
	}
}

// TestPrioritySheddingAndPauseResume drives the overload controller
// directly: tier 2 sheds priority-0 work at admission while priority-1
// work still runs, advising is paused, and recovery resumes it.
func TestPrioritySheddingAndPauseResume(t *testing.T) {
	s := newTestServer(t, testConfig())
	s.sched.start() // the workers without the tick loop: the test drives Observe
	defer mustShutdown(t, s)
	tn, err := s.CreateTenant(fastSpec("t1"))
	if err != nil {
		t.Fatal(err)
	}

	for i := 0; i < tierUpTicks; i++ {
		s.ov.Observe(1.0)
	}
	if got := s.Tier(); got != TierShedLowPriority {
		t.Fatalf("tier = %v after sustained overload, want shed-low-priority", got)
	}
	if !tn.paused() {
		t.Fatal("advising not paused at tier 2")
	}

	if _, err := s.SubmitBatch(context.Background(), tn, nil, 1, 0, 0); !errors.Is(err, ErrShedPriority) {
		t.Fatalf("priority-0 under tier 2: %v, want ErrShedPriority", err)
	}
	if !IsShed(ErrShedPriority) {
		t.Fatal("ErrShedPriority must map to a 429 shed")
	}
	wait, err := s.SubmitBatch(context.Background(), tn, nil, 1, 0, 1)
	if err != nil {
		t.Fatalf("priority-1 under tier 2: %v, want admitted", err)
	}
	if res, err := wait(); err != nil || res.Completed != res.Requested {
		t.Fatalf("priority-1 batch: res %+v err %v", res, err)
	}

	// Recovery: tier steps down 2 → 1 → 0 and advising unpauses.
	for i := 0; i < 2*tierDownTicks; i++ {
		s.ov.Observe(0.0)
	}
	if got := s.Tier(); got != TierNormal {
		t.Fatalf("tier = %v after cooldown, want normal", got)
	}
	if tn.paused() {
		t.Fatal("advising still paused after recovery")
	}
}

// TestShutdownCheckpointsTenants: shutdown writes one loadable checkpoint
// generation per tenant, and a fresh advisor resumes from the one it
// reports for a tenant.
func TestShutdownCheckpointsTenants(t *testing.T) {
	cfg := testConfig()
	cfg.StateDir = t.TempDir()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	specs := []TenantSpec{fastSpec("alpha"), fastSpec("beta")}
	for _, spec := range specs {
		if _, err := s.CreateTenant(spec); err != nil {
			t.Fatal(err)
		}
	}
	tn, _ := s.Tenant("alpha")
	wait, err := s.SubmitBatch(context.Background(), tn, nil, 2, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wait(); err != nil {
		t.Fatal(err)
	}

	rep := mustShutdown(t, s)
	trained := tn.adv.EpisodesTrained // advising stopped: single-owner state is readable
	if !rep.Drained {
		t.Fatal("shutdown did not drain")
	}
	if len(rep.Checkpoints) != len(specs) {
		t.Fatalf("checkpoints = %v, want one per tenant", rep.Checkpoints)
	}
	alphaPath := ""
	for _, path := range rep.Checkpoints {
		if _, err := core.LoadCheckpoint(path); err != nil {
			t.Fatalf("checkpoint %s does not load: %v", path, err)
		}
		if filepath.Base(filepath.Dir(path)) == "alpha" {
			alphaPath = path
		}
	}
	if alphaPath == "" {
		t.Fatalf("no shutdown checkpoint for alpha in %v", rep.Checkpoints)
	}

	// A fresh advisor built like the tenant's resumes from the file.
	spec := specs[0]
	b := benchmarks.ByName(spec.Bench)
	hp := core.Test()
	hp.Episodes = spec.OfflineEpisodes
	hp.OnlineEpisodes = spec.OnlineEpisodes
	hp.OnlineEpsilonFromEpisode = spec.OfflineEpisodes / 2
	fresh, err := core.New(b.Space(), b.Workload, hp, spec.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Resume(alphaPath); err != nil {
		t.Fatalf("resume from shutdown checkpoint: %v", err)
	}
	if fresh.EpisodesTrained < trained {
		t.Fatalf("resumed advisor has %d episodes, want >= %d", fresh.EpisodesTrained, trained)
	}

	// After shutdown the server is durably draining: everything new is
	// rejected with ErrClosed.
	if _, err := s.CreateTenant(fastSpec("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("create after shutdown: %v, want ErrClosed", err)
	}
	if _, err := s.SubmitBatch(context.Background(), tn, nil, 1, 0, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after shutdown: %v, want ErrClosed", err)
	}
}

// TestConfigValidate spot-checks the envelope validation: a state
// directory is required, and the default advising period is bounded like a
// tenant's own.
func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	good.StateDir = t.TempDir()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config with a state dir invalid: %v", err)
	}
	if DefaultConfig().Validate() == nil {
		t.Fatal("config without StateDir accepted")
	}
	bad := good
	bad.MaxConcurrent = 0
	if bad.Validate() == nil {
		t.Fatal("MaxConcurrent 0 accepted")
	}
	bad = good
	bad.CheckpointEvery = 0
	if bad.Validate() == nil {
		t.Fatal("CheckpointEvery 0 accepted")
	}
	bad = good
	bad.AdviseEvery = MaxAdviseEveryMS*time.Millisecond + 1
	if bad.Validate() == nil {
		t.Fatal("AdviseEvery past MaxAdviseEveryMS accepted")
	}
}

// TestBatchRejectsHostileBodies posts batch bodies whose sizes come from an
// untrusted client: every one must be answered 400 (413 for an oversized
// body) without a panic and without admitting anything.
func TestBatchRejectsHostileBodies(t *testing.T) {
	s := newTestServer(t, testConfig())
	// No Start(): nothing drains, so a wrongly admitted request is answered
	// 200 (deadline miss) when its deadline_ms, or failing that the request
	// context, expires instead of hanging.
	h := s.Handler()
	tn, err := s.CreateTenant(fastSpec("t1"))
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name, fields string
		want         int
	}{
		{"repeat 4e9", `"repeat":4000000000`, http.StatusBadRequest},
		{"repeat over the bound", fmt.Sprintf(`"repeat":%d`, maxBatchPositions+1), http.StatusBadRequest},
		{"names x repeat over the bound", fmt.Sprintf(`"queries":["Q1","Q2"],"repeat":%d`, maxBatchPositions/2+1), http.StatusBadRequest},
		{"1e5 query names", `"queries":[` + strings.Repeat(`"Q1",`, 100_000) + `"Q1"]`, http.StatusBadRequest},
		{"negative repeat", `"repeat":-1`, http.StatusBadRequest},
		{"negative limit_sec", `"limit_sec":-0.5`, http.StatusBadRequest},
		{"deadline_ms past the bound", `"deadline_ms":9223372036855`, http.StatusBadRequest},
		{"negative deadline_ms", `"deadline_ms":-1`, http.StatusBadRequest},
		{"1e6 query names", `"queries":[` + strings.Repeat(`"Q1",`, 1_000_000) + `"Q1"]`, http.StatusRequestEntityTooLarge},
		{"64 MB body", `"queries":["` + strings.Repeat("x", 64<<20) + `"]`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		rec := httptest.NewRecorder()
		// A later deadline_ms in tc.fields overrides the leading one.
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/tenants/t1/batch", strings.NewReader(`{"deadline_ms":50,`+tc.fields+`}`)).WithContext(ctx))
		cancel()
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, rec.Code, tc.want)
		}
	}
	if st := tn.Stats(); st.Batches != 0 || st.Queries != 0 {
		t.Fatalf("hostile bodies were admitted: %+v", st)
	}
}

// TestBatchBitsEqualAcrossWorkerCounts: a batch fans out over GOMAXPROCS
// workers, and what it charges does not depend on how many there are. The
// same batch on two identically built tenants, one run at GOMAXPROCS 1 and
// one at 4, completes the same positions with the same timeout aborts and
// the same simulated seconds, bit for bit. The limit cuts some queries and
// not others, so the abort count is a real comparison.
func TestBatchBitsEqualAcrossWorkerCounts(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var got []BatchResult
	for _, procs := range []int{1, 4} {
		s := newTestServer(t, testConfig())
		s.Start()
		spec := fastSpec("t1")
		spec.Bench = "ssb"
		spec.Scale = 0.3
		// No advise cycle runs, so nothing moves the layout before the batch.
		spec.AdviseEveryMS = MaxAdviseEveryMS
		tn, err := s.CreateTenant(spec)
		if err != nil {
			t.Fatal(err)
		}
		prev := runtime.GOMAXPROCS(procs)
		wait, err := s.SubmitBatch(context.Background(), tn, nil, 3, 0.0048, 1)
		if err != nil {
			t.Fatal(err)
		}
		res, err := wait()
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		mustShutdown(t, s)
		got = append(got, res)
	}
	one, four := got[0], got[1]
	if one.Completed != one.Requested || one.Aborts == 0 || one.Aborts == one.Completed {
		t.Fatalf("GOMAXPROCS 1: %+v; want every position charged, some but not all cut at the limit", one)
	}
	if four.Completed != one.Completed || four.Aborts != one.Aborts ||
		math.Float64bits(four.SimSeconds) != math.Float64bits(one.SimSeconds) {
		t.Fatalf("GOMAXPROCS 4 charged %+v, GOMAXPROCS 1 %+v", four, one)
	}
}

// TestCreateTenantRejectsOversizedScale: a scale past datagen.MaxScale is a
// 400 naming the field. 1e19 used to overflow every table's row count and
// silently build a floor-sized database.
func TestCreateTenantRejectsOversizedScale(t *testing.T) {
	s := newTestServer(t, testConfig())
	h := s.Handler()
	for _, scale := range []string{"1e19", "1e300", "100.5"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/tenants", strings.NewReader(`{"id":"t1","scale":`+scale+`}`)))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "scale") {
			t.Errorf("scale %s: status %d, body %q; want 400 naming scale", scale, rec.Code, rec.Body.String())
		}
	}
	if n := len(s.TenantList()); n != 0 {
		t.Fatalf("%d tenants created from oversized scales", n)
	}
}

// TestNormalizeBoundsSpec: offline_episodes, online_episodes and weight
// above their caps are rejected by name (a 400 on POST /tenants, a non-zero
// advisord -preload exit) before anything trains; the caps themselves pass.
func TestNormalizeBoundsSpec(t *testing.T) {
	for _, tc := range []struct {
		field string
		spec  TenantSpec
		ok    bool
	}{
		{"offline_episodes", TenantSpec{OfflineEpisodes: MaxOfflineEpisodes}, true},
		{"offline_episodes", TenantSpec{OfflineEpisodes: 1e8}, false},
		{"online_episodes", TenantSpec{OnlineEpisodes: MaxOnlineEpisodes}, true},
		{"online_episodes", TenantSpec{OnlineEpisodes: MaxOnlineEpisodes + 1}, false},
		{"weight", TenantSpec{Weight: MaxTenantWeight}, true},
		{"weight", TenantSpec{Weight: 1e9}, false},
		{"weight", TenantSpec{Weight: math.NaN()}, false},
		{"advise_every_ms", TenantSpec{AdviseEveryMS: MaxAdviseEveryMS}, true},
		{"advise_every_ms", TenantSpec{AdviseEveryMS: 9223372036855}, false},
	} {
		tc.spec.ID = "t1"
		err := tc.spec.normalize()
		if tc.ok && err != nil {
			t.Errorf("%s at its cap rejected: %v", tc.field, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), tc.field)) {
			t.Errorf("%+v: normalize = %v, want an error naming %s", tc.spec, err, tc.field)
		}
	}
	s := newTestServer(t, testConfig())
	// An advise_every_ms this large used to be accepted, then wrapped to a
	// negative ticker period that panicked the advising goroutine.
	for field, body := range map[string]string{
		"online_episodes": `{"id":"t1","online_episodes":100000000}`,
		"advise_every_ms": `{"id":"t1","advise_every_ms":9223372036855}`,
	} {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/tenants", strings.NewReader(body)))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), field) {
			t.Errorf("POST /tenants: status %d, body %q; want 400 naming %s", rec.Code, rec.Body.String(), field)
		}
	}
}
