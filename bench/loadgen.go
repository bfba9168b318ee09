package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"partadvisor/internal/serve"
)

// tenantPlan is one tenant of a fleet and the batch body its application
// sends: micro batches are ten passes over a tiny workload, the others one.
type tenantPlan struct {
	spec serve.TenantSpec
	body []byte
}

func planTenants(seed int64, benches ...string) []tenantPlan {
	plans := make([]tenantPlan, len(benches))
	for i, b := range benches {
		body := `{"repeat":1}`
		if b == "micro" {
			body = `{"repeat":10}`
		}
		plans[i] = tenantPlan{
			spec: serve.TenantSpec{ID: fmt.Sprintf("t%d", i+1), Bench: b, Scale: 0.3, Seed: seed + int64(i)},
			body: []byte(body),
		}
	}
	return plans
}

// fleet is an in-process advisord: server, loopback listener and client.
type fleet struct {
	srv    *serve.Server
	http   *http.Server
	served chan struct{}
	base   string
	client *http.Client
	plans  []tenantPlan
}

// spanHeader carries the client span's id and operation id to the traced
// handler, so the server-side span is recorded as its child.
const spanHeader = "X-Bench-Span"

// listen serves srv.Handler() on a fresh loopback port. On the traced
// run the handler is wrapped in a span around ServeHTTP.
func listen(r *run, srv *serve.Server, plans []tenantPlan) (*fleet, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if r.rec != nil {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			parent, op := noSpan, 0
			fmt.Sscanf(req.Header.Get(spanHeader), "%d.%d", &parent, &op)
			id := r.rec.begin("serve.handler", parent, op)
			inner.ServeHTTP(w, req)
			r.rec.end(id)
		})
	}
	f := &fleet{
		srv:    srv,
		http:   &http.Server{Handler: h},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConns: 256, MaxIdleConnsPerHost: 256}},
		plans:  plans,
	}
	go func() {
		defer close(f.served)
		f.http.Serve(ln) // returns ErrServerClosed at close
	}()
	return f, nil
}

// closeListener stops the HTTP side and waits for its goroutine; the
// serve.Server is stopped by the caller (Halt models the crash).
func (f *fleet) closeListener() {
	f.client.CloseIdleConnections()
	f.http.Close()
	<-f.served
}

// stop tears the whole fleet down without writing durable state.
func (f *fleet) stop() {
	f.closeListener()
	f.srv.Halt()
}

// setupFleet sets a fleet up setupReps times, each in a fresh state
// directory (left in cfg.StateDir) and timed into r.setupSec, and returns
// the last one running. With warmUp, set-up ends with one batch per tenant: it opens the
// connections and warms each engine's caches before the timed phases.
func setupFleet(r *run, cfg *serve.Config, plans []tenantPlan, createMS map[string][]float64, warmUp bool) (*fleet, error) {
	var f *fleet
	for i := 0; i < setupReps; i++ {
		if f != nil {
			f.stop()
		}
		start := time.Now()
		cfg.StateDir = filepath.Join(r.dir, fmt.Sprintf("state%d", i))
		var err error
		if f, err = startFleet(r, *cfg, plans, createMS); err != nil {
			return nil, err
		}
		for t := 0; warmUp && t < len(plans); t++ {
			if p := f.post(t, noSpan, 0); !p.ok() {
				f.stop()
				return nil, fmt.Errorf("warm-up batch for %s: %v", plans[t].spec.ID, p)
			}
		}
		r.setupSec = append(r.setupSec, time.Since(start).Seconds())
	}
	return f, nil
}

// phase is the given share of the run length.
func phase(seconds int, share float64) time.Duration {
	return time.Duration(share * float64(seconds) * float64(time.Second))
}

// startFleet builds a server with the given config, creates the tenants
// (timing each creation by benchmark) and opens the listener.
func startFleet(r *run, cfg serve.Config, plans []tenantPlan, createMS map[string][]float64) (*fleet, error) {
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	srv.MarkReady()
	srv.Start()
	for _, p := range plans {
		id := r.rec.begin("serve.create_tenant."+p.spec.Bench, noSpan, 0)
		start := time.Now()
		if _, err := srv.CreateTenant(p.spec); err != nil {
			srv.Halt()
			return nil, err
		}
		createMS[p.spec.Bench] = append(createMS[p.spec.Bench], time.Since(start).Seconds()*1e3)
		r.rec.end(id)
	}
	f, err := listen(r, srv, plans)
	if err != nil {
		srv.Halt()
		return nil, err
	}
	return f, nil
}

// reply is what the client learned from one batch request.
type reply struct {
	status int
	resp   serve.BatchResponse
	err    error
	// sent and done bracket the HTTP exchange.
	sent, done time.Time
}

// ok is the output check of one batch: 200 with every query completed.
func (p reply) ok() bool {
	return p.err == nil && p.status == http.StatusOK && p.resp.Requested > 0 &&
		p.resp.Completed == p.resp.Requested && !p.resp.DeadlineMiss && !p.resp.Cancelled
}

func (p reply) String() string {
	if p.err != nil {
		return p.err.Error()
	}
	return fmt.Sprintf("status %d, completed %d of %d", p.status, p.resp.Completed, p.resp.Requested)
}

// request sends one batch to tenant i inside a "serve.request" span of
// its own operation.
func (f *fleet) request(r *run, i int) reply {
	op := int(r.nextOp.Add(1))
	id := r.rec.begin("serve.request", noSpan, op)
	p := f.post(i, id, op)
	r.rec.end(id)
	return p
}

// post sends one batch to tenant i. span and op are the caller's span
// context, forwarded to the traced handler.
func (f *fleet) post(i, span, op int) reply {
	p := f.plans[i%len(f.plans)]
	var out reply
	req, err := http.NewRequest(http.MethodPost, f.base+"/tenants/"+p.spec.ID+"/batch", bytes.NewReader(p.body))
	if err != nil {
		out.err = err
		return out
	}
	req.Header.Set("Content-Type", "application/json")
	if span != noSpan {
		req.Header.Set(spanHeader, fmt.Sprintf("%d.%d", span, op))
	}
	out.sent = time.Now()
	resp, err := f.client.Do(req)
	if err != nil {
		out.err, out.done = err, time.Now()
		return out
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out.done = time.Now()
	out.status = resp.StatusCode
	if err != nil {
		out.err = err
	} else if resp.StatusCode == http.StatusOK {
		out.err = json.Unmarshal(body, &out.resp)
	}
	return out
}

// dueOffset is when request i of an open loop at rate per second is due,
// measured from the start of the phase.
func dueOffset(i int, rate float64) time.Duration {
	return time.Duration(float64(i) / rate * float64(time.Second))
}

// openLoopCount is how many requests an open loop of that rate and
// duration sends.
func openLoopCount(rate float64, d time.Duration) int {
	return int(rate * d.Seconds())
}

// lateness is how long after a request's due time the generator released
// it (0 when the generator was early or on time).
func lateness(due, released time.Time) time.Duration {
	return max(released.Sub(due), 0)
}

// latenessInvalid applies the open loop's validity rule: the generator
// ran late if it released the median request more than a tenth of the
// inter-arrival gap after it was due. (The latency samples already
// include the lateness: they are timed from the due time.)
func latenessInvalid(lateMS []float64, rate float64) bool {
	gapMS := 1e3 / rate
	return median(lateMS) > gapMS/10
}

// openSample is one request of the open loop.
type openSample struct {
	reply
	// due is the scheduled send time; released is when the generator woke
	// for it.
	due, released time.Time
}

// openLoop sends n requests on a fixed schedule regardless of replies —
// independent tenant applications — each on its own goroutine, round-robin
// over the tenants. Latency is timed from the due time by the caller.
func (f *fleet) openLoop(r *run, rate float64, n int) []openSample {
	samples := make([]openSample, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(dueOffset(i, rate))
		time.Sleep(time.Until(due))
		released := time.Now()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			samples[i] = openSample{f.request(r, i), due, released}
		}(i)
	}
	wg.Wait()
	return samples
}

// closedLoop runs the given number of clients for d; each sends its next
// batch when the previous reply arrives, starting at its own tenant.
func (f *fleet) closedLoop(r *run, clients int, d time.Duration) (replies []reply, elapsed time.Duration) {
	perClient := make([][]reply, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; time.Now().Before(deadline); i++ {
				perClient[c] = append(perClient[c], f.request(r, i))
			}
		}(c)
	}
	wg.Wait()
	elapsed = time.Since(start)
	for _, rs := range perClient {
		replies = append(replies, rs...)
	}
	return replies, elapsed
}
