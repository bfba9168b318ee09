// Command loadgen is a closed-loop load driver for advisord. It runs
// `-concurrency × -overload` workers per tenant for -duration, each
// posting batches back-to-back, and reports per-tenant QPS, admitted-
// request latency (avg/p50/p95/p99), shed rate and deadline-miss rate
// plus the server's own /statz counters.
//
// Usage:
//
//	loadgen [-addr http://localhost:8080] [-tenants 4] [-concurrency 2]
//	        [-overload 1] [-duration 20s] [-deadline-ms 0] [-repeat 1]
//	        [-max-retries N] [-out BENCH.json] [-check] [-check-p95-ms 5000]
//
// The tenants (t1..tN) must already exist (e.g. advisord -preload).
//
// With -max-retries > 0, shed (429), not-ready (503 + Retry-After) and
// connection-level failures are retried with jittered exponential
// backoff that honors the server's Retry-After hint, up to N attempts
// per request. 429s still count as shed samples on every attempt (so
// overload contract checks see them); retried 503/transport attempts
// are absorbed into the `retries` column instead of terminal errors —
// this is what makes availability across a crash-restart window
// measurable rather than just fatal.
//
// With -check, the run becomes an assertion harness for the graceful-
// degradation contract and exits non-zero unless:
//
//   - zero 5xx and zero transport errors,
//   - every shed is a 429 carrying a Retry-After header,
//   - p95 latency of admitted requests stays under -check-p95-ms,
//   - when -overload > 1: some requests were shed, background advising
//     paused at least once, and the tier returns to normal after cooldown.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

type tenantReport struct {
	Tenant        string  `json:"tenant"`
	Requests      int     `json:"requests"`
	OK            int     `json:"ok"`
	Shed          int     `json:"shed"`
	Errors5xx     int     `json:"errors_5xx"`
	OtherErrors   int     `json:"other_errors"`
	NoRetryAfter  int     `json:"shed_without_retry_after"`
	DeadlineMiss  int     `json:"deadline_misses"`
	Retries       int     `json:"retries"`
	QPS           float64 `json:"qps"`
	AvgMS         float64 `json:"avg_ms"`
	P50MS         float64 `json:"p50_ms"`
	P95MS         float64 `json:"p95_ms"`
	P99MS         float64 `json:"p99_ms"`
	ShedRate      float64 `json:"shed_rate"`
	DeadlineRate  float64 `json:"deadline_miss_rate"`
	QueriesServed int64   `json:"queries_served"`
}

type summary struct {
	Addr        string         `json:"addr"`
	Tenants     int            `json:"tenants"`
	Workers     int            `json:"workers_per_tenant"`
	Overload    float64        `json:"overload"`
	DurationSec float64        `json:"duration_sec"`
	PerTenant   []tenantReport `json:"per_tenant"`
	Total       tenantReport   `json:"total"`
	Statz       map[string]any `json:"statz"`
	FinalTier   int            `json:"final_tier"`
	Checked     bool           `json:"checked"`
	Failures    []string       `json:"check_failures,omitempty"`
}

type sample struct {
	status       int
	wallMS       float64
	retryAfter   bool
	deadlineMiss bool
	transportErr bool
}

func main() {
	var (
		addr     = flag.String("addr", "http://localhost:8080", "advisord base URL")
		tenants  = flag.Int("tenants", 4, "number of tenants (t1..tN)")
		conc     = flag.Int("concurrency", 2, "closed-loop workers per tenant at overload 1")
		overload = flag.Float64("overload", 1, "offered-load multiplier (workers = concurrency*overload)")
		duration = flag.Duration("duration", 20*time.Second, "measurement duration")
		deadline = flag.Int64("deadline-ms", 0, "per-request deadline forwarded to the server (0 = none)")
		repeat   = flag.Int("repeat", 1, "workload repetitions per batch")
		outPath  = flag.String("out", "", "write the JSON summary to this file")
		check    = flag.Bool("check", false, "assert the graceful-degradation contract; exit 1 on violation")
		p95Bound = flag.Float64("check-p95-ms", 5000, "admitted-request p95 bound for -check")
		retries  = flag.Int("max-retries", 0, "retry 429/503/transport failures up to N times with jittered backoff (0 = fail fast)")
	)
	flag.Parse()
	client := &http.Client{Timeout: 60 * time.Second}

	workers := int(math.Ceil(float64(*conc) * *overload))
	if workers < 1 {
		workers = 1
	}

	fmt.Printf("loadgen: %d tenants x %d workers for %v (overload %.1fx)\n",
		*tenants, workers, *duration, *overload)

	var mu sync.Mutex
	samplesByTenant := make(map[string][]sample)
	retriesByTenant := make(map[string]int)
	var wg sync.WaitGroup
	stop := time.Now().Add(*duration)

	// spawn starts one closed-loop worker posting to tenant until stop.
	spawn := func(tenant string, seed int64) {
		wg.Add(1)
		rng := rand.New(rand.NewSource(seed))
		go func() {
			defer wg.Done()
			req := map[string]any{"repeat": *repeat}
			if *deadline > 0 {
				req["deadline_ms"] = *deadline
			}
			body, _ := json.Marshal(req)
			url := *addr + "/tenants/" + tenant + "/batch"
			attempt := 0
			for time.Now().Before(stop) {
				start := time.Now()
				resp, err := client.Post(url, "application/json", bytes.NewReader(body))
				sm := sample{wallMS: float64(time.Since(start).Microseconds()) / 1000}
				retryAfterSec := 0
				if err != nil {
					sm.transportErr = true
				} else {
					sm.status = resp.StatusCode
					sm.retryAfter = resp.Header.Get("Retry-After") != ""
					retryAfterSec, _ = strconv.Atoi(resp.Header.Get("Retry-After"))
					if resp.StatusCode == http.StatusOK {
						var br struct {
							DeadlineMiss bool `json:"deadline_miss"`
						}
						_ = json.NewDecoder(resp.Body).Decode(&br)
						sm.deadlineMiss = br.DeadlineMiss
					} else {
						_, _ = io.Copy(io.Discard, resp.Body)
					}
					resp.Body.Close()
				}

				// Retry classification. A 429 is always recorded — the
				// overload contract counts sheds — but with retry budget
				// left the worker backs off and tries again instead of
				// moving on. A transport failure or a 503 carrying
				// Retry-After (the server restarting or recovering) is
				// absorbed into the retries column while budget lasts;
				// only exhaustion records it as a terminal error.
				shed := sm.status == http.StatusTooManyRequests
				transient := sm.transportErr ||
					(sm.status == http.StatusServiceUnavailable && sm.retryAfter)
				retrying := (shed || transient) && attempt < *retries
				if shed || !retrying {
					mu.Lock()
					samplesByTenant[tenant] = append(samplesByTenant[tenant], sm)
					mu.Unlock()
				}
				if retrying {
					mu.Lock()
					retriesByTenant[tenant]++
					mu.Unlock()
					attempt++
					sleepUntil(stop, backoffDelay(rng, attempt, retryAfterSec))
					continue
				}
				attempt = 0
				if shed {
					// Closed-loop backoff on shed: keep offering load but
					// don't melt the local CPU spinning on 429s.
					time.Sleep(10 * time.Millisecond)
				}
			}
		}()
	}

	for ti := 1; ti <= *tenants; ti++ {
		for w := 0; w < workers; w++ {
			spawn(fmt.Sprintf("t%d", ti), int64(ti*1000+w))
		}
	}
	wg.Wait()

	sum := summary{
		Addr: *addr, Tenants: *tenants, Workers: workers,
		Overload: *overload, DurationSec: duration.Seconds(), Checked: *check,
	}
	for ti := 1; ti <= *tenants; ti++ {
		tenant := fmt.Sprintf("t%d", ti)
		rep := reduce(tenant, samplesByTenant[tenant], duration.Seconds())
		rep.QueriesServed = tenantQueries(client, *addr, tenant)
		rep.Retries = retriesByTenant[tenant]
		sum.PerTenant = append(sum.PerTenant, rep)
	}
	var all []sample
	for _, ss := range samplesByTenant {
		all = append(all, ss...)
	}
	sum.Total = aggregateTotals(sum.PerTenant, all, duration.Seconds())

	sum.Statz = getJSON(client, *addr+"/statz")
	sum.FinalTier = waitTierNormal(client, *addr, 20*time.Second)

	if *check {
		sum.Failures = checkContract(&sum, *overload, *p95Bound)
	}

	for _, rep := range sum.PerTenant {
		fmt.Printf("loadgen: %-4s qps %7.1f  ok %5d  shed %5d (%.0f%%)  retries %4d  p50 %6.1fms  p95 %6.1fms  p99 %6.1fms  miss %d\n",
			rep.Tenant, rep.QPS, rep.OK, rep.Shed, rep.ShedRate*100, rep.Retries, rep.P50MS, rep.P95MS, rep.P99MS, rep.DeadlineMiss)
	}
	fmt.Printf("loadgen: total qps %.1f  shed rate %.1f%%  retries %d  5xx %d  final tier %d\n",
		sum.Total.QPS, sum.Total.ShedRate*100, sum.Total.Retries, sum.Total.Errors5xx, sum.FinalTier)

	if *outPath != "" {
		data, _ := json.MarshalIndent(sum, "", "  ")
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			fatalf("write %s: %v", *outPath, err)
		}
		fmt.Printf("loadgen: summary written to %s\n", *outPath)
	}
	if len(sum.Failures) > 0 {
		for _, f := range sum.Failures {
			fmt.Fprintln(os.Stderr, "loadgen: CHECK FAILED:", f)
		}
		os.Exit(1)
	}
	if *check {
		fmt.Println("loadgen: all checks passed")
	}
}

// aggregateTotals folds the per-tenant reports into the fleet-wide "all"
// row: additive counters — Requests, OK, Shed, error classes, deadline
// misses, QPS and QueriesServed — sum across tenants, rates are recomputed
// over the summed counters, and latency stats come from the pooled sample
// set (percentiles do not sum).
func aggregateTotals(reps []tenantReport, all []sample, durSec float64) tenantReport {
	total := tenantReport{Tenant: "all"}
	for _, rep := range reps {
		total.Requests += rep.Requests
		total.OK += rep.OK
		total.Shed += rep.Shed
		total.Errors5xx += rep.Errors5xx
		total.OtherErrors += rep.OtherErrors
		total.NoRetryAfter += rep.NoRetryAfter
		total.DeadlineMiss += rep.DeadlineMiss
		total.Retries += rep.Retries
		total.QPS += rep.QPS
		total.QueriesServed += rep.QueriesServed
	}
	if total.Requests > 0 {
		total.ShedRate = float64(total.Shed) / float64(total.Requests)
	}
	if total.OK > 0 {
		total.DeadlineRate = float64(total.DeadlineMiss) / float64(total.OK)
	}
	agg := reduce("all", all, durSec)
	total.AvgMS, total.P50MS, total.P95MS, total.P99MS =
		agg.AvgMS, agg.P50MS, agg.P95MS, agg.P99MS
	return total
}

func reduce(tenant string, ss []sample, durSec float64) tenantReport {
	rep := tenantReport{Tenant: tenant, Requests: len(ss)}
	var lat []float64
	for _, sm := range ss {
		switch {
		case sm.transportErr:
			rep.OtherErrors++
		case sm.status == http.StatusOK:
			rep.OK++
			lat = append(lat, sm.wallMS)
			if sm.deadlineMiss {
				rep.DeadlineMiss++
			}
		case sm.status == http.StatusTooManyRequests:
			rep.Shed++
			if !sm.retryAfter {
				rep.NoRetryAfter++
			}
		case sm.status >= 500:
			rep.Errors5xx++
		default:
			rep.OtherErrors++
		}
	}
	if durSec > 0 {
		rep.QPS = float64(rep.OK) / durSec
	}
	if rep.Requests > 0 {
		rep.ShedRate = float64(rep.Shed) / float64(rep.Requests)
	}
	if rep.OK > 0 {
		rep.DeadlineRate = float64(rep.DeadlineMiss) / float64(rep.OK)
	}
	if len(lat) > 0 {
		sort.Float64s(lat)
		var s float64
		for _, v := range lat {
			s += v
		}
		rep.AvgMS = s / float64(len(lat))
		rep.P50MS = pct(lat, 0.50)
		rep.P95MS = pct(lat, 0.95)
		rep.P99MS = pct(lat, 0.99)
	}
	return rep
}

func pct(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func getJSON(client *http.Client, url string) map[string]any {
	resp, err := client.Get(url)
	if err != nil {
		return map[string]any{"error": err.Error()}
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return map[string]any{"error": err.Error()}
	}
	return m
}

func tenantQueries(client *http.Client, addr, tenant string) int64 {
	m := getJSON(client, addr+"/tenants/"+tenant+"/stats")
	if v, ok := m["queries"].(float64); ok {
		return int64(v)
	}
	return 0
}

// waitTierNormal polls /healthz until the degradation tier returns to
// normal (or the timeout passes) and returns the final tier.
func waitTierNormal(client *http.Client, addr string, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	tier := -1
	for {
		m := getJSON(client, addr+"/healthz")
		if v, ok := m["tier"].(float64); ok {
			tier = int(v)
		}
		if tier == 0 || time.Now().After(deadline) {
			return tier
		}
		time.Sleep(200 * time.Millisecond)
	}
}

func checkContract(sum *summary, overload, p95Bound float64) []string {
	var fails []string
	if sum.Total.Errors5xx > 0 {
		fails = append(fails, fmt.Sprintf("%d responses were 5xx; overload must shed with 429, never crash", sum.Total.Errors5xx))
	}
	if sum.Total.OtherErrors > 0 {
		fails = append(fails, fmt.Sprintf("%d transport/unexpected errors", sum.Total.OtherErrors))
	}
	if sum.Total.NoRetryAfter > 0 {
		fails = append(fails, fmt.Sprintf("%d sheds arrived without a Retry-After header", sum.Total.NoRetryAfter))
	}
	if sum.Total.OK == 0 {
		fails = append(fails, "no request was admitted at all")
	}
	if sum.Total.P95MS > p95Bound {
		fails = append(fails, fmt.Sprintf("admitted p95 %.1fms exceeds bound %.0fms", sum.Total.P95MS, p95Bound))
	}
	if overload > 1 {
		if sum.Total.Shed == 0 {
			fails = append(fails, "overload run shed nothing; admission control is not engaging")
		}
		paused, _ := sum.Statz["advise_paused_cycles"].(float64)
		esc, _ := sum.Statz["tier_escalations"].(float64)
		if paused == 0 && esc == 0 {
			fails = append(fails, "overload never paused background advising (no escalations, no paused cycles)")
		}
		if sum.FinalTier != 0 {
			fails = append(fails, fmt.Sprintf("tier still %d after cooldown; degradation must recover", sum.FinalTier))
		}
	}
	return fails
}

// backoffDelay computes the wait before retry number attempt (1-based):
// full-jittered exponential backoff (base 50ms, doubling, capped at 2s),
// raised to the server's Retry-After hint when one was given (capped at
// 5s so a stale hint cannot stall the driver).
func backoffDelay(rng *rand.Rand, attempt, retryAfterSec int) time.Duration {
	shift := attempt
	if shift > 5 {
		shift = 5
	}
	d := 50 * time.Millisecond << shift
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	d = d/2 + time.Duration(rng.Int63n(int64(d/2)))
	if ra := time.Duration(retryAfterSec) * time.Second; ra > d {
		if ra > 5*time.Second {
			ra = 5 * time.Second
		}
		d = ra
	}
	return d
}

// sleepUntil sleeps for d but never past the run's stop time.
func sleepUntil(stop time.Time, d time.Duration) {
	if rem := time.Until(stop); d > rem {
		d = rem
	}
	if d > 0 {
		time.Sleep(d)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "loadgen: "+format+"\n", args...)
	os.Exit(1)
}
