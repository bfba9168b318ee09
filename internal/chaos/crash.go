package chaos

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strings"
	"time"
)

// Process-level crash-restart soak for advisord (DESIGN.md §10.4).
//
// Unlike Run (soak.go) — which injects faults inside one advisor — this
// harness checks what only a real process shows: it runs the advisord
// binary with -state-dir, SIGKILLs it at seeded instants under live batch
// traffic, restarts it, and asserts end to end:
//
//   - every preloaded tenant comes back after each kill, with no
//     recovery error,
//   - no tenant's restored generation goes backwards across restarts,
//   - after /readyz reports 200 the service answers traffic without a
//     single 5xx, and the readiness gap itself is bounded,
//   - a loadgen run bridging the first kill window absorbs it with
//     retries.
//
// Every crash point of the state-directory writes, torn writes and
// unsynced data included, is enumerated in-process by internal/serve's
// TestCrashPoints; a SIGKILL cannot show a missing fsync.

// The soak's fixed shape: two preloaded tenants, a seeded 2-4 s uptime
// before each kill, and a 60 s bound on a restart answering /readyz 200
// (beyond it is a violation, not a hang).
const (
	crashTenants      = 2
	crashMinUp        = 2 * time.Second
	crashMaxUp        = 4 * time.Second
	crashReadyTimeout = 60 * time.Second
)

// CrashConfig parameterizes a crash-restart soak.
type CrashConfig struct {
	// Seed drives kill timing. Identical seeds replay identical schedules.
	Seed int64
	// Cycles is the number of SIGKILL/restart cycles (default 3). The
	// soak runs Cycles+1 process instances: each of the first Cycles is
	// killed, the final instance only verifies recovery.
	Cycles int
	// AdvisordBin is the advisord binary path (required).
	AdvisordBin string
	// LoadgenBin is the loadgen binary path (required): a loadgen run with
	// -max-retries bridges the first kill/restart window, and its
	// availability counters are asserted (0 terminal 5xx/transport errors,
	// >0 ok, >0 retries).
	LoadgenBin string
	// Addr is the host:port advisord listens on (default 127.0.0.1:18201).
	Addr string
	// StateDir is the durable state directory (required; reused across
	// all cycles — that is the point).
	StateDir string
	// Logf receives progress lines (default: discard).
	Logf func(format string, args ...any)
}

func (c CrashConfig) withDefaults() (CrashConfig, error) {
	if c.AdvisordBin == "" || c.LoadgenBin == "" || c.StateDir == "" {
		return c, fmt.Errorf("chaos: crash soak needs AdvisordBin, LoadgenBin and StateDir")
	}
	if c.Cycles <= 0 {
		c.Cycles = 3
	}
	if c.Addr == "" {
		c.Addr = "127.0.0.1:18201"
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c, nil
}

// CrashCycleReport records one process instance's lifecycle.
type CrashCycleReport struct {
	Cycle       int     `json:"cycle"`
	RecoverySec float64 `json:"recovery_sec"`
	UptimeSec   float64 `json:"uptime_sec"`
	// Restored maps tenant → restored generation (-1 = fresh bootstrap);
	// empty on the first instance (nothing to recover).
	Restored       map[string]int64 `json:"restored,omitempty"`
	CorruptSkipped int              `json:"corrupt_skipped"`
	FreshBootstrap int              `json:"fresh_bootstraps"`
	Killed         bool             `json:"killed"`
}

// CrashReport is the soak outcome. Violations empty = all invariants held.
type CrashReport struct {
	Cycles     []CrashCycleReport `json:"cycles"`
	Violations []string           `json:"violations,omitempty"`
	Loadgen    map[string]any     `json:"loadgen,omitempty"`
}

// readyPayload is the part of /readyz's 200 body the soak reads.
type readyPayload struct {
	Recovery *struct {
		Tenants []struct {
			ID             string `json:"id"`
			CorruptSkipped int    `json:"corrupt_skipped"`
			RestoredGen    int64  `json:"restored_generation"`
			FreshBootstrap bool   `json:"fresh_bootstrap"`
			Err            string `json:"error"`
		} `json:"tenants"`
	} `json:"recovery"`
}

// RunCrashSoak executes the seeded kill/restart soak and returns the
// report. A non-nil error means the harness itself failed (binary
// missing, process refused to start); invariant failures land in
// Report.Violations instead.
func RunCrashSoak(cfg CrashConfig) (*CrashReport, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	rep := &CrashReport{}
	violate := func(format string, args ...any) {
		v := fmt.Sprintf(format, args...)
		rep.Violations = append(rep.Violations, v)
		cfg.Logf("VIOLATION: %s", v)
	}
	base := "http://" + cfg.Addr
	client := &http.Client{Timeout: 30 * time.Second}
	logDir := filepath.Join(cfg.StateDir, "logs")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}

	prevRestored := map[string]int64{}
	var loadgenCmd *osexec.Cmd // set on cycle 0, waited for on the final one
	defer func() {
		if loadgenCmd != nil { // a harness error ended the soak early
			loadgenCmd.Process.Kill()
			loadgenCmd.Wait()
		}
	}()
	loadgenOut := filepath.Join(logDir, "loadgen.json")

	for cycle := 0; cycle <= cfg.Cycles; cycle++ {
		cr := CrashCycleReport{Cycle: cycle}

		logPath := filepath.Join(logDir, fmt.Sprintf("advisord-%d.log", cycle))
		logFile, err := os.Create(logPath)
		if err != nil {
			return rep, err
		}
		cmd := osexec.Command(cfg.AdvisordBin,
			"-addr", cfg.Addr,
			"-state-dir", cfg.StateDir,
			"-preload", fmt.Sprint(crashTenants),
			"-bench", "micro",
			"-scale", "0.05",
			"-offline-episodes", "2",
			"-advise-ms", "50",
			"-checkpoint-every-ms", "100",
		)
		cmd.Stdout, cmd.Stderr = logFile, logFile
		if err := cmd.Start(); err != nil {
			logFile.Close()
			return rep, fmt.Errorf("chaos: start advisord (cycle %d): %w", cycle, err)
		}
		kill := func() {
			cmd.Process.Kill()
			cmd.Wait()
			logFile.Close()
		}

		// Wait for /readyz 200 — the bounded availability gap.
		began := time.Now()
		var ready readyPayload
		for {
			if time.Since(began) > crashReadyTimeout {
				violate("cycle %d: not ready after %v (see %s)", cycle, crashReadyTimeout, logPath)
				kill()
				rep.Cycles = append(rep.Cycles, cr)
				return rep, nil
			}
			resp, err := client.Get(base + "/readyz")
			if err == nil {
				code := resp.StatusCode
				if code == http.StatusOK {
					err = json.NewDecoder(resp.Body).Decode(&ready)
					resp.Body.Close()
					if err == nil {
						break
					}
					violate("cycle %d: readyz body: %v", cycle, err)
				} else {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
			time.Sleep(25 * time.Millisecond)
		}
		cr.RecoverySec = time.Since(began).Seconds()
		cfg.Logf("cycle %d: ready in %.2fs", cycle, cr.RecoverySec)

		// Invariant: every expected tenant exists.
		ids := listTenantIDs(client, base)
		for i := 1; i <= crashTenants; i++ {
			id := fmt.Sprintf("t%d", i)
			if !ids[id] {
				violate("cycle %d: tenant %s missing after recovery (have %v)", cycle, id, ids)
			}
		}

		// Invariants on the recovery report (every instance after the first).
		if cycle > 0 {
			if ready.Recovery == nil {
				violate("cycle %d: readyz carried no recovery report", cycle)
			} else {
				cr.Restored = map[string]int64{}
				for _, tr := range ready.Recovery.Tenants {
					cr.Restored[tr.ID] = tr.RestoredGen
					cr.CorruptSkipped += tr.CorruptSkipped
					if tr.FreshBootstrap {
						cr.FreshBootstrap++
					}
					if tr.Err != "" {
						violate("cycle %d: tenant %s recovery error: %s", cycle, tr.ID, tr.Err)
					}
					if prev, ok := prevRestored[tr.ID]; ok && tr.RestoredGen < prev {
						violate("cycle %d: tenant %s restored generation went backwards: %d < %d",
							cycle, tr.ID, tr.RestoredGen, prev)
					}
					prevRestored[tr.ID] = tr.RestoredGen
				}
				if len(ready.Recovery.Tenants) != crashTenants {
					violate("cycle %d: recovery report covers %d tenants, want %d",
						cycle, len(ready.Recovery.Tenants), crashTenants)
				}
			}
		}

		// Invariant: 5xx-free traffic after readiness.
		probeTraffic(client, base, func(format string, args ...any) {
			violate("cycle %d: %s", cycle, fmt.Sprintf(format, args...))
		})

		// Bridge a loadgen run across the first kill window.
		if cycle == 0 {
			dur := crashMaxUp + 15*time.Second
			loadgenCmd = osexec.Command(cfg.LoadgenBin,
				"-addr", base,
				"-tenants", fmt.Sprint(crashTenants),
				"-concurrency", "1",
				"-duration", dur.String(),
				"-max-retries", "200",
				"-out", loadgenOut,
			)
			lgLog, err := os.Create(filepath.Join(logDir, "loadgen.log"))
			if err != nil {
				kill()
				return rep, err
			}
			loadgenCmd.Stdout, loadgenCmd.Stderr = lgLog, lgLog
			if err := loadgenCmd.Start(); err != nil {
				kill()
				return rep, fmt.Errorf("chaos: start loadgen: %w", err)
			}
			cfg.Logf("cycle 0: loadgen bridging the kill window for %v", dur)
		}

		if cycle == cfg.Cycles {
			// Final instance: verification only — clean up and stop.
			loadgenCmd.Wait()
			checkLoadgenSummary(loadgenOut, rep, violate)
			loadgenCmd = nil
			kill()
			rep.Cycles = append(rep.Cycles, cr)
			break
		}

		// Seeded uptime, then SIGKILL.
		up := crashMinUp + time.Duration(rng.Int63n(int64(crashMaxUp-crashMinUp)+1))
		time.Sleep(up)
		cr.UptimeSec = time.Since(began).Seconds()
		cfg.Logf("cycle %d: SIGKILL after %.2fs up", cycle, up.Seconds())
		cr.Killed = true
		kill()

		rep.Cycles = append(rep.Cycles, cr)
	}
	return rep, nil
}

// listTenantIDs fetches GET /tenants and returns the tenant id set.
func listTenantIDs(client *http.Client, base string) map[string]bool {
	ids := map[string]bool{}
	resp, err := client.Get(base + "/tenants")
	if err != nil {
		return ids
	}
	defer resp.Body.Close()
	var stats []struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		return ids
	}
	for _, st := range stats {
		ids[st.ID] = true
	}
	return ids
}

// probeTraffic issues a burst of batch posts after readiness: every
// answer must be 200, or 429 carrying Retry-After — never a 5xx, never
// a transport error.
func probeTraffic(client *http.Client, base string, violate func(string, ...any)) {
	for i := 0; i < 10; i++ {
		resp, err := client.Post(base+"/tenants/t1/batch", "application/json",
			strings.NewReader(`{"repeat":1}`))
		if err != nil {
			violate("post-ready batch probe transport error: %v", err)
			return
		}
		code := resp.StatusCode
		retryAfter := resp.Header.Get("Retry-After")
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch {
		case code == http.StatusOK:
		case code == http.StatusTooManyRequests && retryAfter != "":
			time.Sleep(20 * time.Millisecond)
		default:
			violate("post-ready batch probe: status %d (Retry-After %q)", code, retryAfter)
			return
		}
	}
}

// checkLoadgenSummary asserts the bridged loadgen run saw availability
// across the kill window: some successes, some retries absorbing the
// gap, and zero terminal 5xx/transport errors.
func checkLoadgenSummary(path string, rep *CrashReport, violate func(string, ...any)) {
	data, err := os.ReadFile(path)
	if err != nil {
		violate("loadgen summary missing: %v", err)
		return
	}
	var sum struct {
		Total map[string]any `json:"total"`
	}
	if err := json.Unmarshal(data, &sum); err != nil {
		violate("loadgen summary unreadable: %v", err)
		return
	}
	rep.Loadgen = sum.Total
	num := func(key string) float64 {
		v, _ := sum.Total[key].(float64)
		return v
	}
	if num("ok") == 0 {
		violate("loadgen admitted nothing across the kill window")
	}
	if num("retries") == 0 {
		violate("loadgen reported zero retries across a kill window — the gap was not measured")
	}
	if n := num("errors_5xx"); n > 0 {
		violate("loadgen saw %g terminal 5xx across the kill window", n)
	}
	if n := num("other_errors"); n > 0 {
		violate("loadgen saw %g terminal transport errors across the kill window", n)
	}
}

// Err joins the report's violations into one error (nil when none).
func (r *CrashReport) Err() error {
	if len(r.Violations) == 0 {
		return nil
	}
	return errors.New(strings.Join(r.Violations, "; "))
}
