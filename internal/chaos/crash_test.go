package chaos

import (
	"encoding/json"
	"flag"
	"os"
	osexec "os/exec"
	"path/filepath"
	"testing"
)

var (
	crashCycles = flag.Int("crash.cycles", 3, "SIGKILL/restart cycles for the crash soak")
	crashSeed   = flag.Int64("crash.seed", 1, "kill-schedule seed for the crash soak")
)

// TestCrashRestartSoak builds the real advisord and loadgen binaries and
// runs the process-level kill-9 soak against them. Gated behind
// CRASH_SOAK=1 (scripts/crash_soak.sh) because it compiles binaries and
// runs for tens of seconds — it is a soak, not a unit test.
func TestCrashRestartSoak(t *testing.T) {
	if os.Getenv("CRASH_SOAK") != "1" {
		t.Skip("set CRASH_SOAK=1 (or run scripts/crash_soak.sh) to run the kill-9 soak")
	}
	bins := t.TempDir()
	build := osexec.Command("go", "build", "-o", bins+string(os.PathSeparator),
		"./cmd/advisord", "./cmd/loadgen")
	build.Dir = "../.."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build binaries: %v\n%s", err, out)
	}

	stateDir := filepath.Join(t.TempDir(), "state")
	cfg := CrashConfig{
		Seed:        *crashSeed,
		Cycles:      *crashCycles,
		AdvisordBin: filepath.Join(bins, "advisord"),
		LoadgenBin:  filepath.Join(bins, "loadgen"),
		Addr:        "127.0.0.1:18201",
		StateDir:    stateDir,
		Logf:        t.Logf,
	}
	rep, err := RunCrashSoak(cfg)
	if rep != nil {
		if data, jerr := json.MarshalIndent(rep, "", "  "); jerr == nil {
			t.Logf("crash soak report:\n%s", data)
		}
	}
	if err != nil {
		t.Fatalf("crash soak harness: %v", err)
	}
	if verr := rep.Err(); verr != nil {
		t.Fatalf("crash soak invariants violated: %v", verr)
	}

	// Every non-final cycle must have delivered its SIGKILL, not skated by.
	kills := 0
	for _, c := range rep.Cycles {
		if c.Killed {
			kills++
		}
	}
	if kills < *crashCycles {
		t.Fatalf("only %d SIGKILLs delivered, want %d", kills, *crashCycles)
	}
}
