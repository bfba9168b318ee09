package experiments

import (
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"partadvisor/advisor"
	"partadvisor/internal/partition"
	"partadvisor/internal/workload"
)

func TestTable1MatchesPaper(t *testing.T) {
	r := table1()
	want := map[string]string{
		"Learning Rate":                    "0.0005",
		"tau (Target network update)":      "0.001",
		"Optimizer":                        "Adam",
		"Experience Replay Buffer Size":    "10000",
		"Batch Size for Experience Replay": "32",
		"Epsilon Decay":                    "0.997",
		"tmax (Max Stepsize)":              "100",
		"Episodes":                         "600/1200",
		"Network Layout":                   "128-64",
		"gamma (Reward Discount)":          "0.99",
	}
	got := map[string]string{}
	for _, row := range r.Rows {
		got[row[0]] = row[1]
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("Table1[%q] = %q, want %q", k, got[k], v)
		}
	}
}

func TestRenderFormatsTable(t *testing.T) {
	r := &Result{ID: "x", Title: "T", Header: []string{"A", "BB"}}
	r.AddRow("v", 1.5)
	r.Notef("hello %d", 7)
	out := r.Render()
	for _, want := range []string{"== x: T ==", "A", "BB", "note: hello 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
}

func TestRunUnknownID(t *testing.T) {
	// "fig3" is not an id: Fig. 3's panels are fig3a..fig3f.
	for _, id := range []string{"nope", "fig3", ""} {
		if _, err := Run(id, TestConfig()); err == nil {
			t.Fatalf("unknown id %q accepted", id)
		}
	}
}

// TestIDsCovered checks the registry without running anything: ids are
// unique, Run resolves every one of them, and RunAll runs all but
// ablations (whose wall-time column no digest could pin), in order.
func TestIDsCovered(t *testing.T) {
	ids := IDs()
	seen := map[string]bool{}
	var full []string
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("id %q listed twice: %v", id, ids)
		}
		seen[id] = true
		if id != "ablations" {
			full = append(full, id)
		}
	}
	var inRunAll []string
	for i, e := range registry {
		if e.id != ids[i] || e.run == nil {
			t.Fatalf("registry[%d] = %q (run set: %v), IDs()[%d] = %q", i, e.id, e.run != nil, i, ids[i])
		}
		if !e.timed {
			inRunAll = append(inRunAll, e.id)
		}
	}
	if !slices.Equal(inRunAll, full) {
		t.Fatalf("RunAll runs %v, want %v", inRunAll, full)
	}
}

// TestRunAllStopsBetweenExperiments: a Stop that is true from the start
// lets the first experiment finish and skips the rest, without error.
func TestRunAllStopsBetweenExperiments(t *testing.T) {
	cfg := TestConfig()
	cfg.Stop = func() bool { return true }
	rs, err := RunAll(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].ID != "table1" {
		t.Fatalf("RunAll with Stop set ran %d experiments, want [table1]", len(rs))
	}
}

// parseRuntimeCell extracts a numeric cell (fails on "not available").
func parseRuntimeCell(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cell %q not numeric: %v", cell, err)
	}
	return v
}

func TestFig3SSBBothFlavors(t *testing.T) {
	cfg := TestConfig()
	cfg.Scale = 0.2
	for _, id := range []string{"fig3a", "fig3b"} {
		rs, err := Run(id, cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		r := rs[0]
		if len(r.Rows) != 4 {
			t.Fatalf("%s rows = %v", id, r.Rows)
		}
		// Disk exposes the optimizer baseline; memory does not.
		moCell := r.Rows[2][1]
		if id == "fig3a" && moCell == "not available" {
			t.Fatalf("fig3a lost the minimum-optimizer baseline")
		}
		if id == "fig3b" && moCell != "not available" {
			t.Fatalf("fig3b should not have optimizer estimates")
		}
		// All runtimes positive.
		for _, row := range r.Rows {
			if row[1] == "not available" {
				continue
			}
			if v := parseRuntimeCell(t, row[1]); v <= 0 {
				t.Fatalf("%s %s runtime %v", id, row[0], v)
			}
		}
	}
}

func TestFig4aAndFig4bStructure(t *testing.T) {
	sh := &shared{cfg: TestConfig()}
	r4a, err := fig4a(sh)
	if err != nil {
		t.Fatal(err)
	}
	if len(r4a.Rows) != 5 {
		t.Fatalf("fig4a rows = %v", r4a.Rows)
	}
	r4b, err := fig4b(sh)
	if err != nil {
		t.Fatal(err)
	}
	if len(r4b.Rows) != 4 {
		t.Fatalf("fig4b rows = %v", r4b.Rows)
	}
	if r4b.Rows[0][0] != "+0%" || r4b.Rows[3][0] != "+60%" {
		t.Fatalf("fig4b levels = %v", r4b.Rows)
	}
	// Runtimes must grow with data volume for every approach.
	for col := 1; col <= 4; col++ {
		base := parseRuntimeCell(t, r4b.Rows[0][col])
		last := parseRuntimeCell(t, r4b.Rows[3][col])
		if last <= base {
			t.Errorf("fig4b col %d: runtime did not grow with +60%% data (%v -> %v)", col, base, last)
		}
	}
}

func TestTable2SpeedupsPositive(t *testing.T) {
	cfg := TestConfig()
	r, err := table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("table2 rows = %v", r.Rows)
	}
	times := make([]float64, 0, 5)
	for _, row := range r.Rows {
		times = append(times, parseRuntimeCell(t, row[1]))
	}
	// Each cumulative optimization must not increase training time.
	for i := 1; i < len(times); i++ {
		if times[i] > times[i-1]*1.0001 {
			t.Errorf("table2 row %d time %v > previous %v", i, times[i], times[i-1])
		}
	}
	// The runtime cache must be a significant win.
	if times[1] >= times[0] {
		t.Errorf("runtime cache saved nothing: %v vs %v", times[1], times[0])
	}
}

func TestFig5AccuraciesInRange(t *testing.T) {
	sh := &shared{cfg: TestConfig()}
	r, err := fig5(sh)
	if err != nil {
		t.Fatal(err)
	}
	if committee := sh.experts; committee == nil || len(committee.Refs) == 0 {
		t.Fatalf("no committee built")
	}
	if len(r.Rows) != 4 {
		t.Fatalf("fig5 rows = %v", r.Rows)
	}
	for _, row := range r.Rows {
		for _, cell := range row[1:] {
			v, err := strconv.Atoi(strings.TrimSuffix(cell, "%"))
			if err != nil || v < 0 || v > 100 {
				t.Fatalf("accuracy cell %q", cell)
			}
		}
	}
}

func TestFig6Structure(t *testing.T) {
	cfg := TestConfig()
	r, err := fig6(cfg, []int{2, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("fig6 rows = %v", r.Rows)
	}
	for _, row := range r.Rows {
		v, err := strconv.Atoi(strings.TrimSuffix(row[1], "%"))
		if err != nil {
			t.Fatalf("fig6 median %q", row[1])
		}
		if v < 0 || v > 120 {
			t.Fatalf("fig6 incremental ratio %d%% out of range", v)
		}
	}
}

func TestFig8Structure(t *testing.T) {
	cfg := TestConfig()
	cfg.Scale = 0.5
	r, err := fig8(false)(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("fig8 rows = %v", r.Rows)
	}
	for _, row := range r.Rows {
		for _, cell := range row[1:] {
			if !strings.HasSuffix(cell, "x") {
				t.Fatalf("speedup cell %q", cell)
			}
			v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "x"), 64)
			if err != nil || v < 0.99 {
				t.Fatalf("speedup %q below 1", cell)
			}
		}
	}
}

func TestMeasureAccuracyHelper(t *testing.T) {
	// A dominant fixed suggester must score 100%; a clearly inferior one 0%.
	cfg := TestConfig()
	d := advisor.NewDeployment(advisor.TPCCH(), advisor.DiskCluster(), cfg.Scale, cfg.Seed)
	sp := d.Space
	good := sp.InitialState()
	// Replicate the largest table: strictly worse for every mix.
	bad := sp.Apply(good, partition.Action{Kind: partition.ActReplicate, Table: sp.TableIndex("orderline")})
	approaches := []suggester{
		fixedSuggester("good", good),
		fixedSuggester("bad", bad),
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	acc, err := measureAccuracy(d.OfflineCost(), approaches,
		func(r *rand.Rand) workload.FreqVector { return d.Bench.Workload.SampleUniform(r) },
		10, rng)
	if err != nil {
		t.Fatal(err)
	}
	if acc["good"] != 1 {
		t.Fatalf("good accuracy = %v", acc["good"])
	}
	if acc["bad"] != 0 {
		t.Fatalf("bad accuracy = %v", acc["bad"])
	}
}

func TestExperimentsDeterministic(t *testing.T) {
	// The entire pipeline — data generation, training, measurement — is
	// seeded: the same config must reproduce identical result rows.
	cfg := TestConfig()
	r1, err := fig8(false)(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := fig8(false)(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Rows) != len(r2.Rows) {
		t.Fatalf("row counts differ")
	}
	for i := range r1.Rows {
		for j := range r1.Rows[i] {
			if r1.Rows[i][j] != r2.Rows[i][j] {
				t.Fatalf("row %d cell %d differs: %q vs %q", i, j, r1.Rows[i][j], r2.Rows[i][j])
			}
		}
	}
}

func TestAblationsExperiment(t *testing.T) {
	cfg := TestConfig()
	rs, err := Run("ablations", cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := rs[0]
	if len(r.Rows) != 4 {
		t.Fatalf("ablations rows = %v", r.Rows)
	}
	for _, row := range r.Rows {
		if v := parseRuntimeCell(t, row[1]); v <= 0 {
			t.Fatalf("%s runtime %v", row[0], v)
		}
	}
}

func TestFig7Structure(t *testing.T) {
	sh := &shared{cfg: TestConfig()}
	r7a, err := fig7a(sh)
	if err != nil {
		t.Fatal(err)
	}
	if len(r7a.Rows) != 4 {
		t.Fatalf("fig7a rows = %v", r7a.Rows)
	}
	for _, row := range r7a.Rows {
		if v := parseRuntimeCell(t, row[1]); v <= 0 {
			t.Fatalf("%s runtime %v", row[0], v)
		}
	}
	r7b, err := fig7b(sh)
	if err != nil {
		t.Fatal(err)
	}
	if len(r7b.Rows) != 4 {
		t.Fatalf("fig7b rows = %v", r7b.Rows)
	}
}

func TestReproAndPaperConfigsSane(t *testing.T) {
	for _, cfg := range []Config{ReproConfig(), PaperConfig()} {
		if cfg.Scale <= 0 || cfg.SampleRate <= 0 || cfg.Mixes <= 0 || cfg.HP == nil {
			t.Fatalf("config incomplete: %+v", cfg)
		}
		if err := cfg.HP(true).Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAvailabilityExperiment(t *testing.T) {
	rs, err := Run("availability", TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := rs[0]
	if r.ID != "availability" || len(r.Rows) != 6 {
		t.Fatalf("availability result = %+v", r)
	}
	frac := func(row []string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(row[1], "%"), 64)
		if err != nil {
			t.Fatalf("availability cell %q: %v", row[1], err)
		}
		return v
	}
	byName := map[string][]string{}
	for _, row := range r.Rows {
		byName[row[0]] = row
	}
	// The full-replication reference never loses a query: replica failover
	// keeps every read running through the crash windows.
	if v := frac(byName["Replicate-all (reference)"]); v != 100 {
		t.Fatalf("replicate-all availability = %v%%", v)
	}
	// The fault-blind heuristics keep partitioned designs and lose the
	// node-1 shards during every down window.
	ha := frac(byName["Heuristic (a)"])
	if ha >= 100 {
		t.Fatalf("heuristic (a) availability = %v%%, the crash regime must cost it queries", ha)
	}
	// The online agent saw the failures (penalized rewards + sticky failure
	// memory + live outage validation) and must at least match the best
	// fault-blind baseline.
	online := frac(byName["RL online (faults seen)"])
	for name, row := range byName {
		if name == "RL online (faults seen)" || name == "Replicate-all (reference)" {
			continue
		}
		if online < frac(row) {
			t.Fatalf("RL online availability %v%% below %s %v%%", online, name, frac(row))
		}
	}
	// At the fixed test seed the validated suggestion is fully replicated.
	if online != 100 {
		t.Fatalf("RL online availability = %v%%, want 100%% at this seed", online)
	}
}

func TestGuardedOnlineExperiment(t *testing.T) {
	rs, err := Run("guard", TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := rs[0]
	if r.ID != "guard" || len(r.Rows) != 2 {
		t.Fatalf("guard result = %+v", r)
	}
	cell := func(row []string, col int) float64 {
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			t.Fatalf("guard cell %q: %v", row[col], err)
		}
		return v
	}
	plain, guarded := r.Rows[0], r.Rows[1]
	if plain[0] != "Unguarded" || guarded[0] != "Guarded" {
		t.Fatalf("rows = %v / %v", plain, guarded)
	}
	// The guard must not cost final design quality at the fixed test seed…
	if g, p := cell(guarded, 1), cell(plain, 1); g > p {
		t.Fatalf("guarded final runtime %v worse than unguarded %v", g, p)
	}
	// …and must spend no more simulated time in regressed layouts.
	if g, p := cell(guarded, 2), cell(plain, 2); g > p {
		t.Fatalf("guarded regressed seconds %v exceed unguarded %v", g, p)
	}
	// The unguarded run has no guard, so its protection counters stay zero.
	for col := 4; col <= 6; col++ {
		if plain[col] != "0" {
			t.Fatalf("unguarded run reports guard activity: %v", plain)
		}
	}
}

func TestHotshardAgentContainsMelt(t *testing.T) {
	rs, err := Run("hotshard", ReproConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := rs[0]
	if r.ID != "hotshard" || len(r.Rows) != 3 {
		t.Fatalf("hotshard result = %+v", r)
	}
	cell := func(row []string, col int) float64 {
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			t.Fatalf("hotshard cell %q: %v", row[col], err)
		}
		return v
	}
	fk, pk, agent := r.Rows[0], r.Rows[1], r.Rows[2]
	// The static FK layout melts: its heat imbalance must be well above the
	// balanced layouts'.
	if im := cell(fk, 3); im < 2 {
		t.Fatalf("static FK layout did not melt (imbalance %v)", im)
	}
	// The agent contains the melt: at least one mitigation adopted, final
	// imbalance near balanced, mean window cost beating the melting static.
	if m := cell(agent, 4); m < 1 {
		t.Fatalf("agent adopted no mitigation: %v", agent)
	}
	if im := cell(agent, 3); im > 2 {
		t.Fatalf("agent's final imbalance %v still above bound", im)
	}
	if a, f := cell(agent, 1), cell(fk, 1); a >= f {
		t.Fatalf("agent mean window %v not below melting static's %v", a, f)
	}
	// The hindsight static stays balanced by construction.
	if im := cell(pk, 3); im != 1 {
		t.Fatalf("hindsight PK imbalance = %v", im)
	}
}
