package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// peakRSSMB reads the process's high-water resident set from
// /proc/self/status (0 where that file does not exist).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// procMetrics fills the proc.* layer metrics of a traced run. The
// recorder's overhead is its measured cost per span times the spans it
// recorded, over the run's wall-clock.
func procMetrics(r *run, spans []span, wall time.Duration) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.layer["proc.peak_rss_mb"] = peakRSSMB()
	r.layer["proc.total_alloc_mb"] = float64(ms.TotalAlloc) / (1 << 20)
	r.layer["proc.num_gc"] = float64(ms.NumGC)
	r.layer["proc.gc_pause_total_ms"] = float64(ms.PauseTotalNs) / 1e6
	r.layer["proc.trace_overhead_ratio"] = spanCostNS() * float64(len(spans)) / float64(wall.Nanoseconds())
}

func loadResult(path string) (resultFile, error) {
	var doc resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// worsening is how much worse b is than a, as a share of a, in the
// metric's own direction (negative when b is better).
func worsening(m metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// compareSets is the self-check between two sets of runs of the same
// code: every end-to-end metric of the second set must be within its
// bound of the first, every run must be correct, and the determinism
// digests must agree exactly. Against a traced set only correctness and
// digests are compared: the decorators must not have changed a result.
// It prints the observed difference next to each bound, so a bound that
// is too tight for this host is visible.
func compareSets(pathA, pathB string) int {
	a, err := loadResult(pathA)
	if err == nil {
		var b resultFile
		if b, err = loadResult(pathB); err == nil {
			return compareDocs(a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func compareDocs(a, b resultFile) int {
	bad := 0
	second := make(map[string]workloadResult)
	for _, w := range b.Workloads {
		second[w.Workload] = w
	}
	fmt.Printf("%-14s %-12s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for _, wa := range a.Workloads {
		wb, ok := second[wa.Workload]
		if !ok {
			continue
		}
		if !wa.Correct || !wb.Correct {
			fmt.Printf("%-14s output checks failed (first correct=%v, second correct=%v)\n", wa.Workload, wa.Correct, wb.Correct)
			bad++
		}
		for _, m := range endToEnd {
			if wa.Traced || wb.Traced {
				break // a traced run has no end-to-end metrics; its digests still count
			}
			va, vb := wa.Metrics[m.Name].Value, wb.Metrics[m.Name].Value
			w := worsening(m, va, vb)
			verdict := ""
			if w > m.Bound {
				verdict = "  OUT OF BOUND"
				bad++
			}
			fmt.Printf("%-14s %-12s %14.6g %14.6g %8.1f%% %6.0f%%%s\n", wa.Workload, m.Name, va, vb, 100*w, 100*m.Bound, verdict)
		}
		if a.Seed == b.Seed && a.Seconds == b.Seconds {
			for _, k := range sortedKeys(wa.Digests) {
				if wa.Digests[k] != wb.Digests[k] {
					fmt.Printf("%-14s digest %s differs: %s vs %s\n", wa.Workload, k, wa.Digests[k], wb.Digests[k])
					bad++
				}
			}
		}
	}
	if bad > 0 {
		fmt.Printf("selfcheck: %d violation(s)\n", bad)
		return 1
	}
	fmt.Println("selfcheck: output checks, bounds and digests hold between the two sets")
	return 0
}

// spreadReport reads every result file in dir and prints, per workload
// and end-to-end metric, the distance between the first and third
// quartile as a share of the median — the steadiness figure the driver
// computes over ten seeds. It fails when a spread exceeds its bound.
func spreadReport(dir string) int {
	paths, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	samples := make(map[string]map[string][]float64)
	for _, p := range paths {
		doc, err := loadResult(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		for _, w := range doc.Workloads {
			if w.Traced {
				continue
			}
			if samples[w.Workload] == nil {
				samples[w.Workload] = make(map[string][]float64)
			}
			for _, m := range endToEnd {
				samples[w.Workload][m.Name] = append(samples[w.Workload][m.Name], w.Metrics[m.Name].Value)
			}
		}
	}
	bad := 0
	fmt.Printf("%-14s %-12s %4s %14s %9s %7s\n", "workload", "metric", "n", "median", "spread", "bound")
	for _, w := range workloads {
		for _, m := range endToEnd {
			xs := samples[w.Name][m.Name]
			if len(xs) == 0 {
				continue
			}
			sp := quartileSpread(xs)
			verdict := ""
			switch {
			case sp > m.Bound && m.Name != "setup_s":
				verdict = "  WIDER THAN BOUND"
				bad++
			case sp > m.Bound/3:
				verdict = "  above a third of the bound"
			}
			fmt.Printf("%-14s %-12s %4d %14.6g %8.1f%% %6.0f%%%s\n", w.Name, m.Name, len(xs), median(xs), 100*sp, 100*m.Bound, verdict)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}
