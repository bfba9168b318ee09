// Command bench is the repository's one benchmark: four workloads over the
// advisor's user-facing paths, each reporting the same end-to-end metrics
// (untraced) or the per-layer metrics (traced, with spans recorded around
// the harness's calls into each module). See README.md in this directory.
//
//	go run ./bench -workload all -seed 1 -out bench/out/result.json
//	go run ./bench -workload sweep_tpcds -seed 1 -seconds 20 -trace 1
//
// The last line of standard output of a single-workload run is one JSON
// object {"correct", "attempted", "failed", "metrics"}; the exit code is
// non-zero when any output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"
)

// run is the state of one workload execution: its inputs, and what the
// workload reports back.
type run struct {
	seed    int64
	seconds int
	// clients is min(nproc, 4): load-generator goroutines, HTTP
	// connections of the closed loops, and the server's MaxConcurrent.
	clients int
	// rec is nil on the untraced run.
	rec *recorder
	// nextOp numbers the HTTP requests of a run: each is one traced
	// operation.
	nextOp atomic.Int64
	// dir is a scratch directory inside the checkout, removed at exit.
	dir string

	// setupSec holds one sample per set-up repetition.
	setupSec []float64
	// opMS holds one wall-clock sample per operation.
	opMS []float64
	// workUnits / workSec is ops_per_s; what a unit is depends on the
	// workload.
	workUnits, workSec float64

	attempted, failed int
	problems          []string
	layer             map[string]float64
	// digests must repeat exactly on a second run with the same seed.
	digests map[string]string
	notes   map[string]any
}

// check counts one verified output; a false ok is a failed operation.
func (r *run) check(ok bool, format string, args ...any) bool {
	r.attempted++
	if !ok {
		r.fail(format, args...)
	}
	return ok
}

// fail records a failed operation that was already counted as attempted,
// or a run-level defect (an invalid phase).
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// setupReps is how many times each workload sets up from scratch; setup_s
// is the median, so one slow page-in does not read as a regression.
const setupReps = 3

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the driver's contract for the last line of stdout.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// workloadResult is one workload's entry in the -out file.
type workloadResult struct {
	Workload       string                 `json:"workload"`
	Traced         bool                   `json:"traced"`
	Correct        bool                   `json:"correct"`
	Attempted      int                    `json:"attempted"`
	Failed         int                    `json:"failed"`
	FailRatio      float64                `json:"fail_ratio"`
	Problems       []string               `json:"problems,omitempty"`
	Ops            int                    `json:"ops"`
	TailPercentile float64                `json:"tail_percentile"`
	WallSec        float64                `json:"wall_s"`
	Metrics        map[string]metricValue `json:"metrics"`
	Digests        map[string]string      `json:"digests,omitempty"`
	Notes          map[string]any         `json:"notes,omitempty"`
	// measured names the per-layer metrics this workload set (the others
	// read 0 because the workload bypasses their layer).
	measured map[string]bool
}

type hostInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GitRev     string `json:"git_revision"`
	Clients    int    `json:"clients_and_workers"`
	OSArch     string `json:"os_arch"`
}

type resultFile struct {
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Host      hostInfo         `json:"host"`
	Workloads []workloadResult `json:"workloads"`
}

// gitRevision reads the checked-out revision without running git; the
// driver's checkout is not a repository, so "unknown" is expected there.
func gitRevision() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	h := strings.TrimSpace(string(head))
	if ref, ok := strings.CutPrefix(h, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", ref))
		if err != nil {
			return "unknown"
		}
		h = strings.TrimSpace(string(b))
	}
	return h
}

func clientCount() int { return min(runtime.NumCPU(), 4) }

func main() {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "seed for every generated input (1 = development, 7 = held out)")
		seconds  = flag.Int("seconds", defaultSeconds, "run length each workload is sized for")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics with spans written to bench/out/trace-<workload>.json")
		out      = flag.String("out", "bench/out/result.json", "result file")
		compare  = flag.String("compare", "", "first.json,second.json: fail unless the second set is within every bound of the first")
		spread   = flag.String("spread", "", "directory of result files: print each end-to-end metric's quartile spread over them")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	switch {
	case *compare != "":
		a, b, ok := strings.Cut(*compare, ",")
		if !ok {
			fmt.Fprintln(os.Stderr, "bench: -compare wants first.json,second.json")
			os.Exit(2)
		}
		os.Exit(compareSets(a, b))
	case *spread != "":
		os.Exit(spreadReport(*spread))
	}
	if *seconds < 1 || *seconds > 120 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be in 1..120")
		os.Exit(2)
	}
	var todo []workloadDef
	if *workload == "all" {
		todo = workloads
	} else if w := findWorkload(*workload); w != nil {
		todo = []workloadDef{*w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workload)
		os.Exit(2)
	}

	if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	doc := resultFile{
		Seed:    *seed,
		Seconds: *seconds,
		Host: hostInfo{
			NProc:      runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion:  runtime.Version(),
			GitRev:     gitRevision(),
			Clients:    clientCount(),
			OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		},
	}
	allCorrect := true
	for _, w := range todo {
		res, err := execute(w, *seed, *seconds, *trace != 0)
		if err != nil {
			// No result line: the driver must not read a broken run as data.
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
			os.Exit(1)
		}
		doc.Workloads = append(doc.Workloads, res)
		allCorrect = allCorrect && res.Correct
		printTable(res)
		data, _ := json.Marshal(resultLine{res.Correct, res.Attempted, res.Failed, res.Metrics})
		fmt.Println(string(data))
	}
	data, _ := json.MarshalIndent(doc, "", "  ")
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if !allCorrect {
		os.Exit(1)
	}
}

// execute runs one workload and assembles its metrics.
func execute(w workloadDef, seed int64, seconds int, traced bool) (workloadResult, error) {
	dir, err := os.MkdirTemp(filepath.Join("bench", "out"), "run-")
	if err != nil {
		return workloadResult{}, err
	}
	defer os.RemoveAll(dir)
	r := &run{
		seed:    seed,
		seconds: seconds,
		clients: clientCount(),
		dir:     dir,
		layer:   make(map[string]float64),
		digests: make(map[string]string),
		notes:   make(map[string]any),
	}
	if traced {
		r.rec = newRecorder()
	}
	began := time.Now()
	if err := w.run(r); err != nil {
		return workloadResult{}, err
	}
	wall := time.Since(began)
	if r.attempted == 0 {
		return workloadResult{}, fmt.Errorf("no operation was attempted")
	}

	res := workloadResult{
		Workload:       w.Name,
		Traced:         traced,
		Correct:        r.failed == 0,
		Attempted:      r.attempted,
		Failed:         r.failed,
		FailRatio:      float64(r.failed) / float64(r.attempted),
		Problems:       r.problems,
		Ops:            len(r.opMS),
		TailPercentile: tailPercentile(len(r.opMS), 90),
		WallSec:        wall.Seconds(),
		Metrics:        make(map[string]metricValue),
		Digests:        r.digests,
		Notes:          r.notes,
	}
	if len(r.opMS) <= 16 {
		r.notes["op_samples_ms"] = r.opMS
	}
	if traced {
		spans := r.rec.snapshot()
		procMetrics(r, spans, wall)
		for _, m := range perLayer {
			res.Metrics[m.Name] = metricValue{r.layer[m.Name], m.Unit}
		}
		res.measured = make(map[string]bool)
		for name := range r.layer {
			if _, ok := res.Metrics[name]; !ok {
				return res, fmt.Errorf("workload set %q, which is not a per-layer metric", name)
			}
			res.measured[name] = true
		}
		path := filepath.Join("bench", "out", "trace-"+w.Name+".json")
		if err := writeTrace(path, w.Name, seed, spans); err != nil {
			return res, err
		}
	} else {
		if len(r.opMS) == 0 || len(r.setupSec) == 0 || r.workSec <= 0 {
			return res, fmt.Errorf("workload reported no operations")
		}
		values := map[string]float64{
			"op_p50_ms":  median(r.opMS),
			"op_tail_ms": tailValue(r.opMS, res.TailPercentile),
			"ops_per_s":  r.workUnits / r.workSec,
			"setup_s":    median(r.setupSec),
		}
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metricValue{values[m.Name], m.Unit}
		}
	}
	return res, nil
}

// tailValue is the tail percentile of the samples; when the sample only
// supports the median it is the same interpolated median as op_p50_ms.
func tailValue(xs []float64, p float64) float64 {
	if p == 50 {
		return median(xs)
	}
	return percentile(xs, p)
}

// printTable prints every metric by name with its unit.
func printTable(res workloadResult) {
	mode, defs := "end-to-end", endToEnd
	if res.Traced {
		mode, defs = "per-layer", perLayer
	}
	fmt.Printf("== %s (%s; %d ops, tail = p%.0f, %.1f s wall)\n", res.Workload, mode, res.Ops, res.TailPercentile, res.WallSec)
	for _, m := range defs {
		v := res.Metrics[m.Name]
		if res.Traced && !res.measured[m.Name] {
			continue // this workload bypasses the layer
		}
		fmt.Printf("  %-34s %16.6g %s\n", m.Name, v.Value, v.Unit)
	}
	fmt.Printf("  %-34s %16.6g ratio (%d of %d)\n", "fail_ratio", res.FailRatio, res.Failed, res.Attempted)
	for _, k := range sortedKeys(res.Digests) {
		fmt.Printf("  %-34s %16s\n", "digest."+k, res.Digests[k])
	}
	for _, p := range res.Problems {
		fmt.Printf("  FAILED CHECK: %s\n", p)
	}
}
