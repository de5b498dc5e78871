// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It imports the repository's packages and times only calls into their
// public functions; it changes no program code. See README.md for the
// workloads, the metrics and how each per-layer metric relates to the
// end-to-end ones.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload suite-cold --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced;
// with --trace 1 they are the per-layer ones, from a run that alternates
// untraced and traced passes, ends with a front-end probe and a serve
// probe, and writes its spans to
// <work>/traces/<workload>-seed<seed>.json. The line before it is a
// provenance record (seed, host, Go version, commit) with the figures
// that are not metrics, such as sample counts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// config is one benchmark run's settings.
type config struct {
	workload string
	seed     int64
	budget   time.Duration // how long the timed passes run
	trace    bool
	root     string // repository root (for the suite golden)
	work     string // scratch directory inside the checkout

	// Shortened configurations and planted failures, for the tests.
	minPasses int                      // at least this many timed passes (default 1; 2 when traced)
	suiteIDs  []string                 // experiments to run (default all)
	setups    int                      // set-ups per run (default per workload)
	serve     serveParams              // serve probe stream shape
	cells     []sampleCell             // sample-large cells (default the full tier)
	tamper    func(kind string, v any) // mutates golden/reference/ground truth in tests
}

// outcome is what a workload reports: operations attempted and failed,
// correctness problems that are not tied to one operation, the end-to-end
// and per-layer metrics, and free-form provenance details.
type outcome struct {
	attempted int64
	failed    int64
	problems  []string
	nproblems int
	e2e       map[string]float64
	layer     map[string]float64
	details   map[string]any
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, details: map[string]any{}}
}

// fail records one failed operation.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problem(format, args...)
}

// problem records a correctness problem without failing an operation.
// Only the first maxProblems are kept and printed.
func (o *outcome) problem(format string, args ...any) {
	o.nproblems++
	if len(o.problems) == maxProblems {
		return
	}
	msg := fmt.Sprintf(format, args...)
	o.problems = append(o.problems, msg)
	fmt.Fprintln(os.Stderr, "perfbench:", msg)
}

const maxProblems = 20

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// workloads maps each workload name to its implementation.
var workloads = map[string]func(cfg config) (*outcome, error){
	"suite-cold":   runSuiteCold,
	"sample-large": runSample,
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: suite-cold or sample-large")
		seed     = flag.Int64("seed", 1, "seed of the serve probe's request stream (the workloads' own inputs are fixed)")
		seconds  = flag.Float64("seconds", 10, "how long the timed passes run, in seconds")
		trace    = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
		root     = flag.String("root", ".", "repository root")
		work     = flag.String("work", ".bench_build", "scratch directory")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	cfg := config{
		workload: *workload, seed: *seed, trace: *trace != 0,
		budget: time.Duration(*seconds * float64(time.Second)),
		root:   *root, work: filepath.Join(*work, "run"),
	}
	out, err := execute(cfg, run)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, v := range []any{
		map[string]any{"provenance": provenance(cfg), "details": out.details, "problems": out.problems},
		result(cfg, out),
	} {
		line, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
}

// execute prepares a clean scratch directory, runs the workload and
// removes the directory again.
func execute(cfg config, run func(config) (*outcome, error)) (*outcome, error) {
	if err := os.RemoveAll(cfg.work); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.work)
	out, err := run(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	return out, nil
}

// result selects the reported metric set and checks that every metric of
// that set was measured.
func result(cfg config, out *outcome) resultJSON {
	specs, values := endToEnd, out.e2e
	if cfg.trace {
		specs, values = perLayer, out.layer
	}
	res := resultJSON{
		Correct:   out.failed == 0 && out.nproblems == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricJSON{},
	}
	for _, m := range specs {
		v, ok := values[m.name]
		if !ok && !cfg.trace {
			// Every end-to-end metric is measured on every workload.
			res.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: end-to-end metric %s was not measured\n", m.name)
		}
		res.Metrics[m.name] = metricJSON{Value: v, Unit: m.unit}
	}
	var extra []string
	for name := range values {
		if _, ok := res.Metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		sort.Strings(extra)
		fmt.Fprintf(os.Stderr, "perfbench: measured but not declared: %v\n", extra)
	}
	return res
}
