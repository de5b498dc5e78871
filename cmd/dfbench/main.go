// Command dfbench regenerates the tables and figures of the paper's
// evaluation on the simulated machine and reports the shape checks.
//
// Experiments run through the parallel experiment engine
// (internal/parexec) by default: independent simulations fan out across
// the host's cores, memoized single-flight so shared cells are simulated
// exactly once. Every simulation is deterministic, so the rendered
// reports are byte-identical at any parallelism (-scaling verifies this
// on every run that uses it).
//
// The content-addressed simulation cache (internal/simcache) persists
// results across processes: -cache DIR makes every simulation consult and
// populate DIR, -cache-verify re-simulates each hit and byte-compares it
// against the cached record, and -cache-timing runs a second, warm pass
// against the populated cache and records the cold/warm speedup.
//
// -scaling reruns the suite cold at each named parallelism and records
// the wall-clock curve (-scaling 1 is the serial baseline); -cpuprofile
// writes a Go CPU profile of the whole run. Every rerun must render each
// report byte-identically to the first pass, or dfbench exits 1 naming
// the experiment that differs.
//
// -sample runs the sampled-simulation tier (internal/bench.SamplingValidation):
// each large-workload cell is simulated twice, once with interval sampling
// and once exhaustively, and the extrapolated metrics' confidence
// intervals are checked against the exhaustive ground truth. The tier is
// embedded as the `sampling` block of the JSON document. -sample-validate
// implies -sample and exits nonzero if any ground-truth metric falls
// outside its interval. `-run none` selects no experiments, for running
// the sampling tier alone.
//
// -policies runs the policy-space tier (internal/bench.PoliciesValidation):
// the generated policy space (internal/obl/polgen) is measured statically
// on every bench app, the representative-set search (internal/polsearch)
// prunes it with a measured regret bound, and the bandit controller duels
// round-robin over the full space on each adaptivity scenario. The tier is
// embedded as the `policies` block of the JSON document; -policies-validate
// implies -policies and exits nonzero unless every claim holds.
//
// -controller selects the dynamic feedback controller for the suite's
// dynamic runs (roundrobin, the paper's, or ucb, the confidence-bound
// bandit). The controller kind is part of the simulation cache key.
//
// Usage:
//
//	dfbench [-quick] [-procs 1,2,4,6,8,12,16] [-run table2,figure4|none]
//	        [-perturb crossover|ramp|periodic|skew|all]
//	        [-p N] [-csv dir] [-json path] [-list]
//	        [-cache dir] [-cache-mem N] [-cache-verify] [-cache-timing]
//	        [-scaling 1,2,4] [-controller roundrobin|ucb]
//	        [-sample] [-sample-validate]
//	        [-policies] [-policies-validate] [-cpuprofile path]
//
// -perturb selects the adaptivity experiment for one or more named
// perturbation scenarios (internal/perturb): the environment changes
// mid-run and the shape checks assert the dynamic feedback controller
// re-adapts. It composes with -run; alone, only the named scenarios run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/parexec"
	"repro/internal/perturb"
	"repro/internal/simcache"
)

func main() {
	quick := flag.Bool("quick", false, "run with reduced input sizes")
	procsFlag := flag.String("procs", "", "comma-separated processor counts (default 1,2,4,6,8,12,16)")
	runFlag := flag.String("run", "", "comma-separated experiment IDs (default: all)")
	perturbFlag := flag.String("perturb", "", "comma-separated perturbation scenarios (or \"all\"): run the adaptivity experiment for each")
	par := flag.Int("p", 0, "max simulations in flight (default GOMAXPROCS; 1 runs serially)")
	csvDir := flag.String("csv", "", "also write each experiment's rows and series as CSV files into this directory")
	jsonPath := flag.String("json", "BENCH_suite.json", "write every report plus host wall-clock timing as JSON to this path (empty disables)")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	cacheDir := flag.String("cache", "", "content-addressed simulation cache directory (persists results across runs)")
	cacheMem := flag.Int("cache-mem", 0, "in-memory cache capacity in entries (default 1024; negative disables the memory tier)")
	cacheVerify := flag.Bool("cache-verify", false, "re-simulate every cache hit and byte-compare it against the cached record; implies a warm verification pass")
	cacheTiming := flag.Bool("cache-timing", false, "rerun the suite warm against the populated cache and record the cold/warm speedup")
	controller := flag.String("controller", "", "feedback controller for dynamic runs: roundrobin (default) or ucb")
	scaling := flag.String("scaling", "", "comma-separated parallelism levels (e.g. 1,2,4): rerun the suite cold at each, record the wall-clock curve, and verify the reports are byte-identical")
	sample := flag.Bool("sample", false, "run the sampled-simulation tier (sampled and exhaustive passes per large-workload cell) and record it in the JSON document")
	sampleValidate := flag.Bool("sample-validate", false, "implies -sample; exit nonzero unless every ground-truth metric falls inside its confidence interval")
	policies := flag.Bool("policies", false, "run the policy-space tier (generated-space search plus controller duels) and record it in the JSON document")
	policiesValidate := flag.Bool("policies-validate", false, "implies -policies; exit nonzero unless the representative-set and controller claims all hold")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this path")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dfbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "dfbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-16s %s\n", e.ID, e.Title)
		}
		return
	}
	if !core.ValidKind(*controller) {
		fmt.Fprintf(os.Stderr, "dfbench: unknown controller %q (want %s or %s)\n", *controller, core.KindRoundRobin, core.KindUCB)
		os.Exit(2)
	}
	cfg := bench.SuiteConfig{Quick: *quick, Parallelism: parexec.Workers(*par), Controller: *controller}
	var cache *simcache.Cache
	if *cacheDir != "" || *cacheVerify || *cacheTiming {
		// Verify and timing passes work against a memory-only cache when no
		// directory is given; -cache DIR persists entries across processes.
		c, err := simcache.New(simcache.Config{Dir: *cacheDir, MemEntries: *cacheMem})
		if err != nil {
			fmt.Fprintf(os.Stderr, "dfbench: %v\n", err)
			os.Exit(1)
		}
		cache = c
		cfg.Cache = cache
	}
	if *procsFlag != "" {
		for _, part := range strings.Split(*procsFlag, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "dfbench: bad -procs entry %q\n", part)
				os.Exit(2)
			}
			cfg.Procs = append(cfg.Procs, n)
		}
	}
	var selected []bench.Experiment
	if *runFlag == "" && *perturbFlag == "" {
		selected = bench.Experiments()
	}
	if *runFlag != "" && *runFlag != "none" {
		for _, id := range strings.Split(*runFlag, ",") {
			e, ok := bench.ExperimentByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "dfbench: unknown experiment %q; use -list\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}
	if *perturbFlag != "" {
		scenarios := strings.Split(*perturbFlag, ",")
		if *perturbFlag == "all" {
			scenarios = perturb.ScenarioNames()
		}
		for _, name := range scenarios {
			name = strings.TrimSpace(name)
			if _, ok := perturb.Scenario(name); !ok {
				fmt.Fprintf(os.Stderr, "dfbench: unknown perturbation scenario %q (have %s)\n",
					name, strings.Join(perturb.ScenarioNames(), ", "))
				os.Exit(2)
			}
			e, ok := bench.ExperimentByID("adapt-" + name)
			if !ok {
				fmt.Fprintf(os.Stderr, "dfbench: scenario %q has no adaptivity experiment\n", name)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	reports, walls, totalMS, err := runSuite(cfg, selected, cfg.Parallelism)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dfbench: %v\n", err)
		os.Exit(1)
	}
	failed := 0
	for _, rep := range reports {
		fmt.Println(rep.Format())
		if *csvDir != "" {
			if err := writeCSV(*csvDir, rep); err != nil {
				fmt.Fprintf(os.Stderr, "dfbench: csv: %v\n", err)
				os.Exit(1)
			}
		}
		failed += len(rep.Failed())
	}
	fmt.Printf("host wall-clock: %.0f ms total (%d experiment(s), parallelism %d, %d host CPU(s))\n",
		totalMS, len(selected), cfg.Parallelism, runtime.NumCPU())

	var cacheInfo *cacheJSON
	if cache != nil {
		cacheInfo = &cacheJSON{Dir: cache.Dir(), ColdWallMS: totalMS, Verified: *cacheVerify}
		if *cacheVerify || *cacheTiming {
			// A warm pass over the now-populated cache: every cell hits, so
			// this measures pure cache service time — and with -cache-verify
			// each hit is re-simulated and byte-compared inside the suite.
			wcfg := cfg
			wcfg.CacheVerify = *cacheVerify
			warmMS, err := rerun(wcfg, selected, cfg.Parallelism, reports, "warm pass")
			if err != nil {
				fmt.Fprintf(os.Stderr, "dfbench: %v\n", err)
				os.Exit(1)
			}
			cacheInfo.WarmWallMS = warmMS
			if *cacheVerify {
				fmt.Printf("cache verify: every hit re-simulated and byte-identical (%.0f ms); reports byte-identical\n", warmMS)
				// Verification re-simulates every hit, so its wall-clock
				// says nothing about cache service time; with both flags a
				// third, pure-warm pass measures it.
				warmMS = 0
				if *cacheTiming {
					if warmMS, err = rerun(cfg, selected, cfg.Parallelism, reports, "warm timing pass"); err != nil {
						fmt.Fprintf(os.Stderr, "dfbench: %v\n", err)
						os.Exit(1)
					}
				}
			}
			if warmMS > 0 {
				cacheInfo.SpeedupVsCold = totalMS / warmMS
				fmt.Printf("warm cache wall-clock: %.0f ms; %.2fx vs cold pass; reports byte-identical\n",
					warmMS, cacheInfo.SpeedupVsCold)
			}
		}
		cacheInfo.Stats = cache.Stats()
		fmt.Printf("cache: %d mem hit(s), %d disk hit(s), %d miss(es), %d put(s), %d error(s)\n",
			cacheInfo.Stats.MemHits, cacheInfo.Stats.DiskHits, cacheInfo.Stats.Misses,
			cacheInfo.Stats.Puts, cacheInfo.Stats.Errors)
	}

	var scalingInfo []scalePoint
	if *scaling != "" {
		for _, part := range strings.Split(*scaling, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "dfbench: bad -scaling entry %q\n", part)
				os.Exit(2)
			}
			// Cold: the simulation cache is detached, so every cell
			// genuinely re-simulates.
			scfg := cfg
			scfg.Cache, scfg.CacheVerify = nil, false
			sms, err := rerun(scfg, selected, n, reports, fmt.Sprintf("scaling pass at parallelism %d", n))
			if err != nil {
				fmt.Fprintf(os.Stderr, "dfbench: %v\n", err)
				os.Exit(1)
			}
			scalingInfo = append(scalingInfo, scalePoint{Parallelism: n, WallMS: sms})
			fmt.Printf("scaling: parallelism %d: %.0f ms; reports byte-identical\n", n, sms)
		}
	}

	var samplingInfo *bench.SamplingJSON
	if *sample || *sampleValidate {
		si, err := bench.SamplingValidation(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dfbench: sampling tier: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(si.Format())
		samplingInfo = si
	}

	var policiesInfo *bench.PoliciesJSON
	if *policies || *policiesValidate {
		pi, err := bench.PoliciesValidation(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dfbench: policies tier: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(pi.Format())
		policiesInfo = pi
	}

	if *jsonPath != "" {
		if err := writeJSON(*jsonPath, cfg, reports, walls, totalMS, failed, cacheInfo, scalingInfo, samplingInfo, policiesInfo); err != nil {
			fmt.Fprintf(os.Stderr, "dfbench: json: %v\n", err)
			os.Exit(1)
		}
	}
	if *sampleValidate && !samplingInfo.AllContained {
		fmt.Fprintf(os.Stderr, "dfbench: sampling validation failed: ground truth escaped a confidence interval\n")
		os.Exit(1)
	}
	if *policiesValidate && !policiesInfo.OK {
		fmt.Fprintf(os.Stderr, "dfbench: policies validation failed: a representative-set or controller claim did not hold\n")
		os.Exit(1)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "dfbench: %d shape check(s) failed\n", failed)
		os.Exit(1)
	}
}

// runSuite executes the selected experiments on a fresh suite with the
// given parallelism, fanning experiments out across workers. Reports come
// back in selection order with each experiment's host wall-clock; the
// per-experiment times overlap when parallelism > 1.
func runSuite(cfg bench.SuiteConfig, selected []bench.Experiment, parallelism int) ([]*bench.Report, []float64, float64, error) {
	cfg.Parallelism = parallelism
	suite := bench.NewSuite(cfg)
	type timed struct {
		rep  *bench.Report
		wall float64
	}
	start := time.Now()
	results, err := parexec.Map(parallelism, selected, func(_ int, e bench.Experiment) (timed, error) {
		t0 := time.Now()
		rep, err := e.Run(suite)
		if err != nil {
			return timed{}, fmt.Errorf("%s: %w", e.ID, err)
		}
		return timed{rep, float64(time.Since(t0).Microseconds()) / 1000}, nil
	})
	if err != nil {
		return nil, nil, 0, err
	}
	totalMS := float64(time.Since(start).Microseconds()) / 1000
	reports := make([]*bench.Report, len(results))
	walls := make([]float64, len(results))
	for i, r := range results {
		reports[i], walls[i] = r.rep, r.wall
	}
	return reports, walls, totalMS, nil
}

// rerun runs the selected experiments again on a fresh suite and
// requires every report to render byte-identically to the first pass:
// the determinism invariant for a different parallelism, and the cache
// invariant for a pass served from the simulation cache. It returns the
// pass's wall-clock; the error names the pass and the first experiment
// that differs.
func rerun(cfg bench.SuiteConfig, selected []bench.Experiment, parallelism int, first []*bench.Report, pass string) (float64, error) {
	reports, _, ms, err := runSuite(cfg, selected, parallelism)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", pass, err)
	}
	for i, rep := range first {
		if rep.Format() != reports[i].Format() {
			return 0, fmt.Errorf("VIOLATION: %s: %s renders differently than in the first pass", pass, rep.ID)
		}
	}
	return ms, nil
}

// cacheJSON records one run's interaction with the simulation cache: the
// cold (first-pass) and warm (second-pass) wall-clocks, whether hits were
// byte-verified against fresh simulations, and the traffic counters.
type cacheJSON struct {
	Dir           string         `json:"dir,omitempty"`
	ColdWallMS    float64        `json:"cold_wall_ms"`
	WarmWallMS    float64        `json:"warm_wall_ms,omitempty"`
	SpeedupVsCold float64        `json:"speedup_vs_cold,omitempty"`
	Verified      bool           `json:"verified"`
	Stats         simcache.Stats `json:"stats"`
}

// scalePoint is one entry of the -scaling wall-clock curve: the suite run
// cold at a given experiment-level parallelism.
type scalePoint struct {
	Parallelism int     `json:"parallelism"`
	WallMS      float64 `json:"wall_ms"`
}

// writeJSON stores every report plus run metadata and host wall-clock
// timing as one JSON document (BENCH_suite.json by default), so benchmark
// results accumulate as a perf trajectory across changes.
func writeJSON(path string, cfg bench.SuiteConfig, reports []*bench.Report, walls []float64,
	totalMS float64, failed int, cacheInfo *cacheJSON,
	scalingInfo []scalePoint, samplingInfo *bench.SamplingJSON,
	policiesInfo *bench.PoliciesJSON) error {
	type expJSON struct {
		*bench.Report
		HostWallMS float64 `json:"host_wall_ms"`
	}
	exps := make([]expJSON, len(reports))
	for i, rep := range reports {
		exps[i] = expJSON{Report: rep, HostWallMS: walls[i]}
	}
	doc := struct {
		GeneratedAt  string              `json:"generated_at"`
		Quick        bool                `json:"quick"`
		Procs        []int               `json:"procs,omitempty"`
		HostCPUs     int                 `json:"host_cpus"`
		Parallelism  int                 `json:"parallelism"`
		TotalWallMS  float64             `json:"total_wall_ms"`
		Cache        *cacheJSON          `json:"cache,omitempty"`
		Scaling      []scalePoint        `json:"scaling,omitempty"`
		Sampling     *bench.SamplingJSON `json:"sampling,omitempty"`
		Policies     *bench.PoliciesJSON `json:"policies,omitempty"`
		FailedChecks int                 `json:"failed_checks"`
		Experiments  []expJSON           `json:"experiments"`
	}{
		GeneratedAt:  time.Now().UTC().Format(time.RFC3339),
		Quick:        cfg.Quick,
		Procs:        cfg.Procs,
		HostCPUs:     runtime.NumCPU(),
		Parallelism:  cfg.Parallelism,
		TotalWallMS:  totalMS,
		Cache:        cacheInfo,
		Scaling:      scalingInfo,
		Sampling:     samplingInfo,
		Policies:     policiesInfo,
		FailedChecks: failed,
		Experiments:  exps,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeCSV stores a report's table as <id>.csv and each series as
// <id>_<series>.csv, for plotting.
func writeCSV(dir string, rep *bench.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return "\"" + strings.ReplaceAll(s, "\"", "\"\"") + "\""
		}
		return s
	}
	if len(rep.Header) > 0 {
		var b strings.Builder
		cells := make([]string, len(rep.Header))
		for i, h := range rep.Header {
			cells[i] = esc(h)
		}
		b.WriteString(strings.Join(cells, ",") + "\n")
		for _, row := range rep.Rows {
			cells = cells[:0]
			for _, c := range row {
				cells = append(cells, esc(c))
			}
			b.WriteString(strings.Join(cells, ",") + "\n")
		}
		if err := os.WriteFile(filepath.Join(dir, rep.ID+".csv"), []byte(b.String()), 0o644); err != nil {
			return err
		}
	}
	for _, ser := range rep.Series {
		var b strings.Builder
		fmt.Fprintf(&b, "%s,%s\n", esc(rep.XLabel), esc(rep.YLabel))
		for i := range ser.X {
			fmt.Fprintf(&b, "%g,%g\n", ser.X[i], ser.Y[i])
		}
		name := rep.ID + "_" + strings.Map(func(r rune) rune {
			if r == '/' || r == ' ' {
				return '-'
			}
			return r
		}, ser.Name) + ".csv"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(b.String()), 0o644); err != nil {
			return err
		}
	}
	return nil
}
