package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
)

// quickIDs are fast experiments: two need no simulation, two simulate
// through the suite's cache.
var quickIDs = []string{"table1", "figure3", "eq9", "ablation-async"}

// shortConfig is a shortened configuration of a workload: one set-up, the
// fewest passes, small inputs.
func shortConfig(t *testing.T, workload string, trace bool) config {
	t.Helper()
	return config{
		workload:  workload,
		seed:      7,
		budget:    time.Millisecond,
		trace:     trace,
		root:      "..",
		work:      t.TempDir(),
		minPasses: 2,
		suiteIDs:  quickIDs,
		setups:    1,
		serve:     serveParams{distinct: 12, repeats: 4, rounds: 1},
		cells:     bench.SamplingCells(true)[:2],
	}
}

func run(t *testing.T, cfg config) (*outcome, resultJSON) {
	t.Helper()
	out, err := execute(cfg, workloads[cfg.workload])
	if err != nil {
		t.Fatal(err)
	}
	return out, result(cfg, out)
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and perfbench in step:
// the same workloads and the same metrics with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command   []string `json:"command"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, w := range spec.Workloads {
		declared[w.Name] = true
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s is not a perfbench workload", w.Name)
		}
	}
	for name := range workloads {
		if !declared[name] {
			t.Errorf("perfbench workload %s is not in BENCHMARK.json", name)
		}
	}
	check := func(section string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, perfbench %d", section, len(got), len(want))
			return
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), perfbench %s (%s)", section, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestSplitGolden(t *testing.T) {
	data, err := os.ReadFile("../" + goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := splitGolden(string(data), bench.Experiments())
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != len(bench.Experiments()) {
		t.Fatalf("%d parts", len(parts))
	}
}

// requireClean checks a run that must pass: every operation correct and
// every end-to-end metric measured and positive.
func requireClean(t *testing.T, out *outcome, res resultJSON) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct %v, attempted %d, failed %d: %v", res.Correct, res.Attempted, res.Failed, out.problems)
	}
	for _, m := range endToEnd {
		if out.e2e[m.name] <= 0 {
			t.Errorf("end-to-end %s = %v", m.name, out.e2e[m.name])
		}
	}
}

// reached lists per-layer metrics each workload must measure.
var reached = map[string][]string{
	"suite-cold": {"bench.run_ms", "bench.render_ms", "bench.warm_pass_ms",
		"sim.steps", "sim.ns_per_step", "simcache.get_ms", "simcache.put_ms"},
	"sample-large": {"sample.steps", "sample.exhaustive_steps", "sim.ns_per_step"},
}

func TestShortWorkloads(t *testing.T) {
	for _, name := range sortedKeys(workloads) {
		t.Run(name, func(t *testing.T) {
			cfg := shortConfig(t, name, false)
			out, res := run(t, cfg)
			requireClean(t, out, res)
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("untraced run reports %d metrics, want %d", len(res.Metrics), len(endToEnd))
			}

			cfg = shortConfig(t, name, true)
			out, res = run(t, cfg)
			requireClean(t, out, res)
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("traced run reports %d metrics, want %d", len(res.Metrics), len(perLayer))
			}
			for _, m := range []string{"oblc.compile_ms", "oblc.ir_bytes", "vm.compile_ms", "proc.alloc_mb",
				"serve.run_p50_ms", "serve.hit_ms", "serve.sim_ms", "serve.capacity_rps", "simcache.hit_ratio"} {
				if out.layer[m] <= 0 {
					t.Errorf("%s = %v", m, out.layer[m])
				}
			}
			for _, m := range reached[name] {
				if out.layer[m] <= 0 {
					t.Errorf("%s = %v", m, out.layer[m])
				}
			}
			if _, err := os.Stat(out.details["trace_file"].(string)); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

// TestCountsRepeat runs the traced shortened workloads twice: every exact
// work count must come out the same.
func TestCountsRepeat(t *testing.T) {
	for _, name := range []string{"suite-cold", "sample-large"} {
		t.Run(name, func(t *testing.T) {
			a, _ := run(t, shortConfig(t, name, true))
			b, _ := run(t, shortConfig(t, name, true))
			if a.layer["sim.steps"] <= 0 {
				t.Fatalf("no steps counted: %v", a.details["sim_counts"])
			}
			for _, m := range []string{"sim.steps", "sim.acquires", "sim.failed_acquires", "sim.timer_reads",
				"sim.virtual_s", "core.intervals", "core.switches", "sample.steps", "sample.exhaustive_steps",
				"sample.rollbacks", "sample.skipped_iters", "sample.max_rel_err", "oblc.ir_bytes"} {
				if a.layer[m] != b.layer[m] {
					t.Errorf("%s: %v then %v", m, a.layer[m], b.layer[m])
				}
			}
		})
	}
}

// The planted failures: each must be counted as failed operations, and the
// run reported incorrect.

func TestPlantedGoldenByte(t *testing.T) {
	cfg := shortConfig(t, "suite-cold", false)
	cfg.tamper = func(kind string, v any) {
		if kind == "golden" {
			data := v.([]byte)
			i := strings.Index(string(data), "barneshut")
			data[i] = 'B'
		}
	}
	out, res := run(t, cfg)
	// The byte is in one experiment's render: that experiment fails in
	// every pass, the others pass.
	passes := res.Attempted / int64(len(quickIDs))
	if res.Correct || res.Attempted%int64(len(quickIDs)) != 0 || res.Failed != passes {
		t.Fatalf("correct %v, failed %d of %d; want one experiment per pass failed: %v",
			res.Correct, res.Failed, res.Attempted, out.problems)
	}
}

// TestPlantedReference tampers with one reference of the serve probe,
// which ends every traced run.
func TestPlantedReference(t *testing.T) {
	cfg := shortConfig(t, "sample-large", true)
	cfg.tamper = func(kind string, v any) {
		if kind == "reference" {
			refs := v.([][]byte)
			refs[0] = []byte(strings.Replace(string(refs[0]), `"kind":"obl"`, `"kind":"OBL"`, 1))
		}
	}
	out, res := run(t, cfg)
	// Every request for body 0 fails, in every round.
	st, err := genStream(cfg.seed, cfg.serve)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, b := range st.reqs {
		if b == 0 {
			n++
		}
	}
	want := int64(n * cfg.serve.rounds)
	if res.Correct || res.Failed != want {
		t.Fatalf("correct %v, failed %d, want %d: %v", res.Correct, res.Failed, want, out.problems)
	}
}

func TestPlantedGroundTruth(t *testing.T) {
	cfg := shortConfig(t, "sample-large", false)
	tampered := false
	cfg.tamper = func(kind string, v any) {
		if kind == "ground" && !tampered {
			ground := v.(map[string]float64)
			ground["time_ns"] *= 1.5
			tampered = true
		}
	}
	_, res := run(t, cfg)
	if res.Correct || res.Failed != int64(cfg.minPasses) {
		t.Fatalf("correct %v, failed %d, want one per pass", res.Correct, res.Failed)
	}
}

// TestHostSpeedScale checks the conversion to the reference host: a wall
// time is scaled by refNominal over the mean kernel time around it.
func TestHostSpeedScale(t *testing.T) {
	h := hostSpeed{ref: []time.Duration{20 * time.Millisecond, 40 * time.Millisecond, 60 * time.Millisecond}}
	if got := h.scale(0, 2); got != 2 {
		t.Errorf("scale(0, 2) = %v, want 2", got)
	}
	if got := h.scale(1, 2); got != 1.2 {
		t.Errorf("scale(1, 2) = %v, want 1.2", got)
	}
	if k := refKernel(); k <= 0 {
		t.Errorf("refKernel took %v", k)
	}
}
