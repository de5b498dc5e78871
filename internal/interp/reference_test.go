package interp_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/interp"
	"repro/internal/obl/analysis"
	"repro/internal/obl/ir"
	"repro/internal/obl/lower"
	"repro/internal/obl/polgen"
	"repro/internal/obl/sema"
	"repro/internal/obl/syncopt"
	"repro/internal/perturb"
	"repro/internal/simcache"
	"repro/oblc"
)

// The frozen reference pins every observable outcome of a curated cell
// matrix — applications × builds × policies, perturbation scenarios, the
// seeded-race corpus, sampled runs, chunk-scheduled versions, and the
// adaptivity reports — as SHA-256 digests of the encoded Result (or of the
// rendered report). The digests were recorded by the IR interpreter the
// bytecode VM replaced; the VM must reproduce every one byte for byte.
//
// Regenerate with `go test ./internal/interp -run TestFrozenReference
// -update` (the whole test must run, so every cell is recorded).

var updateReference = flag.Bool("update", false, "rewrite testdata/reference.json")

const referencePath = "testdata/reference.json"

// refParams shrinks each application so one cell takes milliseconds while
// still claiming iterations on all eight processors.
var refParams = map[string]map[string]int64{
	apps.NameBarnesHut: {"nbodies": 64, "listlen": 8, "interwork": 500, "npasses": 1, "serialwork": 500},
	apps.NameWater:     {"nmol": 32, "nsteps": 1, "energydepth": 1, "serialwork": 500},
	apps.NameString:    {"gridside": 12, "nrays": 48, "pathlen": 12, "nrounds": 1, "serialwork": 500},
}

// reference holds the recorded digests and, under -update, the fresh ones.
type reference struct {
	mu    sync.Mutex
	want  map[string]string
	fresh map[string]string
}

func loadReference(t *testing.T) *reference {
	t.Helper()
	ref := &reference{fresh: map[string]string{}}
	if *updateReference {
		return ref
	}
	data, err := os.ReadFile(referencePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &ref.want); err != nil {
		t.Fatalf("%s: %v", referencePath, err)
	}
	return ref
}

// check compares (or, under -update, records) one cell's digest.
func (r *reference) check(t *testing.T, cell string, data []byte) {
	t.Helper()
	sum := sha256.Sum256(data)
	got := hex.EncodeToString(sum[:])
	r.mu.Lock()
	defer r.mu.Unlock()
	if *updateReference {
		r.fresh[cell] = got
		return
	}
	want, ok := r.want[cell]
	if !ok {
		t.Errorf("%s: no recorded digest (regenerate with -update)", cell)
		return
	}
	if got != want {
		t.Errorf("%s: result digest %s differs from the frozen reference %s", cell, got, want)
	}
}

func (r *reference) write(t *testing.T) {
	t.Helper()
	// encoding/json writes map keys sorted, so the file is stable.
	data, err := json.MarshalIndent(r.fresh, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll("testdata", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(referencePath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("recorded %d cells in %s", len(r.fresh), referencePath)
}

// runCell runs one cell and checks its encoded Result.
func (r *reference) runCell(t *testing.T, cell string, prog *ir.Program, opts interp.Options) *interp.Result {
	t.Helper()
	res, err := interp.Run(prog, opts)
	if err != nil {
		t.Fatalf("%s: %v", cell, err)
	}
	data, err := simcache.EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	r.check(t, cell, data)
	return res
}

func TestFrozenReference(t *testing.T) {
	ref := loadReference(t)

	// Every application in both the multi-version and flag-dispatch
	// builds, under each static policy and dynamic feedback, with race
	// detection on.
	t.Run("matrix", func(t *testing.T) {
		for _, name := range apps.Names {
			c, err := apps.Compile(name)
			if err != nil {
				t.Fatal(err)
			}
			builds := []struct {
				label string
				prog  *ir.Program
			}{{"parallel", c.Parallel}, {"flagged", c.Flagged}}
			for _, policy := range []string{"original", "bounded", "aggressive", interp.PolicyDynamic} {
				for _, build := range builds {
					ref.runCell(t, fmt.Sprintf("matrix/%s/%s/%s", name, build.label, policy), build.prog, interp.Options{
						Procs: 8, Policy: policy, DetectRaces: true, Params: refParams[name],
					})
				}
			}
		}
	})

	// The dynamic-feedback cell of every application under each built-in
	// environment-perturbation scenario.
	t.Run("perturbation", func(t *testing.T) {
		for _, scenario := range perturb.ScenarioNames() {
			sched, ok := perturb.Scenario(scenario)
			if !ok {
				t.Fatalf("unknown scenario %s", scenario)
			}
			for _, name := range apps.Names {
				c, err := apps.Compile(name)
				if err != nil {
					t.Fatal(err)
				}
				ref.runCell(t, fmt.Sprintf("perturbation/%s/%s", scenario, name), c.Parallel, interp.Options{
					Procs: 8, Policy: interp.PolicyDynamic, AsyncSwitch: true,
					Perturb: sched, Params: refParams[name],
				})
			}
		}
	})

	// The seeded lock-elision corpus of the static/dynamic differential
	// harness: each mutant must race, with the recorded findings.
	t.Run("races", func(t *testing.T) {
		mutants := []struct {
			app    string
			region int
		}{
			{apps.NameWater, 0},
			{apps.NameWater, 6},
			{apps.NameString, 0},
			{apps.NameString, 1},
		}
		for _, m := range mutants {
			cell := fmt.Sprintf("races/%s/region%d", m.app, m.region)
			res := ref.runCell(t, cell, seededMutant(t, m.app, m.region), interp.Options{
				Procs: 8, Policy: "original", DetectRaces: true, Params: refParams[m.app],
			})
			if len(res.Races) == 0 {
				t.Errorf("%s: seeded mutant executed race-free", cell)
			}
		}
	})

	// Sampled runs: every sampler decision is a function of iteration
	// indices and machine counters.
	t.Run("sampled", func(t *testing.T) {
		cases := []struct {
			label  string
			src    string
			params map[string]int64
		}{
			{"phase-uniform", interp.PhaseSrc, nil},
			{"phase-step", interp.PhaseSrc, map[string]int64{"cut": 1536}},
		}
		for _, name := range apps.Names {
			src, err := apps.Source(name)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, struct {
				label  string
				src    string
				params map[string]int64
			}{name, src, interp.SampleAppParams[name]})
		}
		for _, tc := range cases {
			c, err := oblc.Compile(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			res := ref.runCell(t, "sampled/"+tc.label, c.Parallel, interp.Options{
				Procs: 8, Policy: "bounded", Params: tc.params, Sample: interp.SampleSpecForTest(),
			})
			if res.Sampling == nil || res.Sampling.SkippedIters == 0 {
				t.Errorf("%s: sampling did not engage", tc.label)
			}
		}
	})

	// A chunk-scheduled generated version at several processor counts.
	t.Run("chunked", func(t *testing.T) {
		spec := polgen.Spec{Coarsen: 2, Lift: false, Chunk: 4}
		c, err := apps.CompileWithSpecs(apps.NameWater, []polgen.Spec{spec})
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{1, 3, 8} {
			ref.runCell(t, fmt.Sprintf("chunked/%s/procs=%d", spec.Name(), procs), c.Parallel, interp.Options{
				Procs: procs, Policy: spec.Name(), Params: apps.TestParams(apps.NameWater),
			})
		}
	})

	// The adaptivity experiments' rendered reports (BENCH rows included).
	t.Run("adapt", func(t *testing.T) {
		for _, id := range []string{"adapt-crossover", "adapt-ramp", "adapt-periodic", "adapt-skew"} {
			e, ok := bench.ExperimentByID(id)
			if !ok {
				t.Fatalf("unknown experiment %s", id)
			}
			rep, err := e.Run(bench.NewSuite(bench.SuiteConfig{Parallelism: 1}))
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			ref.check(t, "adapt/"+id, []byte(rep.Format()))
		}
	})

	if *updateReference {
		ref.write(t)
	}
}

// seededMutant builds the Original-policy program of app with the
// synchronization of one lock region elided.
func seededMutant(t *testing.T, app string, region int) *ir.Program {
	t.Helper()
	src, err := apps.Source(app)
	if err != nil {
		t.Fatal(err)
	}
	u, _, err := analysis.BuildUnit(src)
	if err != nil {
		t.Fatal(err)
	}
	prog := u.PolicyProg(syncopt.Original)
	if err := analysis.ElideRegion(prog, region); err != nil {
		t.Fatal(err)
	}
	info, err := sema.Check(prog)
	if err != nil {
		t.Fatal(err)
	}
	b := lower.NewBuilder()
	if err := b.AddPolicy(info, string(syncopt.Original)); err != nil {
		t.Fatal(err)
	}
	mutIR, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return mutIR
}
