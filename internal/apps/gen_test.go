package apps

import (
	"math"
	"testing"

	"repro/internal/interp"
	"repro/internal/obl/polgen"
	"repro/internal/simmach"
)

// TestGeneratedVersionsCorrectness runs every generated policy version of
// Barnes-Hut against the serial baseline: chunked schedules and coarsened
// regions must not change the computed results.
func TestGeneratedVersionsCorrectness(t *testing.T) {
	specs := polgen.Space()
	c, err := CompileWithSpecs(NameBarnesHut, specs)
	if err != nil {
		t.Fatal(err)
	}
	params := TestParams(NameBarnesHut)
	sres, err := interp.Run(c.Serial, interp.Options{Params: params})
	if err != nil {
		t.Fatal(err)
	}
	want := parseFloats(t, sres.Output)
	for _, spec := range specs {
		res, err := interp.Run(c.Parallel, interp.Options{
			Procs: 4, Policy: spec.Name(), Params: params,
		})
		if err != nil {
			t.Fatalf("%s: %v", spec.Name(), err)
		}
		got := parseFloats(t, res.Output)
		if len(got) != len(want) {
			t.Fatalf("%s: output %v, want %v", spec.Name(), got, want)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
				t.Errorf("%s: out[%d] = %v, want %v", spec.Name(), i, got[i], want[i])
			}
		}
	}
}

// TestChunkedVersionDeterminismAcrossProcs pins the determinism guarantee
// for chunk-scheduled versions: repeated runs produce identical outputs at
// every processor count. Their full Results are pinned by the frozen
// reference in internal/interp.
func TestChunkedVersionDeterminismAcrossProcs(t *testing.T) {
	spec := polgen.Spec{Coarsen: 2, Lift: false, Chunk: 4}
	c, err := CompileWithSpecs(NameWater, []polgen.Spec{spec})
	if err != nil {
		t.Fatal(err)
	}
	params := TestParams(NameWater)
	for _, procs := range []int{1, 3, 8} {
		var first string
		for rep := 0; rep < 2; rep++ {
			res, err := interp.Run(c.Parallel, interp.Options{
				Procs: procs, Policy: spec.Name(), Params: params,
			})
			if err != nil {
				t.Fatalf("procs %d: %v", procs, err)
			}
			out := flatten(res.Output)
			if first == "" {
				first = out
			} else if out != first {
				t.Fatalf("procs %d rep %d: output diverged:\n%s\nvs\n%s", procs, rep, out, first)
			}
		}
	}
}

// TestDynamicFeedbackOverGeneratedSpace runs dynamic feedback over the full
// generated space plus the paper's policies: the controller must converge
// and the results must match serial.
func TestDynamicFeedbackOverGeneratedSpace(t *testing.T) {
	specs := polgen.Space()
	c, err := CompileWithSpecs(NameWater, specs)
	if err != nil {
		t.Fatal(err)
	}
	params := TestParams(NameWater)
	sres, err := interp.Run(c.Serial, interp.Options{Params: params})
	if err != nil {
		t.Fatal(err)
	}
	want := parseFloats(t, sres.Output)
	res, err := interp.Run(c.Parallel, interp.Options{
		Procs: 8, Policy: interp.PolicyDynamic, Params: params,
		TargetSampling: simmach.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := parseFloats(t, res.Output)
	if len(got) != len(want) {
		t.Fatalf("output %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-6*(1+math.Abs(want[i])) {
			t.Errorf("out[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func flatten(lines []string) string {
	out := ""
	for _, l := range lines {
		out += l + "\n"
	}
	return out
}
