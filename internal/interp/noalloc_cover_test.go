package interp

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/lint"
	"repro/oblc"
)

// TestNoallocAnnotationCoverage is the interp side of the static/dynamic
// allocation-gate bridge (see internal/simmach/noalloc_cover_test.go):
// the //dfvet:noalloc annotations here must stay in lockstep with the
// runtime assertion below, which drives the annotated step function
// through a dispatch-heavy program.
func TestNoallocAnnotationCoverage(t *testing.T) {
	got, err := lint.NoallocFuncs(".")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"vmTask.exec", // the dispatch loop (vmexec.go)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("//dfvet:noalloc set drifted from the runtime gate's coverage table:\n got %v\nwant %v\n"+
			"update TestSteadyStateAllocsPerStep (or this table) to match", got, want)
	}
}

// TestSteadyStateAllocsPerStep is the runtime half of the //dfvet:noalloc
// claim on vmTask.exec. A Run has a fixed allocation budget (machine,
// procs, task arenas), so the per-instruction claim is checked by scaling:
// a 100x-longer dispatch loop must not allocate meaningfully more than a
// short one. If the annotated step function allocated per instruction,
// the long program would show tens of thousands of extra allocations; the
// bound admits only scheduler-level noise.
func TestSteadyStateAllocsPerStep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs repeated full executions; run without -short")
	}
	const loopSrc = `
func main() {
  let s: int = 0;
  for i in 0..%d {
    if i %% 2 == 0 { s = s + i * 3; } else { s = s - i; }
  }
  print s;
}
`
	short := compile(t, fmt.Sprintf(loopSrc, 200))
	long := compile(t, fmt.Sprintf(loopSrc, 20000))
	// The subtest is named for the bytecode VM, the one engine whose
	// dispatch loop the gate measures.
	t.Run("vm", func(t *testing.T) {
		opts := Options{Procs: 1}
		measure := func(c *oblc.Compiled) float64 {
			// Warm the program: the first Run compiles its bytecode.
			if _, err := Run(c.Serial, opts); err != nil {
				t.Fatal(err)
			}
			return testing.AllocsPerRun(3, func() {
				if _, err := Run(c.Serial, opts); err != nil {
					t.Fatal(err)
				}
			})
		}
		shortAllocs, longAllocs := measure(short), measure(long)
		if extra := longAllocs - shortAllocs; extra > 16 {
			t.Errorf("100x more instructions cost %.0f extra allocs (short %.0f, long %.0f); "+
				"the annotated step function is allocating per instruction",
				extra, shortAllocs, longAllocs)
		}
	})
}
