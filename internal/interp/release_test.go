package interp_test

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/interp"
	"repro/internal/obl/ir"
	"repro/oblc"
)

// TestDerivedStateReleasedWithProgram checks that the state derived from
// a program — its compiled bytecode and extern table, its fingerprint —
// does not outlive the program: K fresh programs are compiled, run and
// fingerprinted, then dropped, and a finalizer set on each must run.
// A package-level cache keyed by *ir.Program would pin every program a
// long-lived process (a server, a suite per pass) ever ran.
func TestDerivedStateReleasedWithProgram(t *testing.T) {
	const k = 6
	var finalized atomic.Int32
	for i := 0; i < k; i++ {
		c, err := oblc.Compile(interp.PhaseSrc)
		if err != nil {
			t.Fatal(err)
		}
		opts := interp.Options{Procs: 2, Policy: "bounded", Params: map[string]int64{"total": 64}}
		if _, err := interp.Run(c.Parallel, opts); err != nil {
			t.Fatal(err)
		}
		if _, ok := interp.CacheKey(c.Parallel, opts); !ok {
			t.Fatal("run not cacheable")
		}
		if interp.Fingerprint(c.Parallel) == "" {
			t.Fatal("empty fingerprint")
		}
		runtime.SetFinalizer(c.Parallel, func(*ir.Program) { finalized.Add(1) })
	}
	deadline := time.Now().Add(5 * time.Second)
	for finalized.Load() < k && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got := finalized.Load(); got != k {
		t.Fatalf("%d of %d dropped programs were collected; derived state keeps the rest alive", got, k)
	}
}
