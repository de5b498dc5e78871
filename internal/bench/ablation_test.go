package bench

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/simcache"
)

// TestAblationSpanHonoursController checks that ablation-span's dynamic
// runs use the suite's controller: a UCB suite must render the report that
// direct UCB simulations of the two cells produce.
func TestAblationSpanHonoursController(t *testing.T) {
	e, ok := ExperimentByID("ablation-span")
	if !ok {
		t.Fatal("unknown experiment ablation-span")
	}
	got, err := e.Run(NewSuite(SuiteConfig{Quick: true, Controller: core.KindUCB}))
	if err != nil {
		t.Fatal(err)
	}
	c, err := apps.Compile(apps.NameBarnesHut)
	if err != nil {
		t.Fatal(err)
	}
	var runs [2]*interp.Result
	for i, span := range []bool{false, true} {
		opts := spanAblationOpts(span)
		opts.Controller = core.KindUCB
		if runs[i], err = interp.Run(c.Parallel, opts); err != nil {
			t.Fatal(err)
		}
	}
	if want := ablationSpanReport(runs[0], runs[1]).Format(); got.Format() != want {
		t.Errorf("UCB suite rendered\n%s\nwant the direct UCB runs' report\n%s", got.Format(), want)
	}
}

// TestAblationsUseSimCache checks that the flag-dispatch and spanning
// ablations resolve their cells through the suite's simulation cache: a
// second suite over the same cache hits on all eight cells (six
// flag-dispatch runs, two spanning runs) and simulates none.
func TestAblationsUseSimCache(t *testing.T) {
	cache, err := simcache.New(simcache.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for pass := 1; pass <= 2; pass++ {
		before := cache.Stats()
		s := NewSuite(SuiteConfig{Quick: true, Cache: cache})
		for _, id := range []string{"ablation-flags", "ablation-span"} {
			e, ok := ExperimentByID(id)
			if !ok {
				t.Fatalf("unknown experiment %s", id)
			}
			if _, err := e.Run(s); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
		}
		after := cache.Stats()
		hits, misses := after.Hits()-before.Hits(), after.Misses-before.Misses
		want := [2]int64{0, 8} // pass 1: {hits, misses}
		if pass == 2 {
			want = [2]int64{8, 0}
		}
		if hits != want[0] || misses != want[1] {
			t.Errorf("pass %d: %d cache hits, %d misses; want %d, %d", pass, hits, misses, want[0], want[1])
		}
	}
}
