package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/simcache"
)

// The suite workload runs the paper's quick suite as a user regenerating
// the paper does: one fresh bench.Suite per pass at 1, 4 and 8 simulated
// processors, two experiments at a time, every report formatted and
// compared byte for byte with the committed golden.

const (
	goldenFile       = "internal/bench/testdata/quick_suite.golden"
	suiteParallelism = 2
)

// uncachedExperiments call interp.Run directly instead of going through the
// suite's cache (see README.md, defect a).
var uncachedExperiments = map[string]bool{"ablation-flags": true, "ablation-span": true}

func suiteConfig(cache *simcache.Cache) bench.SuiteConfig {
	return bench.SuiteConfig{Quick: true, Procs: []int{1, 4, 8}, Parallelism: suiteParallelism, Cache: cache}
}

// suiteRunner holds the experiments of a pass and their expected renders.
type suiteRunner struct {
	exps   []bench.Experiment
	golden []string // expected render of each experiment
}

// newSuiteRunner reads the golden and splits it into one render per
// experiment, so a shortened configuration can check a subset.
func newSuiteRunner(cfg config) (*suiteRunner, error) {
	data, err := os.ReadFile(filepath.Join(cfg.root, goldenFile))
	if err != nil {
		return nil, err
	}
	if cfg.tamper != nil {
		cfg.tamper("golden", data)
	}
	all := bench.Experiments()
	parts, err := splitGolden(string(data), all)
	if err != nil {
		return nil, err
	}
	r := &suiteRunner{}
	want := map[string]bool{}
	for _, id := range cfg.suiteIDs {
		want[id] = true
	}
	for i, e := range all {
		if len(want) == 0 || want[e.ID] {
			r.exps = append(r.exps, e)
			r.golden = append(r.golden, parts[i])
		}
	}
	if len(r.exps) == 0 {
		return nil, fmt.Errorf("no experiments selected from %v", cfg.suiteIDs)
	}
	return r, nil
}

// splitGolden cuts the golden, the renders of every experiment joined by
// blank lines, into one render per experiment, and checks that joining the
// parts gives the golden back.
func splitGolden(golden string, exps []bench.Experiment) ([]string, error) {
	pieces := strings.Split(golden, "\n\n== ")
	if len(pieces) != len(exps) {
		return nil, fmt.Errorf("golden has %d reports, the suite %d experiments", len(pieces), len(exps))
	}
	parts := make([]string, len(pieces))
	for i, p := range pieces {
		if i > 0 {
			p = "== " + p
		}
		if i < len(pieces)-1 {
			p += "\n"
		}
		if !strings.HasPrefix(p, "== "+exps[i].ID+":") {
			return nil, fmt.Errorf("golden report %d is not %s", i, exps[i].ID)
		}
		parts[i] = p
	}
	if strings.Join(parts, "\n") != golden {
		return nil, fmt.Errorf("golden does not split into reports")
	}
	return parts, nil
}

// suitePass is the outcome of one pass. Its operations are the
// experiments: one Experiment.Run and Report.Format each.
type suitePass struct {
	wall  time.Duration
	err   error // a failure before the experiments ran
	ops   []suiteOp
	stats simcache.Stats
}

// suiteOp is one experiment of a pass.
type suiteOp struct {
	latency  time.Duration // Run plus Format
	mismatch string        // why the experiment failed, "" when it passed
}

// pass runs one fresh suite. open, when non-nil, opens the pass's
// simulation cache; it runs inside the timed pass.
func (r *suiteRunner) pass(tr *tracer, run int, open func() (*simcache.Cache, error)) (out suitePass) {
	t0 := time.Now()
	root := tr.begin(0, run, "pass")
	defer func() {
		tr.end(root)
		out.wall = time.Since(t0)
	}()
	var cache *simcache.Cache
	if open != nil {
		tr.do(root, run, "simcache.New", func() { cache, out.err = open() })
		if out.err != nil {
			return out
		}
	}
	var s *bench.Suite
	tr.do(root, run, "bench.NewSuite", func() { s = bench.NewSuite(suiteConfig(cache)) })
	for _, name := range apps.Names {
		tr.do(root, run, "bench.compile", func() { _, out.err = s.App(name) })
		if out.err != nil {
			return out
		}
	}

	// Two lanes take the experiments in order; each checks its own
	// experiment's render against the golden, so the joined render equals
	// the golden exactly when every experiment passes.
	out.ops = make([]suiteOp, len(r.exps))
	phase := tr.begin(root, run, "bench.experiments")
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < suiteParallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lane := 0 // its span opens with its first experiment
			defer func() { tr.end(lane) }()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(r.exps) {
					return
				}
				if lane == 0 {
					lane = tr.begin(phase, run, "lane")
				}
				out.ops[i] = r.experiment(tr, lane, run, i, s)
			}
		}()
	}
	wg.Wait()
	tr.end(phase)
	if cache != nil {
		out.stats = cache.Stats()
	}
	return out
}

// experiment runs and renders experiment i and compares its render with
// the golden.
func (r *suiteRunner) experiment(tr *tracer, lane, run, i int, s *bench.Suite) suiteOp {
	e := r.exps[i]
	t0 := time.Now()
	id := tr.beginTag(lane, run, "bench.run", e.ID)
	rep, err := e.Run(s)
	tr.end(id)
	if err != nil {
		return suiteOp{latency: time.Since(t0), mismatch: fmt.Sprintf("%s: %v", e.ID, err)}
	}
	id = tr.beginTag(lane, run, "bench.render", e.ID)
	text := rep.Format()
	failed := rep.Failed()
	tr.end(id)
	op := suiteOp{latency: time.Since(t0)}
	check := tr.beginTag(lane, run, "perfbench.check", e.ID)
	switch {
	case len(failed) > 0:
		op.mismatch = fmt.Sprintf("%s: failed shape checks %v", e.ID, failed)
	case text != r.golden[i]:
		op.mismatch = fmt.Sprintf("%s: render differs from the golden", e.ID)
	}
	tr.end(check)
	return op
}

// suiteLayers derives the bench.* layer figures of each traced pass.
type suiteLayers struct {
	compile, run, render, uncached []float64
}

// add records the pass's figures and returns the time its experiments
// that go through the suite's cache spent in Experiment.Run.
func (l *suiteLayers) add(ss *spanSet, run int) (cachedRun time.Duration) {
	total := ss.total(run, "bench.run")
	var unc time.Duration
	for _, sp := range ss.spans {
		if sp.Run == run && sp.Name == "bench.run" && uncachedExperiments[sp.Tag] {
			unc += time.Duration(sp.End - sp.Start)
		}
	}
	l.compile = append(l.compile, ms(ss.total(run, "bench.compile")))
	l.run = append(l.run, ms(total))
	l.render = append(l.render, ms(ss.total(run, "bench.render")))
	l.uncached = append(l.uncached, ms(unc))
	return total - unc
}

// report fills the bench.* metrics and checks that the layer spans cover
// every pass, its experiment phase and both worker lanes.
func (l *suiteLayers) report(out *outcome, tr *tracer) {
	out.layer["bench.compile_ms"] = median(l.compile)
	out.layer["bench.run_ms"] = median(l.run)
	out.layer["bench.render_ms"] = median(l.render)
	out.layer["bench.uncached_ms"] = median(l.uncached)
	checkCoverage(out, tr, "pass", "bench.experiments", "lane")
}

// recordPass counts each experiment of the pass as one operation, and
// keeps the latencies of untraced passes' operations in ops.
func recordPass(out *outcome, p suitePass, run int, ops *opLog) {
	if p.err != nil {
		out.attempted++
		out.fail("pass %d: %v", run, p.err)
		return
	}
	for _, op := range p.ops {
		out.attempted++
		if op.mismatch != "" {
			out.fail("pass %d: %s", run, op.mismatch)
		}
		if ops != nil {
			ops.add(run, op.latency)
		}
	}
}

func runSuiteCold(cfg config) (*outcome, error) {
	out := newOutcome()
	var r *suiteRunner
	// Set-up reads the golden and compiles the three applications once,
	// which loads the compiler's code before the first timed pass.
	err := timeSetups(out, cfg.setupCount(25), func() error {
		var err error
		if r, err = newSuiteRunner(cfg); err != nil {
			return err
		}
		for _, name := range apps.Names {
			if _, err := apps.Compile(name); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	tr := newTracer()
	var layers suiteLayers
	var counts []simCounts
	var cache cacheProbe
	var nsPerStep, warm []float64
	var ops opLog
	log := loop(cfg, func(i int, traced bool) time.Duration {
		if !traced {
			p := r.pass(nil, i, nil)
			recordPass(out, p, i, &ops)
			return p.wall
		}
		// A traced pass attaches an empty on-disk cache so the step counts
		// of its simulations can be read back; the attach is part of the
		// tracing overhead.
		dir := filepath.Join(cfg.work, fmt.Sprintf("attach-%d", i))
		p := r.pass(tr, i, func() (*simcache.Cache, error) { return simcache.New(simcache.Config{Dir: dir}) })
		recordPass(out, p, i, nil)
		cachedRun := layers.add(index(tr.snapshot()), i)
		c, put, err := cache.read(tr, i, dir)
		if err != nil {
			out.problem("reading back the attached cache: %v", err)
		}
		counts = append(counts, c)
		// The cached experiments' Run spans hold their simulations and the
		// attached cache's Put of each result; the probe's Put of the same
		// results into a fresh cache stands in for the latter. The two
		// lanes run on their own processors, so span time is close to CPU
		// time.
		if c.Steps > 0 {
			nsPerStep = append(nsPerStep, float64((cachedRun-put).Nanoseconds())/float64(c.Steps))
		}
		// A warm pass over the cache the traced pass filled, opened afresh
		// so that every hit is decoded from disk: the suite as a user
		// rerunning it with dfbench -cache sees it. Its simulations are
		// bypassed, so a change to the engine should not move it.
		w := r.pass(tr, -1000-i, func() (*simcache.Cache, error) { return simcache.New(simcache.Config{Dir: dir}) })
		recordPass(out, w, -1000-i, nil)
		warm = append(warm, ms(w.wall))
		out.details["warm_cache_stats"] = w.stats
		return p.wall
	})
	log.report(out)
	ops.report(out, log)
	if cfg.trace {
		layers.report(out, tr)
		reportCounts(out, counts)
		out.layer["sim.ns_per_step"] = median(nsPerStep)
		out.layer["bench.warm_pass_ms"] = median(warm)
		cache.report(out)
		if err := finishTrace(cfg, out, tr); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (c config) setupCount(def int) int {
	if c.setups > 0 {
		return c.setups
	}
	return def
}
