package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/interp"
	"repro/internal/obl/parser"
	"repro/internal/obl/sema"
	"repro/internal/obl/vm"
	"repro/internal/simcache"
	"repro/oblc"
)

// simCounts are exact work counts of a set of simulations, taken from
// interp.Result fields.
type simCounts struct {
	Runs           int   `json:"runs"`
	Steps          int64 `json:"steps"`
	Acquires       int64 `json:"acquires"`
	FailedAcquires int64 `json:"failed_acquires"`
	TimerReads     int64 `json:"timer_reads"`
	VirtualNS      int64 `json:"virtual_ns"`
	Intervals      int64 `json:"intervals"` // controller intervals of dynamic runs
	Switches       int64 `json:"switches"`  // production entries of dynamic runs
}

func (c *simCounts) add(res *interp.Result) {
	c.Runs++
	c.Steps += res.Steps
	c.Acquires += res.Counters.Acquires
	c.FailedAcquires += res.Counters.FailedAcquires
	c.TimerReads += res.Counters.TimerReads
	c.VirtualNS += int64(res.Time)
	for _, sec := range res.Sections {
		c.Intervals += int64(len(sec.Samples))
		c.Switches += int64(len(sec.Switches))
	}
}

func (c *simCounts) merge(o simCounts) {
	c.Runs += o.Runs
	c.Steps += o.Steps
	c.Acquires += o.Acquires
	c.FailedAcquires += o.FailedAcquires
	c.TimerReads += o.TimerReads
	c.VirtualNS += o.VirtualNS
	c.Intervals += o.Intervals
	c.Switches += o.Switches
}

// reportCounts reports the counts of the first traced pass and checks that
// every other identical pass counted exactly the same work.
func reportCounts(out *outcome, counts []simCounts) {
	if len(counts) == 0 {
		return
	}
	c := counts[0]
	for i, o := range counts[1:] {
		if o != c {
			out.problem("work counts differ between identical passes: %+v vs %+v (pass %d)", c, o, i+1)
		}
	}
	out.layer["sim.steps"] = float64(c.Steps)
	out.layer["sim.acquires"] = float64(c.Acquires)
	out.layer["sim.failed_acquires"] = float64(c.FailedAcquires)
	out.layer["sim.timer_reads"] = float64(c.TimerReads)
	out.layer["sim.virtual_s"] = float64(c.VirtualNS) / 1e9
	out.layer["core.intervals"] = float64(c.Intervals)
	out.layer["core.switches"] = float64(c.Switches)
	out.details["sim_counts"] = c
}

// cacheProbe times the simulation cache entry by entry.
type cacheProbe struct {
	getMS, putMS []float64
	entryBytes   int64
}

// read decodes every entry of an on-disk cache with simcache.Get on a
// freshly opened cache (an entry's file name is its key), then stores each
// result with simcache.Put into a second fresh cache, timing every call.
// It returns the work counts summed over the entries and the time the
// Put calls took.
func (p *cacheProbe) read(tr *tracer, run int, dir string) (c simCounts, put time.Duration, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return c, 0, err
	}
	src, err := simcache.New(simcache.Config{Dir: dir})
	if err != nil {
		return c, 0, err
	}
	putDir := dir + ".put"
	defer os.RemoveAll(putDir)
	dst, err := simcache.New(simcache.Config{Dir: putDir})
	if err != nil {
		return c, 0, err
	}
	root := tr.begin(0, run, "simcache.probe")
	defer tr.end(root)
	p.entryBytes = 0
	for _, e := range entries {
		key, ok := strings.CutSuffix(e.Name(), ".json")
		if !ok || e.IsDir() {
			continue
		}
		if info, err := e.Info(); err == nil {
			p.entryBytes += info.Size()
		}
		t := time.Now()
		id := tr.begin(root, run, "simcache.Get")
		res, hit := src.Get(key)
		tr.end(id)
		p.getMS = append(p.getMS, ms(time.Since(t)))
		if !hit {
			return c, put, fmt.Errorf("entry %s does not decode", key)
		}
		c.add(res)
		t = time.Now()
		id = tr.begin(root, run, "simcache.Put")
		dst.Put(key, res)
		tr.end(id)
		put += time.Since(t)
		p.putMS = append(p.putMS, ms(time.Since(t)))
	}
	return c, put, nil
}

func (p *cacheProbe) report(out *outcome) {
	out.layer["simcache.get_ms"] = median(p.getMS)
	out.layer["simcache.put_ms"] = median(p.putMS)
	out.layer["simcache.entry_bytes"] = float64(p.entryBytes)
}

// frontEndReps is how often the traced run repeats the front-end probe.
const frontEndReps = 5

// probeFrontEnd times the compiler's layers on the three applications'
// sources: parser.Parse, sema.Check, the whole of oblc.Compile, and
// vm.Compile of each compiled program. It reports the median of each
// layer's per-repetition total and the IR size, which must repeat exactly.
func probeFrontEnd(out *outcome, tr *tracer) error {
	var parse, check, compile, vmc []float64
	irBytes := -1
	for rep := 0; rep < frontEndReps; rep++ {
		run := -100 - rep
		root := tr.begin(0, run, "frontend")
		var tp, tc, tcomp, tvm time.Duration
		size := 0
		for _, name := range apps.Names {
			src, err := apps.Source(name)
			if err != nil {
				return err
			}
			t := time.Now()
			id := tr.beginTag(root, run, "oblc.parse", name)
			prog, err := parser.Parse(src)
			tr.end(id)
			tp += time.Since(t)
			if err != nil {
				return fmt.Errorf("parse %s: %w", name, err)
			}
			t = time.Now()
			id = tr.beginTag(root, run, "oblc.check", name)
			_, err = sema.Check(prog)
			tr.end(id)
			tc += time.Since(t)
			if err != nil {
				return fmt.Errorf("check %s: %w", name, err)
			}
			t = time.Now()
			id = tr.beginTag(root, run, "oblc.compile", name)
			c, err := oblc.Compile(src)
			tr.end(id)
			tcomp += time.Since(t)
			if err != nil {
				return fmt.Errorf("compile %s: %w", name, err)
			}
			size += c.Sizes().Dynamic
			t = time.Now()
			id = tr.beginTag(root, run, "vm.compile", name)
			_, err1 := vm.Compile(c.Parallel)
			_, err2 := vm.Compile(c.Serial)
			_, err3 := vm.Compile(c.Flagged)
			tr.end(id)
			tvm += time.Since(t)
			for _, err := range []error{err1, err2, err3} {
				if err != nil {
					return fmt.Errorf("vm compile %s: %w", name, err)
				}
			}
		}
		tr.end(root)
		if irBytes >= 0 && size != irBytes {
			out.problem("IR size differs between identical compiles: %d vs %d", irBytes, size)
		}
		irBytes = size
		parse = append(parse, ms(tp))
		check = append(check, ms(tc))
		compile = append(compile, ms(tcomp))
		vmc = append(vmc, ms(tvm))
	}
	out.layer["oblc.parse_ms"] = median(parse)
	out.layer["oblc.check_ms"] = median(check)
	out.layer["oblc.compile_ms"] = median(compile)
	out.layer["oblc.ir_bytes"] = float64(irBytes)
	out.layer["vm.compile_ms"] = median(vmc)
	return nil
}

// finishTrace ends a traced run: the front-end and serve probes, then the
// span file.
func finishTrace(cfg config, out *outcome, tr *tracer) error {
	if err := probeFrontEnd(out, tr); err != nil {
		return err
	}
	if err := probeServe(cfg, out, tr); err != nil {
		return err
	}
	writeTrace(cfg, out, tr)
	return nil
}

// writeTrace writes the run's spans next to the scratch directory.
func writeTrace(cfg config, out *outcome, tr *tracer) {
	path := filepath.Join(filepath.Dir(cfg.work), "traces", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	if err := tr.write(path, map[string]any{"workload": cfg.workload, "seed": cfg.seed}); err != nil {
		out.problem("writing spans: %v", err)
		return
	}
	out.details["trace_file"] = path
	out.details["spans"] = len(tr.snapshot())
}

// provenance records what produced a result: the seed, the host, the Go
// version and the commit. The commit comes from the build's VCS stamp when
// there is one; the digest of the sources identifies the code either way.
func provenance(cfg config) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.budget.Seconds(),
		"trace":      cfg.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit,
		"source":     sourceDigest(cfg.root),
	}
}

// sourceDigest hashes every Go source, go.mod and testdata file under root
// (hidden directories skipped), in path order.
func sourceDigest(root string) string {
	var paths []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || d.Name() == "go.mod" || strings.Contains(path, "testdata") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
