package main

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"repro/internal/apps"
	"repro/internal/bench"
	"repro/internal/interp"
	"repro/internal/obl/ir"
	"repro/internal/perturb"
	"repro/internal/simsample"
)

// sampleCell is one cell of the sampled-simulation tier.
type sampleCell = bench.SamplingCell

const sampleProcs = 8

// sampleTarget is one cell ready to run: its program, sampled options and
// exhaustive ground truth.
type sampleTarget struct {
	cell       sampleCell
	prog       *ir.Program
	opts       interp.Options
	ground     map[string]float64
	exhaustive int64 // steps of the exhaustive run
}

// prepareSample compiles the cells' applications once and runs every cell
// exhaustively for its ground truth.
func prepareSample(cfg config, cells []sampleCell) ([]*sampleTarget, error) {
	progs := map[string]*ir.Program{}
	var out []*sampleTarget
	for _, cell := range cells {
		prog, ok := progs[cell.App]
		if !ok {
			c, err := apps.Compile(cell.App)
			if err != nil {
				return nil, err
			}
			prog = c.Parallel
			progs[cell.App] = prog
		}
		spec := cell.Spec
		opts := interp.Options{Procs: sampleProcs, Policy: cell.Policy, Params: cell.Params, Sample: &spec}
		if cell.Scenario != "" {
			sched, ok := perturb.Scenario(cell.Scenario)
			if !ok {
				return nil, fmt.Errorf("cell %s: unknown scenario %q", cell.Label, cell.Scenario)
			}
			opts.Perturb = sched
		}
		exOpts := opts
		exOpts.Sample = nil
		exact, err := interp.Run(prog, exOpts)
		if err != nil {
			return nil, fmt.Errorf("cell %s: exhaustive run: %w", cell.Label, err)
		}
		t := &sampleTarget{cell: cell, prog: prog, opts: opts, ground: simsample.GroundTruth(exact), exhaustive: exact.Steps}
		if cfg.tamper != nil {
			cfg.tamper("ground", t.ground)
		}
		out = append(out, t)
	}
	return out, nil
}

// sampledCell is one cell's sampled run in one pass.
type sampledCell struct {
	wall     time.Duration // the whole operation
	sim      time.Duration // interp.Run alone
	estimate []byte        // the encoded estimate, which must repeat exactly
	counts   simCounts
	skipped  int64
	rollback int
	relErr   float64
}

// runCell runs one cell sampled, builds its estimate and checks that the
// ground truth lies inside every interval.
func runCell(tr *tracer, parent, run int, t *sampleTarget) (sampledCell, error) {
	var out sampledCell
	t0 := time.Now()
	id := tr.beginTag(parent, run, "interp.Run", t.cell.Label)
	res, err := interp.Run(t.prog, t.opts)
	tr.end(id)
	out.sim = time.Since(t0)
	if err != nil {
		return out, err
	}
	id = tr.beginTag(parent, run, "simsample.FromResult", t.cell.Label)
	est, err := simsample.FromResult(res, sampleProcs, simsample.Config{})
	tr.end(id)
	if err != nil {
		return out, err
	}
	id = tr.beginTag(parent, run, "simsample.Check", t.cell.Label)
	contained, all := simsample.Check(est, t.ground)
	tr.end(id)
	out.wall = time.Since(t0)
	if !all {
		return out, fmt.Errorf("ground truth outside the interval: %v", contained)
	}
	if out.estimate, err = json.Marshal(est); err != nil {
		return out, err
	}
	out.counts.add(res)
	if res.Sampling != nil {
		out.skipped = res.Sampling.SkippedIters
		out.rollback = res.Sampling.Rollbacks
	}
	for _, m := range est.Metrics {
		if g := t.ground[m.Name]; g != 0 {
			out.relErr = math.Max(out.relErr, math.Abs(m.Value-g)/math.Abs(g))
		}
	}
	return out, nil
}

func runSample(cfg config) (*outcome, error) {
	out := newOutcome()
	cells := cfg.cells
	if cells == nil {
		cells = bench.SamplingCells(false)
	}
	var targets []*sampleTarget
	err := timeSetups(out, cfg.setupCount(5), func() error {
		var err error
		targets, err = prepareSample(cfg, cells)
		return err
	})
	if err != nil {
		return nil, err
	}

	tr := newTracer()
	first := make([][]byte, len(targets))
	var nsPerStep, relErr []float64
	var ops opLog
	cellMS := map[string][]float64{}
	var counts []simCounts
	var skipped, exhaustive int64
	var rollbacks int
	log := loop(cfg, func(i int, traced bool) time.Duration {
		ptr := (*tracer)(nil)
		if traced {
			ptr = tr
		}
		t0 := time.Now()
		root := ptr.begin(0, i, "pass")
		var passCounts simCounts
		var simNS int64
		skipped, rollbacks, exhaustive = 0, 0, 0
		worst := 0.0
		for k, t := range targets {
			out.attempted++
			c, err := runCell(ptr, root, i, t)
			if !traced {
				ops.add(i, c.wall)
			}
			if err != nil {
				out.fail("pass %d cell %s: %v", i, t.cell.Label, err)
				continue
			}
			if first[k] == nil {
				first[k] = c.estimate
			} else if string(first[k]) != string(c.estimate) {
				out.fail("pass %d cell %s: estimate differs from the first pass", i, t.cell.Label)
			}
			cellMS[t.cell.Label] = append(cellMS[t.cell.Label], ms(c.wall))
			passCounts.merge(c.counts)
			simNS += c.sim.Nanoseconds()
			skipped += c.skipped
			rollbacks += c.rollback
			exhaustive += t.exhaustive
			worst = math.Max(worst, c.relErr)
		}
		ptr.end(root)
		d := time.Since(t0)
		counts = append(counts, passCounts)
		relErr = append(relErr, worst)
		if passCounts.Steps > 0 {
			nsPerStep = append(nsPerStep, float64(simNS)/float64(passCounts.Steps))
		}
		return d
	})
	log.report(out)
	ops.report(out, log)
	out.details["sample_max_rel_err"] = quantile(relErr, 1)
	if cfg.trace {
		reportCounts(out, counts)
		c := counts[0]
		out.layer["sim.ns_per_step"] = median(nsPerStep)
		out.layer["sample.steps"] = float64(c.Steps)
		out.layer["sample.exhaustive_steps"] = float64(exhaustive)
		if exhaustive > 0 {
			out.layer["sample.step_ratio"] = float64(c.Steps) / float64(exhaustive)
		}
		out.layer["sample.rollbacks"] = float64(rollbacks)
		out.layer["sample.skipped_iters"] = float64(skipped)
		out.layer["sample.max_rel_err"] = quantile(relErr, 1)
		for label, xs := range cellMS {
			out.layer["sample.cell_ms."+label] = median(xs)
		}
		checkCoverage(out, tr, "pass")
		if err := finishTrace(cfg, out, tr); err != nil {
			return nil, err
		}
	}
	return out, nil
}
