// Package interp executes compiled OBL programs on the simulated
// multiprocessor (internal/simmach), implementing the generated-code
// runtime the paper describes in §4:
//
//   - Serial sections execute on processor 0; parallel sections execute on
//     all processors, with iterations claimed dynamically from a shared
//     counter.
//   - A potential switch point occurs at each loop iteration: the generated
//     code polls the timer when it completes an iteration and tests for
//     expiration of the current sampling or production interval (§4.1).
//   - Policy switching is synchronous: when an interval expires, each
//     processor waits at a barrier until all processors arrive, so every
//     processor uses the same policy during each interval (§4.1).
//   - The dynamic feedback controller (internal/core) measures each
//     version's locking, waiting and execution time (§4.3) and selects the
//     policy with the least overhead for the production phase.
//
// A Run executes either with a static policy (one version, no
// instrumentation or polling — the paper's Original/Bounded/Aggressive
// baselines) or with dynamic feedback.
package interp

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/obl/ir"
	"repro/internal/perturb"
	"repro/internal/simmach"
)

// PolicyDynamic selects dynamic feedback; other valid policies are the
// keys of each section's PolicyVersion map ("original", "bounded",
// "aggressive").
const PolicyDynamic = "dynamic"

// Options configures a run.
type Options struct {
	// Procs is the number of processors. Default 1.
	Procs int
	// Policy is a static policy name or PolicyDynamic. Default dynamic.
	Policy string
	// Controller selects the dynamic feedback controller implementation:
	// core.KindRoundRobin (the paper's controller, the default) or
	// core.KindUCB (the bandit controller, which skips sampling policies
	// whose history proves they cannot win). Ignored for static policies.
	Controller string
	// TargetSampling and TargetProduction configure the dynamic feedback
	// intervals (defaults: 10ms and 100s, the paper's headline settings).
	TargetSampling   simmach.Time
	TargetProduction simmach.Time
	// EarlyCutoff, OrderByHistory and SpanExecutions enable the §4.5/§4.4
	// controller optimizations.
	EarlyCutoff    bool
	OrderByHistory bool
	SpanExecutions bool
	// AutoTuneProduction retunes the production interval from the §5
	// analysis at every production entry (see core.Config).
	AutoTuneProduction bool
	// AsyncSwitch disables the synchronous switch barrier (§4.1): the
	// processor that detects interval expiration performs the transition
	// alone and the others pick up the new version at their next claim.
	// Measurements then mix versions; this exists as an ablation of the
	// paper's synchronous-switching design decision.
	AsyncSwitch bool
	// Params overrides program parameters by name.
	Params map[string]int64
	// Machine overrides the simulator cost model; Procs wins over
	// Machine.Procs.
	Machine simmach.Config
	// Perturb, when non-nil and non-empty, is a deterministic schedule of
	// environment perturbations applied to the simulated machine in virtual
	// time (internal/perturb): scheduled cost changes, per-processor
	// slowdowns, and injected background contention. The schedule is part
	// of the run's content address (CacheKey), so perturbed and unperturbed
	// runs never share a cache entry.
	Perturb *perturb.Schedule
	// ClaimCost is charged per iteration claim (shared counter fetch-add).
	// Default 150ns.
	ClaimCost simmach.Time
	// DispatchCost is charged per iteration in dynamic runs for the
	// multi-version switch dispatch (§4.2). Default 60ns.
	DispatchCost simmach.Time
	// ForkCost is charged when a parallel section starts. Default 10µs.
	ForkCost simmach.Time
	// InstrumentationCost is charged per acquire and per release in
	// instrumented (dynamic) runs for the counter updates of §4.3.
	// Default 20ns.
	InstrumentationCost simmach.Time
	// MaxSteps aborts runaway executions. Default 2e9 scheduler steps.
	MaxSteps int64
	// DetectRaces enables the Eraser-style dynamic race detector over
	// field and element accesses inside parallel sections (see race.go);
	// findings are returned in Result.Races. Off by default: detection
	// allocates tracking state and is meant for the differential testing
	// harness, not for measurement runs.
	DetectRaces bool
	// Sample, when non-nil, enables sampled simulation (see sample.go):
	// long parallel sections alternate detailed windows with fast-forward
	// gaps charged at window-extrapolated rates over machine checkpoints,
	// so the Result becomes a confidence-bounded estimate instead of an
	// exact simulation. Sampled runs require a static policy (the dynamic
	// feedback controller must observe real per-iteration timer polls),
	// reject race detection and tracing, and are never cached (CacheKey
	// returns ok=false). Use internal/simsample to attach confidence
	// intervals and validate estimates against exhaustive ground truth.
	Sample *SampleSpec
	// Trace, when set, receives every synchronization event of the
	// simulated machine (lock acquires, blocks, grants, releases, barrier
	// traffic) in virtual-time order.
	Trace func(simmach.TraceEvent)

	// ckHook, when set, invokes a checkpoint/restore test hook at every
	// iteration claim (see snapshot.go). Test-only; hooked runs are not
	// cacheable.
	ckHook *ckHook
}

func (o Options) withDefaults() Options {
	if o.Procs <= 0 {
		o.Procs = 1
	}
	if o.Policy == "" {
		o.Policy = PolicyDynamic
	}
	if o.TargetSampling <= 0 {
		o.TargetSampling = 10 * simmach.Millisecond
	}
	if o.TargetProduction <= 0 {
		o.TargetProduction = 100 * simmach.Second
	}
	if o.ClaimCost <= 0 {
		o.ClaimCost = 150
	}
	if o.DispatchCost <= 0 {
		o.DispatchCost = 60
	}
	if o.ForkCost <= 0 {
		o.ForkCost = 10 * simmach.Microsecond
	}
	if o.InstrumentationCost <= 0 {
		o.InstrumentationCost = 20
	}
	if o.MaxSteps <= 0 {
		o.MaxSteps = 2e9
	}
	return o
}

// ExecutionStat describes one execution of a parallel section.
type ExecutionStat struct {
	Start, End simmach.Time
	Iterations int64
}

// SampleStat is one controller interval record with resolved names.
type SampleStat struct {
	Kind     string
	Version  int
	Label    string
	Start    simmach.Time
	End      simmach.Time
	Overhead float64
	LockOver float64
	WaitOver float64
}

// SwitchStat is one production-phase entry of a section's controller:
// after which sampling round, which version won, and when production began.
// Consecutive entries selecting different versions are re-adaptation
// events; the adaptivity experiments measure latency as the virtual time
// from an environment change to the first switch onto the newly best
// version.
type SwitchStat struct {
	Round   int
	Version int
	Label   string
	At      simmach.Time
}

// SectionStats aggregates a section's behaviour over a run.
type SectionStats struct {
	Name          string
	VersionLabels []string
	Executions    []ExecutionStat
	Samples       []SampleStat
	// Switches lists every production-phase entry of the section's dynamic
	// feedback controller (empty for static runs).
	Switches   []SwitchStat
	Iterations int64
	// Busy is the total processor time spent inside the section.
	Busy simmach.Time
	// Counters is the section's share of the machine counters.
	Counters simmach.Counters
	// ChosenVersion is the version most recently selected for production
	// (or the static version).
	ChosenVersion int
}

// Result of a run.
type Result struct {
	// Time is the program's virtual execution time.
	Time simmach.Time
	// Counters are the machine-wide totals (acquire/release pairs, failed
	// acquires, locking/waiting time — the quantities of Tables 3 and 8).
	Counters simmach.Counters
	Output   []string
	Sections []*SectionStats
	Steps    int64
	// Races holds the dynamic race detector's findings (only when
	// Options.DetectRaces was set).
	Races []RaceReport
	// Sampling describes the sampled-simulation run that produced this
	// (estimated) result: per-section detailed-window statistics, skipped
	// iteration counts and rollbacks. Nil for exhaustive runs, so cached
	// exhaustive results encode identically to before the field existed.
	Sampling *SamplingInfo `json:"Sampling,omitempty"`
}

// runtimeErr aborts execution through the scheduler.
type runtimeErr struct{ msg string }

// Run executes the program. The program must carry the register-kind
// metadata lowering records (see vm.Compile); hand-built programs without
// it are rejected with an error.
func Run(p *ir.Program, opts Options) (res *Result, err error) {
	opts = opts.withDefaults()
	if err := CheckExterns(p); err != nil {
		return nil, err
	}
	if opts.Policy != PolicyDynamic {
		for _, sec := range p.Sections {
			if _, ok := sec.PolicyVersion[opts.Policy]; !ok {
				return nil, fmt.Errorf("interp: section %s has no version for policy %q", sec.Name, opts.Policy)
			}
		}
		if p.FlagPolicies != nil {
			if _, ok := p.FlagPolicies[opts.Policy]; !ok {
				return nil, fmt.Errorf("interp: flag-dispatch program has no flags for policy %q", opts.Policy)
			}
		}
	}
	if !core.ValidKind(opts.Controller) {
		return nil, fmt.Errorf("interp: unknown controller kind %q", opts.Controller)
	}
	cp := compiledFor(p)
	if cp.err != nil {
		return nil, fmt.Errorf("interp: %w", cp.err)
	}
	mcfg := opts.Machine
	mcfg.Procs = opts.Procs
	rt := &runtime{
		prog:        p,
		ext:         cp.ext,
		opts:        opts,
		m:           simmach.New(mcfg),
		controllers: map[int]core.Ctl{},
		stats:       map[int]*SectionStats{},
		hook:        opts.ckHook,
	}
	if opts.Sample != nil {
		// Sampled runs produce estimates: reject every mode that needs the
		// exact event stream. The dynamic controller polls the timer per
		// iteration (skipped bodies skip the polls), the race detector needs
		// every access, and traces cannot be rewound across rollbacks.
		if opts.Policy == PolicyDynamic {
			return nil, fmt.Errorf("interp: sampled simulation requires a static policy (the dynamic feedback controller must observe every iteration)")
		}
		if opts.DetectRaces {
			return nil, fmt.Errorf("interp: sampled simulation cannot detect races (skipped iterations skip their accesses); run exhaustively")
		}
		if opts.Trace != nil {
			return nil, fmt.Errorf("interp: sampled simulation cannot be traced (rollbacks would replay events); run exhaustively")
		}
		for _, sec := range p.Sections {
			if vi, ok := sec.PolicyVersion[opts.Policy]; ok && sec.Versions[vi].Chunk > 1 {
				return nil, fmt.Errorf("interp: sampled simulation cannot run chunk-scheduled version %q of section %s (the sampler's fast-forward manipulates the shared claim counter); run exhaustively", opts.Policy, sec.Name)
			}
		}
		spec := opts.Sample.withDefaults()
		rt.sampSpec = &spec
		rt.sampAgg = map[int]*SectionSampling{}
	}
	if opts.DetectRaces {
		rt.race = newRaceDetector()
	}
	if !opts.Perturb.Empty() {
		tbl, err := opts.Perturb.Table(mcfg.Normalized())
		if err != nil {
			return nil, fmt.Errorf("interp: perturbation schedule: %w", err)
		}
		if err := rt.m.SetParamTable(tbl); err != nil {
			return nil, fmt.Errorf("interp: perturbation schedule: %w", err)
		}
	}
	rt.m.Trace = opts.Trace
	rt.barrier = rt.m.NewBarrier(opts.Procs)
	if p.FlagPolicies != nil {
		// Serial code in a flag-dispatch program uses a fixed, correct flag
		// assignment: the static policy's, or Original's placement under
		// dynamic feedback (all placements are correct; flags only select
		// among them).
		if opts.Policy == PolicyDynamic {
			rt.baseFlags = p.FlagPolicies["original"]
		} else {
			rt.baseFlags = p.FlagPolicies[opts.Policy]
		}
	}
	rt.paramVals = make([]int64, len(p.ParamNames))
	for i, name := range p.ParamNames {
		rt.paramVals[i] = p.Params[name]
		if v, ok := opts.Params[name]; ok {
			rt.paramVals[i] = v
		}
	}
	defer func() {
		if r := recover(); r != nil {
			if re, ok := r.(runtimeErr); ok {
				res, err = nil, fmt.Errorf("interp: %s", re.msg)
			} else {
				panic(r)
			}
		}
	}()
	vt := &vmTask{rt: rt, mod: cp.mod, isMain: true}
	vt.push(p.MainID, -1, 0)
	rt.mainVT = vt
	rt.m.Start(0, vt)
	if err := rt.m.Run(); err != nil {
		return nil, err
	}
	res = &Result{
		Time:     rt.m.MaxClock(),
		Counters: rt.m.TotalCounters(),
		Output:   rt.output,
		Steps:    rt.m.Steps(),
	}
	if rt.race != nil {
		res.Races = rt.race.reports
	}
	if rt.sampSpec != nil {
		info := &SamplingInfo{Spec: *rt.sampSpec}
		for _, sec := range p.Sections {
			sa, ok := rt.sampAgg[sec.ID]
			if !ok {
				continue
			}
			info.Sections = append(info.Sections, sa)
			info.DetailedIters += sa.DetailedIters
			info.SkippedIters += sa.SkippedIters
			info.Rollbacks += sa.Rollbacks
		}
		res.Sampling = info
	}
	for _, sec := range p.Sections {
		st, ok := rt.stats[sec.ID]
		if !ok {
			continue
		}
		if ctl := rt.controllers[sec.ID]; ctl != nil {
			for _, s := range ctl.Samples() {
				m := s.Meas
				st.Samples = append(st.Samples, SampleStat{
					Kind:     s.Kind.String(),
					Version:  s.Policy,
					Label:    st.VersionLabels[s.Policy],
					Start:    simmach.Time(s.Start),
					End:      simmach.Time(s.End),
					Overhead: s.Overhead,
					LockOver: m.LockingOverhead(),
					WaitOver: m.WaitingOverhead(),
				})
			}
			for _, sw := range ctl.Switches() {
				st.Switches = append(st.Switches, SwitchStat{
					Round:   sw.Round,
					Version: sw.Policy,
					Label:   st.VersionLabels[sw.Policy],
					At:      simmach.Time(sw.At),
				})
			}
			st.ChosenVersion = ctl.BestKnownPolicy()
		}
		res.Sections = append(res.Sections, st)
	}
	return res, nil
}

type runtime struct {
	prog *ir.Program
	// ext[i] is the implementation of prog.Externs[i].
	ext         []intrinsic
	opts        Options
	m           *simmach.Machine
	paramVals   []int64
	output      []string
	controllers map[int]core.Ctl
	stats       map[int]*SectionStats
	barrier     *simmach.Barrier
	// baseFlags is the site-flag vector used outside parallel sections in
	// flag-dispatch programs.
	baseFlags []bool
	// vmWorkers holds the reusable worker tasks for processors
	// 1..Procs-1; each parallel section resets and restarts them, so frame
	// and register storage is allocated once per run instead of once per
	// section.
	vmWorkers []*vmTask
	// race is the dynamic race detector, nil unless Options.DetectRaces.
	race *raceDetector
	// mainVT is the main task; the snapshot machinery walks it alongside
	// the pooled workers.
	mainVT *vmTask
	// hook is the test-only checkpoint/restore hook (Options.ckHook).
	hook *ckHook
	// sampSpec (defaulted) and sampAgg carry sampled-simulation state; nil
	// for exhaustive runs. sampAgg accumulates per-section window stats
	// across the section's executions, keyed by section ID.
	sampSpec *SampleSpec
	sampAgg  map[int]*SectionSampling
}

func (rt *runtime) fail(format string, args ...any) {
	panic(runtimeErr{msg: fmt.Sprintf(format, args...)})
}

func (rt *runtime) sectionStats(sec *ir.Section) *SectionStats {
	st, ok := rt.stats[sec.ID]
	if !ok {
		labels := make([]string, len(sec.Versions))
		for i, v := range sec.Versions {
			labels[i] = v.Label()
		}
		st = &SectionStats{Name: sec.Name, VersionLabels: labels}
		rt.stats[sec.ID] = st
	}
	return st
}

// controller returns (creating on demand) the persistent dynamic feedback
// controller of a section. Policies are the section's distinct versions;
// the early cut-off components follow the monotonicity argument of §4.5.
func (rt *runtime) controller(sec *ir.Section) core.Ctl {
	if c, ok := rt.controllers[sec.ID]; ok {
		return c
	}
	policies := make([]core.PolicyInfo, len(sec.Versions))
	for i, v := range sec.Versions {
		info := core.PolicyInfo{Name: v.Label()}
		if rt.opts.EarlyCutoff {
			label := v.Label()
			if strings.Contains(label, "original") {
				info.Cutoff = core.CutoffLocking
			}
			if strings.Contains(label, "aggressive") {
				info.Cutoff = core.CutoffWaiting
			}
		}
		policies[i] = info
	}
	c, err := core.NewCtl(rt.opts.Controller, core.Config{
		Policies:           policies,
		TargetSampling:     core.Nanos(rt.opts.TargetSampling),
		TargetProduction:   core.Nanos(rt.opts.TargetProduction),
		EarlyCutoff:        rt.opts.EarlyCutoff,
		OrderByHistory:     rt.opts.OrderByHistory,
		SpanExecutions:     rt.opts.SpanExecutions,
		AutoTuneProduction: rt.opts.AutoTuneProduction,
	})
	if err != nil {
		rt.fail("controller: %v", err) // kind was validated in Run
	}
	rt.controllers[sec.ID] = c
	return c
}

// sectionRun is the state of the active parallel section.
type sectionRun struct {
	rt         *runtime
	sec        *ir.Section
	stats      *SectionStats
	lo, hi     int64
	next       int64
	args       []Value
	versionIdx int
	dynamic    bool
	ctl        core.Ctl
	snap       []simmach.Counters // per-proc counters at phase start
	secSnap    []simmach.Counters // per-proc counters at section start
	finished   bool
	iterations int64
	startTime  simmach.Time
	// chunkNext and chunkRem are per-processor chunk cursors, allocated
	// lazily when a version with Chunk > 1 runs: a worker holding part of
	// a claimed chunk takes its next iteration locally without touching
	// the shared counter (and without paying the claim cost).
	chunkNext []int64
	chunkRem  []int64
	// samp drives sampled simulation over this section execution, nil when
	// the run is exhaustive or the section is too short to sample.
	samp *sampler
}

// claimIter claims the next iteration for processor p under the active
// version's scheduling granularity. ok=false means no iterations remain
// for this worker and it should arrive at the barrier.
func (sr *sectionRun) claimIter(p *simmach.Proc) (iter int64, ok bool) {
	if sr.chunkRem != nil {
		// Drain any locally held chunk first, whatever version is active
		// now: a dynamic-feedback switch away from a chunked version must
		// not strand claimed-but-unexecuted iterations.
		if id := p.ID(); sr.chunkRem[id] > 0 {
			iter = sr.chunkNext[id]
			sr.chunkNext[id]++
			sr.chunkRem[id]--
			sr.iterations++
			return iter, true
		}
	}
	p.Advance(sr.rt.opts.ClaimCost)
	if sr.next >= sr.hi {
		return 0, false
	}
	if chunk := int64(sr.sec.Versions[sr.versionIdx].Chunk); chunk > 1 {
		if sr.chunkRem == nil {
			sr.chunkNext = make([]int64, sr.rt.opts.Procs)
			sr.chunkRem = make([]int64, sr.rt.opts.Procs)
		}
		id := p.ID()
		take := chunk
		if take > sr.hi-sr.next {
			take = sr.hi - sr.next
		}
		sr.chunkNext[id] = sr.next + 1
		sr.chunkRem[id] = take - 1
		iter = sr.next
		sr.next += take
		sr.iterations++
		return iter, true
	}
	iter = sr.next
	sr.next++
	sr.iterations++
	return iter, true
}

// remaining counts unexecuted iterations: the unclaimed range plus every
// worker's locally held chunk remainder.
func (sr *sectionRun) remaining() int64 {
	rem := sr.hi - sr.next
	for _, r := range sr.chunkRem {
		rem += r
	}
	return rem
}

func (sr *sectionRun) resnap() {
	for i := range sr.snap {
		sr.snap[i] = sr.rt.m.Proc(i).Counters
	}
}

// measure computes the phase instrumentation delta summed over processors
// (§4.3). Execution time excludes barrier waiting, which belongs to the
// switching machinery rather than to the measured version.
func (sr *sectionRun) measure() core.Measurement {
	var m core.Measurement
	for i := range sr.snap {
		d := sr.rt.m.Proc(i).Counters.Sub(sr.snap[i])
		m.Acquires += d.Acquires
		m.FailedAcquires += d.FailedAcquires
		m.LockTime += core.Nanos(d.LockTime)
		m.WaitTime += core.Nanos(d.WaitTime)
		m.ExecTime += core.Nanos(d.Busy - d.BarrierWait)
	}
	return m
}

// onBarrierComplete runs exactly once per rendezvous, before any
// participant is released (synchronous switching, §4.1).
func (sr *sectionRun) onBarrierComplete(last simmach.Time) {
	if sr.remaining() <= 0 {
		// The section's iterations are exhausted: it ends here.
		if sr.dynamic {
			sr.ctl.EndExecution(core.Nanos(last), sr.measure())
		}
		if sr.samp != nil {
			sr.samp.finishExec()
		}
		sr.finished = true
		st := sr.stats
		st.Executions = append(st.Executions, ExecutionStat{
			Start: sr.startTime, End: last, Iterations: sr.iterations,
		})
		st.Iterations += sr.iterations
		for i := range sr.secSnap {
			d := sr.rt.m.Proc(i).Counters.Sub(sr.secSnap[i])
			st.Busy += d.Busy
			st.Counters = st.Counters.Add(d)
		}
		return
	}
	// An interval expired: complete the phase and switch versions.
	sr.ctl.CompletePhase(core.Nanos(last), sr.measure())
	sr.versionIdx = sr.ctl.CurrentPolicy()
	sr.resnap()
}

// Worker phases between body executions.
const (
	wClaim = iota
	wBody
	wAfterBarrier
)
