package interp

import (
	"repro/internal/core"
	"repro/internal/obl/ir"
	"repro/internal/obl/vm"
	"repro/internal/simmach"
)

// This file is the execution engine: vmTask drives one simulated
// processor through the typed register banks of a compiled vm.Module.
// Everything a Result or a trace can observe is fixed by the program's
// IR: virtual times, machine counters, scheduler step counts (dispatch
// boundaries — the stepBudget accounting, yield-first sync, claim and
// barrier points — fall instruction for instruction where the IR puts
// them), program output, controller samples and switches, and
// race-detector findings.

// compiled is the per-program load-time state: the bytecode module and
// the resolved extern implementations. It is derived once per
// *ir.Program and shared by every concurrent Run (the parallel
// experiment engine executes many runs of the same program at once).
type compiled struct {
	mod *vm.Module
	ext []intrinsic
	err error
}

type compiledKey struct{}

func compiledFor(p *ir.Program) *compiled {
	return p.Derived(compiledKey{}, func() any {
		c := &compiled{}
		c.mod, c.err = vm.Compile(p)
		c.ext = make([]intrinsic, len(p.Externs))
		for i, e := range p.Externs {
			c.ext[i] = intrinsics[e.Name]
		}
		return c
	}).(*compiled)
}

// vmFrame is one activation record over the three banks. The windows are
// re-pointed whenever a bank arena grows. collapsed counts tail calls
// that reused this frame; the eventual return replays their charges.
type vmFrame struct {
	fc                  *vm.FuncCode
	pc                  int
	ibase, fbase, rbase int
	ints                []int64
	floats              []float64
	refs                []*Object
	retSlot             int32
	retBank             uint8
	collapsed           int64
}

// vmTask drives one processor: the main task executes serial code and
// joins sections; worker tasks exist only inside a section.
type vmTask struct {
	rt     *runtime
	mod    *vm.Module
	frames []vmFrame
	isMain bool
	sr     *sectionRun
	// flags is the active site-flag vector (flag-dispatch programs): the
	// current version's inside a section, frozen per iteration at claim.
	flags []bool
	// baseFrames is the serial-frame depth below section body frames; the
	// main task joins each section as a worker on top of its serial stack.
	baseFrames int
	wphase     int
	// executed counts instructions in the current Step; sync operations
	// yield first if any work has been done, so that shared-state effects
	// occur in exact virtual-time order.
	executed int
	acc      simmach.Time // unflushed compute cost
	// Per-bank register arenas backing every frame's windows.
	intStack   []int64
	floatStack []float64
	refStack   []*Object
	// extArgs is scratch storage for extern-call arguments, reused across
	// calls (intrinsics never retain their argument slice).
	extArgs []Value
	// held is the task's current lock nest, maintained only when the race
	// detector is enabled. A lock is recorded before a (possibly blocking)
	// Acquire: a blocked processor executes nothing until it wakes already
	// owning the lock, so the early entry is never observed unheld.
	held []*simmach.Lock
	// collapsed sums the collapsed counters of every live frame, so the
	// call-depth check sees the stack height the uncollapsed calls would
	// have.
	collapsed int64
	// Tail-call argument scratch: parameter sources are read out before
	// the frame's parameter slots are overwritten.
	scrI []int64
	scrF []float64
	scrR []*Object
}

func (t *vmTask) flush(p *simmach.Proc) {
	if t.acc > 0 {
		p.Advance(t.acc)
		t.acc = 0
	}
}

// push opens a zeroed activation record. Only the original register
// region of each bank is cleared; ranges appended by inline expansion are
// zeroed lazily by OpCallEnter before use.
func (t *vmTask) push(funcID int, retSlot int32, retBank uint8) {
	fc := t.mod.Funcs[funcID]
	ib, fb, rb := len(t.intStack), len(t.floatStack), len(t.refStack)
	ti, tf, tr := ib+int(fc.FrameInts), fb+int(fc.FrameFloats), rb+int(fc.FrameRefs)
	if ti <= cap(t.intStack) {
		t.intStack = t.intStack[:ti]
	} else {
		t.growInts(ti)
	}
	if tf <= cap(t.floatStack) {
		t.floatStack = t.floatStack[:tf]
	} else {
		t.growFloats(tf)
	}
	if tr <= cap(t.refStack) {
		t.refStack = t.refStack[:tr]
	} else {
		t.growRefs(tr)
	}
	ints := t.intStack[ib:ti:ti]
	floats := t.floatStack[fb:tf:tf]
	refs := t.refStack[rb:tr:tr]
	clear(ints[:fc.NInts])
	clear(floats[:fc.NFloats])
	clear(refs[:fc.NRefs])
	t.frames = append(t.frames, vmFrame{
		fc: fc, ibase: ib, fbase: fb, rbase: rb,
		ints: ints, floats: floats, refs: refs,
		retSlot: retSlot, retBank: retBank,
	})
}

func (t *vmTask) growInts(top int) {
	nc := 2 * cap(t.intStack)
	if nc < top {
		nc = top
	}
	if nc < 64 {
		nc = 64
	}
	g := make([]int64, top, nc)
	copy(g, t.intStack)
	t.intStack = g
	for i := range t.frames {
		f := &t.frames[i]
		end := f.ibase + int(f.fc.FrameInts)
		f.ints = t.intStack[f.ibase:end:end]
	}
}

func (t *vmTask) growFloats(top int) {
	nc := 2 * cap(t.floatStack)
	if nc < top {
		nc = top
	}
	if nc < 64 {
		nc = 64
	}
	g := make([]float64, top, nc)
	copy(g, t.floatStack)
	t.floatStack = g
	for i := range t.frames {
		f := &t.frames[i]
		end := f.fbase + int(f.fc.FrameFloats)
		f.floats = t.floatStack[f.fbase:end:end]
	}
}

func (t *vmTask) growRefs(top int) {
	nc := 2 * cap(t.refStack)
	if nc < top {
		nc = top
	}
	if nc < 64 {
		nc = 64
	}
	g := make([]*Object, top, nc)
	copy(g, t.refStack)
	t.refStack = g
	for i := range t.frames {
		f := &t.frames[i]
		end := f.rbase + int(f.fc.FrameRefs)
		f.refs = t.refStack[f.rbase:end:end]
	}
}

func (t *vmTask) popFrame() {
	fr := &t.frames[len(t.frames)-1]
	t.intStack = t.intStack[:fr.ibase]
	t.floatStack = t.floatStack[:fr.fbase]
	t.refStack = t.refStack[:fr.rbase]
	t.frames = t.frames[:len(t.frames)-1]
}

func (t *vmTask) reset(sr *sectionRun) {
	t.sr = sr
	t.frames = t.frames[:0]
	t.intStack = t.intStack[:0]
	t.floatStack = t.floatStack[:0]
	t.refStack = t.refStack[:0]
	t.flags = nil
	t.baseFrames = 0
	t.wphase = wClaim
	t.executed = 0
	t.held = t.held[:0]
	t.collapsed = 0
}

// unhold removes the most recent occurrence of l from the task's lock nest.
func (t *vmTask) unhold(l *simmach.Lock) {
	for i := len(t.held) - 1; i >= 0; i-- {
		if t.held[i] == l {
			t.held = append(t.held[:i], t.held[i+1:]...)
			return
		}
	}
}

// Step implements simmach.Process.
func (t *vmTask) Step(p *simmach.Proc) simmach.Status {
	if t.rt.m.Steps() > t.rt.opts.MaxSteps {
		if ps := t.rt.m.PerturbState(); ps != "" {
			t.rt.fail("step budget exceeded (%d); possible livelock; %s", t.rt.opts.MaxSteps, ps)
		} else {
			t.rt.fail("step budget exceeded (%d); possible livelock", t.rt.opts.MaxSteps)
		}
	}
	t.executed = 0
	for {
		if t.sr != nil && len(t.frames) == t.baseFrames {
			st, again := t.sectionStep(p)
			if !again {
				return st
			}
			continue
		}
		if len(t.frames) == 0 {
			t.flush(p)
			return simmach.Done
		}
		st, again := t.exec(p)
		if !again {
			return st
		}
	}
}

// sectionStep advances the worker-level state machine. It returns the
// machine status, or again=true to continue within this Step.
func (t *vmTask) sectionStep(p *simmach.Proc) (simmach.Status, bool) {
	sr := t.sr
	if sr.finished {
		if t.isMain {
			t.sr = nil
			t.baseFrames = 0
			return 0, true
		}
		t.flush(p)
		return simmach.Done, false
	}
	switch t.wphase {
	case wClaim:
		if t.executed > 0 {
			// Claims manipulate shared state: execute them at the start of
			// a dispatch so they happen in virtual-time order.
			t.flush(p)
			return simmach.Ready, false
		}
		// Checkpoint anchor point, as in task.sectionStep.
		if h := t.rt.hook; h != nil {
			if st, handled := h.atClaim(t.rt); handled {
				return st, false
			}
		}
		if sp := sr.samp; sp != nil {
			if st, handled := sp.atClaim(p); handled {
				return st, false
			}
		}
		iter, ok := sr.claimIter(p)
		if !ok {
			p.BarrierArrive(t.rt.barrier)
			t.wphase = wAfterBarrier
			return simmach.Blocked, false
		}
		if sr.dynamic {
			p.Advance(t.rt.opts.DispatchCost)
		}
		v := sr.sec.Versions[sr.versionIdx]
		t.flags = v.Flags
		t.push(v.FuncID, -1, 0)
		fr := &t.frames[len(t.frames)-1]
		fc := fr.fc
		for i, av := range sr.args {
			switch fc.RegBank[i] {
			case vm.BankFloat:
				fr.floats[fc.RegSlot[i]] = av.F
			case vm.BankRef:
				fr.refs[fc.RegSlot[i]] = av.Ref
			default:
				fr.ints[fc.RegSlot[i]] = av.I
			}
		}
		fr.ints[fc.RegSlot[len(sr.args)]] = iter
		t.wphase = wBody
		t.executed++
		return 0, true
	case wBody:
		// The body frames just emptied: the iteration is complete. This is
		// the potential switch point (§4.1).
		if sr.dynamic {
			t.flush(p)
			now := p.ReadTimer()
			if sr.ctl.Expired(core.Nanos(now)) {
				if t.rt.opts.AsyncSwitch {
					// Ablation mode: transition without a rendezvous; the
					// measurement mixes whatever versions ran meanwhile.
					sr.ctl.CompletePhase(core.Nanos(now), sr.measure())
					sr.versionIdx = sr.ctl.CurrentPolicy()
					sr.resnap()
					t.wphase = wClaim
					t.flush(p)
					return simmach.Ready, false
				}
				p.BarrierArrive(t.rt.barrier)
				t.wphase = wAfterBarrier
				return simmach.Blocked, false
			}
		}
		t.wphase = wClaim
		t.flush(p)
		return simmach.Ready, false
	case wAfterBarrier:
		t.wphase = wClaim
		return 0, true
	}
	t.rt.fail("bad worker phase %d", t.wphase)
	return simmach.Done, false
}

// enterSection handles OpParallel on the main task.
func (t *vmTask) enterSection(p *simmach.Proc, fr *vmFrame, in *vm.Instr) {
	rt := t.rt
	sec := rt.prog.Sections[in.Imm]
	lo := fr.ints[in.A]
	hi := fr.ints[in.B]
	args := make([]Value, len(in.Args))
	for _, mv := range in.Args {
		switch mv.Bank {
		case vm.BankFloat:
			args[mv.Dst] = Value{Kind: KindFloat, F: fr.floats[mv.Src]}
		case vm.BankRef:
			args[mv.Dst] = Value{Kind: KindRef, Ref: fr.refs[mv.Src]}
		default:
			args[mv.Dst] = Value{Kind: KindInt, I: fr.ints[mv.Src]}
		}
	}
	p.Advance(rt.opts.ForkCost)
	sr := &sectionRun{
		rt: rt, sec: sec, stats: rt.sectionStats(sec),
		lo: lo, hi: hi, next: lo, args: args,
		dynamic:   rt.opts.Policy == PolicyDynamic,
		snap:      make([]simmach.Counters, rt.opts.Procs),
		secSnap:   make([]simmach.Counters, rt.opts.Procs),
		startTime: p.Now(),
	}
	if sr.dynamic {
		sr.ctl = rt.controller(sec)
		sr.ctl.BeginExecution(core.Nanos(p.Now()))
		sr.versionIdx = sr.ctl.CurrentPolicy()
	} else {
		sr.versionIdx = sec.PolicyVersion[rt.opts.Policy]
	}
	sr.stats.ChosenVersion = sr.versionIdx
	if rt.race != nil {
		rt.race.enterSection(sec.Name)
	}
	if rt.sampSpec != nil && hi-lo >= rt.sampSpec.MinSectionIters {
		sr.samp = newSampler(rt, sr)
	}
	rt.barrier.OnComplete = sr.onBarrierComplete
	if rt.vmWorkers == nil {
		rt.vmWorkers = make([]*vmTask, rt.opts.Procs)
	}
	for i := 1; i < rt.opts.Procs; i++ {
		w := rt.vmWorkers[i]
		if w == nil {
			w = &vmTask{rt: rt, mod: t.mod}
			rt.vmWorkers[i] = w
		}
		w.reset(sr)
		rt.m.SetClock(i, p.Now())
		rt.m.Start(i, w)
	}
	for i := range sr.secSnap {
		sr.secSnap[i] = rt.m.Proc(i).Counters
	}
	sr.resnap()
	t.sr = sr
	t.baseFrames = len(t.frames)
	t.wphase = wClaim
}
