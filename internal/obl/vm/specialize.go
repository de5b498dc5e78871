package vm

// Static specialization. Compile rebuilds every function of the baseline
// translation before returning the module:
//
//   - Inline expansion: calls to small leaf callees are spliced into the
//     caller as OpCallEnter + remapped body + OpIRet*, with the callee's
//     registers living in fresh ranges appended to the caller's frame.
//     Charges and instruction counts are preserved one-for-one
//     (OpCallEnter charges what OpCall did and zeroes the ranges the push
//     would have zeroed; OpIRet* charge what OpRet did), so dispatch
//     boundaries do not move.
//   - Superinstruction fusion: every compare+branch pair and every
//     three-instruction serial-loop latch (const 1; add; jump) collapses
//     into a single dispatch. The per-slot Plain stream keeps the unfused
//     instructions so jumps into a group and step-budget boundaries
//     behave exactly as unspecialized code.
//
// None of this changes observable behaviour; it only reduces dispatches
// and memory traffic per simulated instruction. Every rewrite is sound
// and profitable wherever its pattern matches, so no execution profile
// decides where to apply it.

const (
	// maxInlineLen bounds the callee size for inline expansion.
	maxInlineLen = 48
	// maxFuncGrowth bounds a function's post-inline code size.
	maxFuncGrowth = 4096
)

// specialize builds the specialized module from a baseline translation.
func specialize(base *Module) *Module {
	m := &Module{Funcs: make([]*FuncCode, len(base.Funcs))}
	for id := range base.Funcs {
		m.Funcs[id] = specializeFunc(base, id)
	}
	return m
}

func specializeFunc(base *Module, id int) *FuncCode {
	fc := base.Funcs[id]
	nf := &FuncCode{
		Name: fc.Name, ID: fc.ID, NParams: fc.NParams,
		NInts: fc.NInts, NFloats: fc.NFloats, NRefs: fc.NRefs,
		FrameInts: fc.FrameInts, FrameFloats: fc.FrameFloats, FrameRefs: fc.FrameRefs,
		PInts: fc.PInts, PFloats: fc.PFloats, PRefs: fc.PRefs,
		RegBank: fc.RegBank, RegSlot: fc.RegSlot,
	}
	plain := inlineExpand(base, fc, nf)
	code := make([]Instr, len(plain))
	copy(code, plain)
	fuse(code, plain)
	nf.Plain, nf.Code = plain, code
	return nf
}

// inlinable reports whether a function body can be spliced into a
// caller: no calls of any kind, no section entry, and no way for the pc
// to run off the end of the body (so execution always leaves the splice
// through a return, never by falling into the caller's next instruction).
func inlinable(fc *FuncCode) bool {
	n := len(fc.Code)
	if n == 0 {
		return false
	}
	switch fc.Code[n-1].Op {
	case OpRetI, OpRetF, OpRetR, OpRetVoid, OpJump:
	default:
		return false
	}
	for pc := range fc.Code {
		in := &fc.Code[pc]
		switch in.Op {
		case OpCall, OpTailCall, OpCallEnter, OpParallel,
			OpIRetI, OpIRetF, OpIRetR, OpIRetVoid:
			return false
		case OpJump, OpBrFalse:
			if int(in.Imm) >= n {
				return false
			}
		}
	}
	return true
}

// inlineExpand splices small leaf callees into fc's code, growing nf's
// frame by each splice's register ranges, and returns the expanded
// instruction stream. Call sites are taken in code order while the
// function stays within maxFuncGrowth.
func inlineExpand(base *Module, fc *FuncCode, nf *FuncCode) []Instr {
	splice := make(map[int]*FuncCode)
	grow := 0
	for pc := range fc.Code {
		in := &fc.Code[pc]
		if in.Op != OpCall || int(in.Imm) == fc.ID {
			continue
		}
		callee := base.Funcs[in.Imm]
		if len(callee.Code) > maxInlineLen || !inlinable(callee) ||
			len(fc.Code)+grow+len(callee.Code) > maxFuncGrowth {
			continue
		}
		splice[pc] = callee
		grow += len(callee.Code)
	}
	if len(splice) == 0 {
		out := make([]Instr, len(fc.Code))
		copy(out, fc.Code)
		return out
	}

	newPC := make([]int32, len(fc.Code)+1)
	out := make([]Instr, 0, len(fc.Code)+grow)
	var fixups []int // out indices of caller jumps whose targets need remapping
	for pc := range fc.Code {
		newPC[pc] = int32(len(out))
		in := fc.Code[pc]
		callee, ok := splice[pc]
		if !ok {
			if in.Op == OpJump || in.Op == OpBrFalse {
				fixups = append(fixups, len(out))
			}
			out = append(out, in)
			continue
		}

		// Fresh register ranges for this splice.
		ib, fb, rb := nf.FrameInts, nf.FrameFloats, nf.FrameRefs
		nf.FrameInts += callee.NInts
		nf.FrameFloats += callee.NFloats
		nf.FrameRefs += callee.NRefs
		moves := make([]ArgMove, len(in.Args))
		for i, mv := range in.Args {
			d := mv.Dst
			switch mv.Bank {
			case BankFloat:
				d += fb
			case BankRef:
				d += rb
			default:
				d += ib
			}
			moves[i] = ArgMove{Bank: mv.Bank, Src: mv.Src, Dst: d}
		}
		out = append(out, Instr{
			Op: OpCallEnter, Len: 1, Cost: in.Cost, OrigPC: in.OrigPC, SrcFn: in.SrcFn,
			A: ib, B: ib + callee.NInts, C: fb, Dst: fb + callee.NFloats,
			Imm:  int64(rb)<<32 | int64(rb+callee.NRefs),
			Args: moves,
		})

		bodyStart := int32(len(out))
		end := int64(bodyStart) + int64(len(callee.Code))
		for t := range callee.Code {
			cin := callee.Code[t]
			switch cin.Op {
			case OpRetI, OpRetF, OpRetR:
				o := Instr{Len: 1, Cost: cin.Cost, OrigPC: cin.OrigPC, SrcFn: cin.SrcFn, Imm: end}
				switch cin.Op {
				case OpRetF:
					o.A = cin.A + fb
					o.Op = OpIRetF
				case OpRetR:
					o.A = cin.A + rb
					o.Op = OpIRetR
				default:
					o.A = cin.A + ib
					o.Op = OpIRetI
				}
				if in.Dst < 0 {
					// Result discarded at the call site.
					o.Op, o.Dst = OpIRetVoid, -1
				} else {
					o.Dst = in.Dst
				}
				out = append(out, o)
			case OpRetVoid:
				out = append(out, Instr{
					Op: OpIRetVoid, Len: 1, Cost: cin.Cost, OrigPC: cin.OrigPC, SrcFn: cin.SrcFn,
					Dst: in.Dst, B: in.C, Imm: end,
				})
			default:
				remapSlots(&cin, ib, fb, rb)
				if cin.Op == OpJump || cin.Op == OpBrFalse {
					cin.Imm += int64(bodyStart)
				}
				if len(cin.Args) > 0 {
					amoves := make([]ArgMove, len(cin.Args))
					for i, mv := range cin.Args {
						s := mv.Src
						switch mv.Bank {
						case BankFloat:
							s += fb
						case BankRef:
							s += rb
						default:
							s += ib
						}
						amoves[i] = ArgMove{Bank: mv.Bank, Src: s, Dst: mv.Dst}
					}
					cin.Args = amoves
				}
				out = append(out, cin)
			}
		}
	}
	newPC[len(fc.Code)] = int32(len(out))
	for _, i := range fixups {
		out[i].Imm = int64(newPC[out[i].Imm])
	}
	return out
}

// remapSlots adds a splice's bank bases to every register-slot field of
// an inlined instruction. Which fields are slots — and in which bank —
// is a property of the opcode; immediates, jump targets and flag-site
// indices are left alone.
func remapSlots(o *Instr, ib, fb, rb int32) {
	switch o.Op {
	case OpNop, OpFlagSkip, OpJump:
	case OpConstI, OpLoadParam:
		o.Dst += ib
	case OpConstF:
		o.Dst += fb
	case OpConstNil:
		o.Dst += rb
	case OpMovI, OpNegI, OpNot:
		o.Dst += ib
		o.A += ib
	case OpMovF, OpNegF:
		o.Dst += fb
		o.A += fb
	case OpMovR:
		o.Dst += rb
		o.A += rb
	case OpAddI, OpSubI, OpMulI, OpDivI, OpModI,
		OpEqI, OpNeI, OpLtI, OpLeI, OpGtI, OpGeI:
		o.Dst += ib
		o.A += ib
		o.B += ib
	case OpAddF, OpSubF, OpMulF, OpDivF:
		o.Dst += fb
		o.A += fb
		o.B += fb
	case OpEqF, OpNeF, OpLtF, OpLeF, OpGtF, OpGeF:
		o.Dst += ib
		o.A += fb
		o.B += fb
	case OpEqR, OpNeR:
		o.Dst += ib
		o.A += rb
		o.B += rb
	case OpI2F:
		o.Dst += fb
		o.A += ib
	case OpF2I:
		o.Dst += ib
		o.A += fb
	case OpBrFalse:
		o.A += ib
	case OpCallExtI:
		if o.Dst >= 0 {
			o.Dst += ib
		}
	case OpCallExtF:
		if o.Dst >= 0 {
			o.Dst += fb
		}
	case OpNew:
		o.Dst += rb
	case OpNewArr:
		o.Dst += rb
		o.A += ib
	case OpLoadFieldI:
		o.Dst += ib
		o.A += rb
	case OpLoadFieldF:
		o.Dst += fb
		o.A += rb
	case OpLoadFieldR:
		o.Dst += rb
		o.A += rb
	case OpStoreFieldI, OpStoreFieldB:
		o.A += rb
		o.B += ib
	case OpStoreFieldF:
		o.A += rb
		o.B += fb
	case OpStoreFieldR:
		o.A += rb
		o.B += rb
	case OpLoadIndexI:
		o.Dst += ib
		o.A += rb
		o.B += ib
	case OpLoadIndexF:
		o.Dst += fb
		o.A += rb
		o.B += ib
	case OpLoadIndexR:
		o.Dst += rb
		o.A += rb
		o.B += ib
	case OpStoreIndexI, OpStoreIndexB:
		o.A += rb
		o.B += ib
		o.C += ib
	case OpStoreIndexF:
		o.A += rb
		o.B += ib
		o.C += fb
	case OpStoreIndexR:
		o.A += rb
		o.B += ib
		o.C += rb
	case OpLen:
		o.Dst += ib
		o.A += rb
	case OpPrintI, OpPrintB:
		o.A += ib
	case OpPrintF:
		o.A += fb
	case OpPrintR:
		o.A += rb
	case OpAcquire, OpRelease, OpAcquireEn, OpReleaseEn,
		OpAcquireIf, OpReleaseIf:
		o.A += rb
	}
}

// cmpBranch maps each compare to its fused compare+branch form.
var cmpBranch = map[Op]Op{
	OpEqI: OpEqIBr, OpNeI: OpNeIBr, OpEqF: OpEqFBr, OpNeF: OpNeFBr,
	OpEqR: OpEqRBr, OpNeR: OpNeRBr,
	OpLtI: OpLtIBr, OpLeI: OpLeIBr, OpGtI: OpGtIBr, OpGeI: OpGeIBr,
	OpLtF: OpLtFBr, OpLeF: OpLeFBr, OpGtF: OpGtFBr, OpGeF: OpGeFBr,
	OpNot: OpNotBr,
}

// fuse rewrites superinstruction patterns in code, leaving plain as the
// per-slot unfused stream. Group tails keep their plain copies in code
// too, so jumps that land inside a group execute unfused.
func fuse(code, plain []Instr) {
	for pc := 0; pc+1 < len(code); pc++ {
		in := &plain[pc]
		// Serial-loop latch: const.i c,1 ; add.i a,a,c ; jump t.
		if pc+2 < len(code) && in.Op == OpConstI && in.Imm == 1 {
			add, jmp := &plain[pc+1], &plain[pc+2]
			if add.Op == OpAddI && jmp.Op == OpJump &&
				add.Dst == add.A && add.B == in.Dst && add.Dst != in.Dst {
				code[pc] = Instr{
					Op: OpInc1Jump, Len: 3, Dst: in.Dst, A: add.Dst, Imm: jmp.Imm,
					Cost: in.Cost + add.Cost + jmp.Cost, OrigPC: in.OrigPC, SrcFn: in.SrcFn,
				}
				pc += 2
				continue
			}
		}
		fop, ok := cmpBranch[in.Op]
		if !ok {
			continue
		}
		br := &plain[pc+1]
		if br.Op != OpBrFalse || br.A != in.Dst {
			continue
		}
		code[pc] = Instr{
			Op: fop, Len: 2, Dst: in.Dst, A: in.A, B: in.B, Imm: br.Imm,
			Cost: in.Cost + br.Cost, OrigPC: in.OrigPC, SrcFn: in.SrcFn,
		}
		pc++
	}
}
