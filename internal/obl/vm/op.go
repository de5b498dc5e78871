// Package vm compiles the register IR (internal/obl/ir) to a typed,
// flat register bytecode and statically specializes it. The bytecode is
// what internal/interp executes.
//
// The IR is generic: every operand is a tagged value, instruction costs
// are derived from opcodes, and generic opcodes would re-discover operand
// kinds on each execution. The bytecode resolves all of that at compile
// time:
//
//   - The register file is split into three typed banks (int64 words —
//     which also hold booleans — float64s, and object references), so
//     the hot loop moves 8-byte scalars instead of tagged values.
//   - Opcodes are kind-specialized (OpEqF vs OpEqI vs OpEqR, typed field
//     and element accesses, typed prints), so no value tags are consulted.
//   - Every instruction carries its folded virtual cost (extern calls
//     include the extern's declared cost), call sites carry resolved
//     argument-move plans, and self tail calls reuse the frame.
//
// Static specialization (specialize.go) then rewrites the translation:
// superinstructions for every compare+branch and loop-increment
// sequence, and inline expansion of small leaf callees.
//
// The contract with the execution engine is strict bit-for-bit fidelity
// to the IR's semantics: identical virtual times, counters, scheduler
// step counts, outputs, controller decisions, and race-detector findings
// whatever the rewrites did. Specialized instructions therefore perform
// exactly the effects of the instructions they cover — including dead
// register writes — and fused instructions only execute when the step
// budget admits the whole group (the per-slot plain overlay runs
// otherwise), so dispatch boundaries never move.
package vm

// Op is a bytecode opcode. Kind-specialized where the IR is generic.
type Op uint8

// Plain opcodes: the 1:1 translation targets of ir.Op.
const (
	OpNop Op = iota

	// Constants and moves. OpConstI covers integer and boolean constants
	// (booleans are stored as 0/1 words).
	OpConstI   // ints[Dst] = Imm
	OpConstF   // floats[Dst] = F
	OpConstNil // refs[Dst] = nil
	OpMovI     // ints[Dst] = ints[A]
	OpMovF     // floats[Dst] = floats[A]
	OpMovR     // refs[Dst] = refs[A]
	OpLoadParam

	// Arithmetic.
	OpAddI
	OpSubI
	OpMulI
	OpDivI
	OpModI
	OpNegI
	OpAddF
	OpSubF
	OpMulF
	OpDivF
	OpNegF
	OpI2F
	OpF2I

	// Comparisons (result is a 0/1 word in ints[Dst]).
	OpEqI
	OpNeI
	OpEqF
	OpNeF
	OpEqR
	OpNeR
	OpLtI
	OpLeI
	OpGtI
	OpGeI
	OpLtF
	OpLeF
	OpGtF
	OpGeF
	OpNot

	// Control flow.
	OpJump    // pc = Imm
	OpBrFalse // if ints[A] == 0: pc = Imm

	// Calls. Imm is the callee (module function index); Args is the
	// argument-move plan; Dst is the caller's bank-local result slot
	// (-1 none) and C its bank.
	OpCall
	OpCallExtI // ints[Dst] = extern(...).I
	OpCallExtF // floats[Dst] = extern(...).F
	OpRetI     // return ints[A]
	OpRetF
	OpRetR
	OpRetVoid

	// Objects and arrays.
	OpNew         // refs[Dst] = new Classes[Imm]
	OpNewArr      // refs[Dst] = new array[ints[A]] of element kind Imm
	OpLoadFieldI  // ints[Dst] = refs[A].Fields[Imm].I  (int and bool fields)
	OpLoadFieldF  // floats[Dst] = refs[A].Fields[Imm].F
	OpLoadFieldR  // refs[Dst] = refs[A].Fields[Imm].Ref
	OpStoreFieldI // refs[A].Fields[Imm] = int word ints[B]
	OpStoreFieldB // refs[A].Fields[Imm] = bool word ints[B]
	OpStoreFieldF
	OpStoreFieldR
	OpLoadIndexI // ints[Dst] = refs[A].Elems[ints[B]].I
	OpLoadIndexF
	OpLoadIndexR
	OpStoreIndexI // refs[A].Elems[ints[B]] = int word ints[C]
	OpStoreIndexB
	OpStoreIndexF
	OpStoreIndexR
	OpLen

	// Output, typed by the printed register's kind.
	OpPrintI
	OpPrintB
	OpPrintF
	OpPrintR

	// Specialized instructions (emitted by compile-time resolution or by
	// static specialization).

	// OpFlagSkip replaces a conditional sync site that every policy's
	// flag vector disables: only the residual flag test is charged.
	OpFlagSkip

	// OpTailCall is a self-recursive call in tail position: the frame is
	// reused (arguments shuffled through scratch, locals re-zeroed) and a
	// collapse counter is incremented so the eventual OpRet replays the
	// intermediate returns' charges one instruction at a time — dispatch
	// boundaries land exactly where an unwind of real frames puts them.
	OpTailCall

	// Inline expansion. OpCallEnter opens an inlined callee: it charges
	// the call linkage cost and zeroes the callee's register ranges
	// (A..B ints, C..Dst floats, Imm packs the ref range) before the
	// argument moves. OpIRet* are the callee's returns: they write the
	// caller's result slot (Dst; bank implied) and jump to the splice end.
	OpCallEnter
	OpIRetI // caller slot Dst = ints[A]; pc = Imm
	OpIRetF
	OpIRetR
	OpIRetVoid // zero caller slot Dst in bank B; pc = Imm

	// Fused superinstructions (Len > 1): compare+branch pairs write the
	// condition register and branch in one dispatch, and OpInc1Jump is
	// the three-instruction serial-loop latch (const 1, add, jump back).
	OpEqIBr
	OpNeIBr
	OpEqFBr
	OpNeFBr
	OpEqRBr
	OpNeRBr
	OpLtIBr
	OpLeIBr
	OpGtIBr
	OpGeIBr
	OpLtFBr
	OpLeFBr
	OpGtFBr
	OpGeFBr
	OpNotBr
	OpInc1Jump // ints[Dst] = 1; ints[A] += 1; pc = Imm

	// Synchronization and section entry. These are kept in one contiguous
	// range so the dispatch loop recognizes the yield-first instructions
	// with a single compare (see opSyncStart).
	OpAcquire   // acquire refs[A].lock
	OpRelease   // release refs[A].lock
	OpAcquireEn // conditional site every flag vector enables: no lookup
	OpReleaseEn
	OpAcquireIf // conditional site, flag vector consulted at run time
	OpReleaseIf
	OpParallel // enter Sections[Imm] over [ints[A], ints[B]) with Args

	opCount
)

// OpSyncStart is the first yield-first opcode: every opcode from here on
// interacts with shared machine state and must execute at the start of
// its own scheduler dispatch.
const OpSyncStart = OpAcquire

var opNames = [...]string{
	OpNop: "nop", OpConstI: "const.i", OpConstF: "const.f", OpConstNil: "const.nil",
	OpMovI: "mov.i", OpMovF: "mov.f", OpMovR: "mov.r", OpLoadParam: "loadparam",
	OpAddI: "add.i", OpSubI: "sub.i", OpMulI: "mul.i", OpDivI: "div.i",
	OpModI: "mod.i", OpNegI: "neg.i",
	OpAddF: "add.f", OpSubF: "sub.f", OpMulF: "mul.f", OpDivF: "div.f",
	OpNegF: "neg.f", OpI2F: "i2f", OpF2I: "f2i",
	OpEqI: "eq.i", OpNeI: "ne.i", OpEqF: "eq.f", OpNeF: "ne.f",
	OpEqR: "eq.r", OpNeR: "ne.r",
	OpLtI: "lt.i", OpLeI: "le.i", OpGtI: "gt.i", OpGeI: "ge.i",
	OpLtF: "lt.f", OpLeF: "le.f", OpGtF: "gt.f", OpGeF: "ge.f",
	OpNot:  "not",
	OpJump: "jump", OpBrFalse: "brfalse",
	OpCall: "call", OpCallExtI: "callext.i", OpCallExtF: "callext.f",
	OpRetI: "ret.i", OpRetF: "ret.f", OpRetR: "ret.r", OpRetVoid: "ret",
	OpNew: "new", OpNewArr: "newarr",
	OpLoadFieldI: "ldfld.i", OpLoadFieldF: "ldfld.f", OpLoadFieldR: "ldfld.r",
	OpStoreFieldI: "stfld.i", OpStoreFieldB: "stfld.b", OpStoreFieldF: "stfld.f",
	OpStoreFieldR: "stfld.r",
	OpLoadIndexI:  "ldidx.i", OpLoadIndexF: "ldidx.f", OpLoadIndexR: "ldidx.r",
	OpStoreIndexI: "stidx.i", OpStoreIndexB: "stidx.b", OpStoreIndexF: "stidx.f",
	OpStoreIndexR: "stidx.r", OpLen: "len",
	OpPrintI: "print.i", OpPrintB: "print.b", OpPrintF: "print.f", OpPrintR: "print.r",
	OpFlagSkip: "flagskip", OpTailCall: "tailcall",
	OpCallEnter: "callenter",
	OpIRetI:     "iret.i", OpIRetF: "iret.f", OpIRetR: "iret.r", OpIRetVoid: "iret",
	OpEqIBr: "eq.i+br", OpNeIBr: "ne.i+br", OpEqFBr: "eq.f+br", OpNeFBr: "ne.f+br",
	OpEqRBr: "eq.r+br", OpNeRBr: "ne.r+br",
	OpLtIBr: "lt.i+br", OpLeIBr: "le.i+br", OpGtIBr: "gt.i+br", OpGeIBr: "ge.i+br",
	OpLtFBr: "lt.f+br", OpLeFBr: "le.f+br", OpGtFBr: "gt.f+br", OpGeFBr: "ge.f+br",
	OpNotBr: "not+br", OpInc1Jump: "inc1+jump",
	OpAcquire: "acquire", OpRelease: "release",
	OpAcquireEn: "acquire.en", OpReleaseEn: "release.en",
	OpAcquireIf: "acquire.if", OpReleaseIf: "release.if",
	OpParallel: "parallel",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return "Op?" // unreachable for valid opcodes
}
