package vm

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/obl/ir"
)

// TestStaticSpecializationCoverage checks that specialization applies
// everywhere its patterns match, with no profile deciding: in the
// compiled modules of every application's parallel, serial and flagged
// builds, every compare immediately followed by a branch on its result
// is fused, every serial-loop latch is fused, and every call to an
// inlinable leaf is inlined unless that would break the growth bound.
func TestStaticSpecializationCoverage(t *testing.T) {
	fused, latches, inlined := 0, 0, 0
	for _, name := range apps.Names {
		c, err := apps.Compile(name)
		if err != nil {
			t.Fatal(err)
		}
		builds := []struct {
			label string
			prog  *ir.Program
		}{{"parallel", c.Parallel}, {"serial", c.Serial}, {"flagged", c.Flagged}}
		for _, build := range builds {
			base, err := baseline(build.prog)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, build.label, err)
			}
			m := specialize(base)
			for _, fc := range m.Funcs {
				where := name + "/" + build.label + "/" + fc.Name
				for pc := range fc.Plain {
					in := &fc.Plain[pc]
					if _, ok := cmpBranch[in.Op]; ok && pc+1 < len(fc.Plain) {
						if br := &fc.Plain[pc+1]; br.Op == OpBrFalse && br.A == in.Dst {
							fused++
							if fc.Code[pc].Op != cmpBranch[in.Op] {
								t.Errorf("%s: pc %d: %s+brfalse left unfused (%s)", where, pc, in.Op, fc.Code[pc].Op)
							}
						}
					}
					if in.Op == OpConstI && in.Imm == 1 && pc+2 < len(fc.Plain) {
						add, jmp := &fc.Plain[pc+1], &fc.Plain[pc+2]
						if add.Op == OpAddI && jmp.Op == OpJump &&
							add.Dst == add.A && add.B == in.Dst && add.Dst != in.Dst {
							latches++
							if fc.Code[pc].Op != OpInc1Jump {
								t.Errorf("%s: pc %d: loop latch left unfused (%s)", where, pc, fc.Code[pc].Op)
							}
						}
					}
					switch in.Op {
					case OpCallEnter:
						inlined++
					case OpCall:
						callee := base.Funcs[in.Imm]
						if int(in.Imm) != fc.ID && len(callee.Code) <= maxInlineLen && inlinable(callee) &&
							len(fc.Plain)+len(callee.Code) <= maxFuncGrowth {
							t.Errorf("%s: pc %d: call to inlinable leaf %s not inlined", where, pc, callee.Name)
						}
					}
				}
			}
		}
	}
	if fused == 0 || latches == 0 || inlined == 0 {
		t.Errorf("corpus exercises too little: %d compare+branch pairs, %d latches, %d inlined calls", fused, latches, inlined)
	}
}
