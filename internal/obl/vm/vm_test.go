package vm_test

import (
	"strings"
	"testing"
	"unsafe"

	"repro/internal/apps"
	"repro/internal/obl/vm"
	"repro/oblc"
)

func TestInstrIsOneCacheLine(t *testing.T) {
	if s := unsafe.Sizeof(vm.Instr{}); s != 64 {
		t.Fatalf("vm.Instr is %d bytes, want 64 (one cache line)", s)
	}
}

func TestFloatConstRoundTrip(t *testing.T) {
	for _, f := range []float64{0, 1, -1, 0.5, 3.141592653589793, -1e300, 5e-324} {
		var in vm.Instr
		in.SetF(f)
		if got := in.F(); got != f {
			t.Errorf("SetF(%g).F() = %g", f, got)
		}
	}
}

func compileApp(t *testing.T, name string) *vm.Module {
	t.Helper()
	c, err := apps.Compile(name)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.Compile(c.Parallel)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCompileTranslatesOneToOne checks that every function's own
// instructions survive specialization one-to-one and in order: the Plain
// slots attributed to the function (spliced callee bodies aside) are its
// IR instructions, one per pc.
func TestCompileTranslatesOneToOne(t *testing.T) {
	for _, name := range apps.Names {
		c, err := apps.Compile(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := vm.Compile(c.Parallel)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(m.Funcs) != len(c.Parallel.Funcs) {
			t.Fatalf("%s: %d compiled funcs, want %d", name, len(m.Funcs), len(c.Parallel.Funcs))
		}
		for _, fc := range m.Funcs {
			src := c.Parallel.Funcs[fc.ID]
			own := 0
			for pc := range fc.Plain {
				in := &fc.Plain[pc]
				if in.Len != 1 {
					t.Errorf("%s/%s: Plain slot %d has Len %d", name, fc.Name, pc, in.Len)
				}
				if int(in.SrcFn) != fc.ID {
					continue
				}
				if int(in.OrigPC) != own {
					t.Errorf("%s/%s: own slot %d has OrigPC %d", name, fc.Name, own, in.OrigPC)
				}
				own++
			}
			if own != len(src.Code) {
				t.Errorf("%s/%s: %d own instrs, want %d", name, fc.Name, own, len(src.Code))
			}
		}
	}
}

func TestSpecializeOverlayInvariants(t *testing.T) {
	for _, name := range apps.Names {
		m := compileApp(t, name)
		fused := 0
		for _, fc := range m.Funcs {
			if len(fc.Code) != len(fc.Plain) {
				t.Fatalf("%s/%s: Code %d slots, Plain %d", name, fc.Name, len(fc.Code), len(fc.Plain))
			}
			for pc := range fc.Plain {
				if fc.Plain[pc].Len != 1 {
					t.Errorf("%s/%s: Plain slot %d has Len %d", name, fc.Name, pc, fc.Plain[pc].Len)
				}
			}
			for pc := range fc.Code {
				in := &fc.Code[pc]
				if in.Len <= 1 {
					continue
				}
				fused++
				// Group tails must stay executable for jumps into the
				// middle: they are the plain instructions verbatim.
				for k := 1; k < int(in.Len); k++ {
					if fc.Code[pc+k].Op != fc.Plain[pc+k].Op {
						t.Errorf("%s/%s: fused group at %d: tail slot %d differs from plain", name, fc.Name, pc, pc+k)
					}
				}
			}
		}
		if fused == 0 {
			t.Errorf("%s: compiled module has no superinstructions", name)
		}
	}
}

func TestTailCallMarked(t *testing.T) {
	c, err := oblc.Compile(`
func count(i: int, n: int): int {
  if i >= n {
    return i;
  }
  return count(i + 1, n);
}
func main() {
  print count(0, 10);
}`)
	if err != nil {
		t.Fatal(err)
	}
	m, err := vm.Compile(c.Serial)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, fc := range m.Funcs {
		for pc := range fc.Code {
			if fc.Code[pc].Op == vm.OpTailCall {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("self-recursive valued return not marked as tail call")
	}
}

func TestDisasmMentionsSpecializedOps(t *testing.T) {
	m := compileApp(t, apps.NameWater)
	var all strings.Builder
	for _, fc := range m.Funcs {
		all.WriteString(fc.Disasm())
	}
	text := all.String()
	if !strings.Contains(text, "func ") {
		t.Fatal("empty disassembly")
	}
	if !strings.Contains(text, "+br") {
		t.Fatal("disassembly shows no fused compare+branch")
	}
}
