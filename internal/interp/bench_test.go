package interp

import (
	"testing"
)

// Micro-benchmarks for the dispatch loop. Each one compiles a small OBL
// program once and measures complete interp.Run calls (the first call,
// outside the timed loop, compiles the bytecode), so the numbers cover
// the per-instruction dispatch path that dominates suite wall-clock:
// superinstructions, register-arena reuse, the call and extern paths,
// and the lock path through the simulated machine.

// benchDispatchSrc is pure register arithmetic and branching — no calls,
// no objects — so the loop body is dispatch overhead and nothing else.
const benchDispatchSrc = `
func main() {
  let s: int = 0;
  for i in 0..20000 {
    if i % 2 == 0 { s = s + i * 3; } else { s = s - i; }
  }
  print s;
}
`

func BenchmarkDispatch(b *testing.B) {
	c := compile(b, benchDispatchSrc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(c.Serial, Options{Procs: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCallSrc stresses the call path: a method invocation (dynamic
// receiver, field reads) plus a plain function call per iteration, so
// frame push/pop and the register arena dominate.
const benchCallSrc = `
class Cell {
  v: float;
  method bump(x: float): float {
    this.v = this.v + x;
    return this.v;
  }
}
func twice(x: float): float { return x + x; }
func main() {
  let c: Cell = new Cell();
  let s: float = 0.0;
  for i in 0..8000 {
    s = s + twice(c.bump(1.0));
  }
  print s;
}
`

func BenchmarkMethodCall(b *testing.B) {
	c := compile(b, benchCallSrc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(c.Serial, Options{Procs: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchExternSrc stresses OpCallExtern: the table-indexed intrinsic
// lookup and the folded static extern cost.
const benchExternSrc = `
extern sqrt(x: float): float cost 80;
func main() {
  let s: float = 0.0;
  for i in 0..10000 {
    s = s + sqrt(tofloat(i));
  }
  print s;
}
`

func BenchmarkExternCall(b *testing.B) {
	c := compile(b, benchExternSrc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(c.Serial, Options{Procs: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchLockSrc updates a shared accumulator object from a parallel
// section, so under the paper's original policy every iteration carries
// an acquire/release pair — the lock fast path plus the simulated
// machine's contention bookkeeping.
const benchLockSrc = `
extern work(n: int) cost 0;
class Acc { sum: float; }
func add(ms: Acc, cnt: int) {
  for i in 0..cnt {
    work(40);
    ms.sum = ms.sum + 1.0;
  }
}
func main() {
  let a: Acc = new Acc();
  add(a, 4000);
  print a.sum;
}
`

func BenchmarkLockOps(b *testing.B) {
	c := compile(b, benchLockSrc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(c.Parallel, Options{Procs: 4, Policy: "original"})
		if err != nil {
			b.Fatal(err)
		}
		if res.Counters.Acquires == 0 {
			b.Fatal("lock benchmark executed no acquires")
		}
	}
}
