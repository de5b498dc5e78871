package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// The speed of a shared virtual machine drifts by tens of percent over
// seconds to minutes, with other guests taking the processors or sharing
// their cores (README.md, Steadiness). perfbench therefore reports every
// end-to-end time on a reference host: around each pass and each set-up it
// times refKernel, fixed work that shares no code with the program, and
// scales the wall time by refNominal over the mean of the kernel's two
// times around it. The raw wall times are reported too, as per-layer
// metrics and in the details.

// refNominal is the kernel's time on the reference host. It is about the
// kernel's median on a 2-vCPU virtual machine, so there scaled times are
// of the size of wall times.
const refNominal = 30 * time.Millisecond

// refKernel runs the reference work on two goroutines at once, one per
// processor, and returns the wall time both took.
func refKernel() time.Duration {
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			refSink.Add(refWork())
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// refSink keeps the compiler from discarding the reference work.
var refSink atomic.Int64

// refWork is the kind of work the simulator does, without its code: a
// switch-dispatch loop over a register file, map updates, and a walk
// through a permutation too large for the first-level caches.
func refWork() int64 {
	rng := rand.New(rand.NewSource(1))
	code := make([]byte, 4096)
	for i := range code {
		code[i] = byte(rng.Intn(6))
	}
	var regs [8]int64
	for i := 0; i < 1_500_000; i++ {
		r := i & 7
		switch code[i&4095] {
		case 0:
			regs[r] += int64(i)
		case 1:
			regs[r] ^= regs[(r+1)&7]
		case 2:
			regs[r] = regs[r]*3 + 1
		case 3:
			if regs[r]&1 == 0 {
				regs[r] >>= 1
			}
		case 4:
			regs[(r+3)&7] -= regs[r]
		default:
			regs[r]++
		}
	}
	m := map[int64]int64{}
	for i := int64(0); i < 40_000; i++ {
		m[(i*7919)%10007] += i
	}
	perm := rng.Perm(1 << 17)
	j := 0
	for i := 0; i < 1<<18; i++ {
		j = perm[j]
	}
	return regs[0] + int64(len(m)) + int64(j)
}

// hostSpeed holds the kernel's times: one before each timed interval and
// one after the last.
type hostSpeed struct{ ref []time.Duration }

func (h *hostSpeed) sample() { h.ref = append(h.ref, refKernel()) }

// scale converts a wall time of interval i to the reference host.
func (h *hostSpeed) scale(i int, wall float64) float64 {
	return wall * float64(refNominal) / (float64(h.ref[i]+h.ref[i+1]) / 2)
}

// msList is the kernel's times in milliseconds.
func (h *hostSpeed) msList() []float64 {
	xs := make([]float64, len(h.ref))
	for i, d := range h.ref {
		xs[i] = ms(d)
	}
	return xs
}

func (h *hostSpeed) medianMS() float64 { return median(h.msList()) }
