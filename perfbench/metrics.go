package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricSpec names one reported metric and its unit. The lists below are
// the metric sections of BENCHMARK.json, in the same order; a test keeps
// the two in step.
type metricSpec struct{ name, unit string }

// endToEnd holds the metrics a user of the system sees, measured untraced.
// Every workload reports every one; what a pass and an operation are on
// each workload is stated in README.md. An operation is what the result's
// attempted and failed fields count. The times are on the reference host
// (host.go).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"pass_s", "s"},
	{"op_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer holds the single-layer metrics of a traced run. A layer the
// workload never reaches reports 0.
var perLayer = []metricSpec{
	{"bench.compile_ms", "ms"},
	{"bench.run_ms", "ms"},
	{"bench.render_ms", "ms"},
	{"bench.uncached_ms", "ms"},
	{"bench.warm_pass_ms", "ms"},
	{"oblc.parse_ms", "ms"},
	{"oblc.check_ms", "ms"},
	{"oblc.compile_ms", "ms"},
	{"oblc.ir_bytes", "count"},
	{"vm.compile_ms", "ms"},
	{"sim.steps", "count"},
	{"sim.acquires", "count"},
	{"sim.failed_acquires", "count"},
	{"sim.timer_reads", "count"},
	{"sim.virtual_s", "s"},
	{"sim.ns_per_step", "ns"},
	{"core.intervals", "count"},
	{"core.switches", "count"},
	{"simcache.hit_ratio", "ratio"},
	{"simcache.get_ms", "ms"},
	{"simcache.put_ms", "ms"},
	{"simcache.entry_bytes", "count"},
	{"serve.hit_ms", "ms"},
	{"serve.sim_ms", "ms"},
	{"serve.overhead_ms", "ms"},
	{"serve.run_p50_ms", "ms"},
	{"serve.run_p99_ms", "ms"},
	{"serve.capacity_rps", "1/s"},
	{"sample.steps", "count"},
	{"sample.exhaustive_steps", "count"},
	{"sample.step_ratio", "ratio"},
	{"sample.rollbacks", "count"},
	{"sample.skipped_iters", "count"},
	{"sample.max_rel_err", "ratio"},
	{"sample.cell_ms.barneshut", "ms"},
	{"sample.cell_ms.water", "ms"},
	{"sample.cell_ms.string", "ms"},
	{"sample.cell_ms.barneshut-crossover", "ms"},
	{"proc.pass_wall_s", "s"},
	{"proc.op_wall_p50_ms", "ms"},
	{"proc.ref_ms", "ms"},
	{"proc.alloc_mb", "MB"},
	{"proc.retained_heap_mb", "MB"},
	{"trace.overhead_pct", "%"},
	{"trace.unattributed_pct", "%"},
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs need not be sorted. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// peakRSSMB is the process's peak resident set size in MB (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// opLog collects the latencies of the untraced passes' operations, in
// milliseconds, with the pass each belongs to.
type opLog struct {
	wall []float64
	pass []int
}

func (o *opLog) add(pass int, d time.Duration) {
	o.wall = append(o.wall, ms(d))
	o.pass = append(o.pass, pass)
}

// report fills op_p50_ms on the reference host, and the wall-time median.
func (o *opLog) report(out *outcome, log *passLog) {
	scaled := make([]float64, len(o.wall))
	for k, w := range o.wall {
		scaled[k] = log.speed.scale(o.pass[k], w)
	}
	out.e2e["op_p50_ms"] = median(scaled)
	out.layer["proc.op_wall_p50_ms"] = median(o.wall)
	out.details["op_samples"] = len(o.wall)
}

// memPass measures one pass's allocation: MB allocated during the pass,
// and MB of heap still live after a collection at its end.
type memPass struct{ before runtime.MemStats }

func startMem() *memPass {
	m := &memPass{}
	runtime.ReadMemStats(&m.before)
	return m
}

// end collects garbage and returns the pass's allocated and retained MB.
// The collection also starts the next pass from a clean heap.
func (m *memPass) end() (allocMB, retainedMB float64) {
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-m.before.TotalAlloc) / (1 << 20), float64(after.HeapAlloc) / (1 << 20)
}

// passLog collects the figures of a run's timed passes.
type passLog struct {
	plain, traced   []float64 // pass wall times in seconds, untraced and traced
	plainPass       []int     // the pass number of each untraced pass
	speed           hostSpeed // the reference kernel around every pass
	alloc, retained []float64 // MB allocated during and live after each pass
	// peakMB is the peak resident set after set-up and the first pass. It
	// is taken there, not at the end, so that it does not grow with the
	// number of passes that fit the run.
	peakMB float64
}

// loop runs pass until the budget is spent, and at least cfg.minPasses
// times; pass returns the part of its time that is measured. loop starts
// another pass only while the time used plus one median pass fits the
// budget. In a traced run the passes alternate untraced and
// traced, starting untraced, so the tracing overhead is measured in the
// same process. The reference kernel runs before each pass and after the
// last; each pass starts from a freshly collected heap.
func loop(cfg config, pass func(i int, traced bool) time.Duration) *passLog {
	minPasses := max(cfg.minPasses, 1)
	if cfg.trace {
		minPasses = max(minPasses, 2)
	}
	log := &passLog{}
	start := time.Now()
	var calls []float64 // whole pass calls, for the budget
	for i := 0; ; i++ {
		if i >= minPasses && time.Since(start).Seconds()+median(calls) > cfg.budget.Seconds() {
			break
		}
		traced := cfg.trace && i%2 == 1
		log.speed.sample()
		runtime.GC()
		mem := startMem()
		t0 := time.Now()
		d := pass(i, traced).Seconds()
		calls = append(calls, time.Since(t0).Seconds())
		if i == 0 {
			log.peakMB = peakRSSMB()
		}
		a, r := mem.end()
		if traced {
			log.traced = append(log.traced, d)
		} else {
			log.plain = append(log.plain, d)
			log.plainPass = append(log.plainPass, i)
		}
		log.alloc = append(log.alloc, a)
		log.retained = append(log.retained, r)
	}
	log.speed.sample()
	return log
}

// report fills the metrics every workload derives from its pass log.
func (log *passLog) report(out *outcome) {
	scaled := make([]float64, len(log.plain))
	for k, d := range log.plain {
		scaled[k] = log.speed.scale(log.plainPass[k], d)
	}
	out.e2e["pass_s"] = median(scaled)
	out.e2e["peak_rss_mb"] = log.peakMB
	out.layer["proc.pass_wall_s"] = median(log.plain)
	out.layer["proc.ref_ms"] = log.speed.medianMS()
	out.layer["proc.alloc_mb"] = median(log.alloc)
	out.layer["proc.retained_heap_mb"] = log.retained[len(log.retained)-1]
	if len(log.traced) > 0 {
		p := median(log.plain)
		out.layer["trace.overhead_pct"] = 100 * (median(log.traced) - p) / p
	}
	out.details["passes_untraced_s"] = scaled
	out.details["passes_untraced_wall_s"] = log.plain
	out.details["ref_kernel_ms"] = log.speed.msList()
	out.details["passes_traced_s"] = log.traced
	out.details["retained_heap_mb_by_pass"] = log.retained
}

// timeSetups runs setup n times, each from a freshly collected heap with
// the reference kernel before it, and reports the median time on the
// reference host as setup_s. A set-up can be shorter than the kernel, so
// it is scaled by the median of all the kernel's times rather than by the
// two around it.
func timeSetups(out *outcome, n int, setup func() error) error {
	var speed hostSpeed
	var wall []float64
	for i := 0; i < max(n, 1); i++ {
		speed.sample()
		runtime.GC()
		t0 := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		wall = append(wall, time.Since(t0).Seconds())
	}
	speed.sample()
	out.e2e["setup_s"] = median(wall) * ms(refNominal) / speed.medianMS()
	out.details["setups_wall_s"] = wall
	out.details["setup_ref_kernel_ms"] = speed.medianMS()
	return nil
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
