package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
)

// metricDef names one reported number. The lists below are the
// benchmark's contract: BENCHMARK.json at the repository root names the
// same metrics with the same units (bench_test.go checks that), and a
// run prints every one of them.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// endToEnd are the numbers a user of the simulator or the service sees.
// Each is defined on every workload; README.md gives the per-workload
// meaning of the "job" and of the host time.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"host_ns_per_cycle", "ns", "lower"},
	{"runs_per_s", "1/s", "higher"},
	{"job_p50_ms", "ms", "lower"},
	{"job_p95_ms", "ms", "lower"},
	{"heap_live_mb", "MB", "lower"},
	{"sim_cycles", "cycles", "lower"},
}

// kernelNames are the minic kernels under kernels/, in run order.
var kernelNames = []string{"arith", "fir", "transpose", "reduce", "stencil", "bitonic"}

// perLayer are the traced pass's numbers, named <module>.<metric>. A
// layer a workload never crosses reports 0 on that workload.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"compiler.compile_ms", "ms", "lower"},
		{"runner.load_us", "us", "lower"},
		{"runner.build_us.p50", "us", "lower"},
		{"runner.run_ms.p50", "ms", "lower"},
	}
	for _, k := range kernelNames {
		defs = append(defs, metricDef{"core.ns_per_cycle." + k, "ns", "lower"})
	}
	return append(defs, []metricDef{
		{"core.ns_per_cycle.lat", "ns", "lower"},
		{"core.fusible_word_frac", "ratio", "higher"},
		{"vliw.task_us.p50", "us", "lower"},
		{"sweep.task_us.p50", "us", "lower"},
		{"sweep.task_us.p99", "us", "lower"},
		{"sweep.busy_frac", "ratio", "higher"},
		{"mem.alloc_mb_per_run", "MB", "lower"},
		{"mem.peak_rss_mb", "MB", "lower"},
		{"runtime.gc_cpu_frac", "ratio", "lower"},
		{"serve.submit_ms.p50", "ms", "lower"},
		{"serve.submit_ms.p99", "ms", "lower"},
		{"serve.decode_ms.p50", "ms", "lower"},
		{"serve.cache_hit_frac", "ratio", "higher"},
		{"serve.queue_wait_ms.p50", "ms", "lower"},
		{"serve.queue_wait_ms.p99", "ms", "lower"},
		{"serve.execute_ms.p50", "ms", "lower"},
		{"serve.job_self_ms.p50", "ms", "lower"},
		{"serve.status_ms.p50", "ms", "lower"},
		{"serve.polls_per_job", "count", "lower"},
		{"serve.rejected_frac", "ratio", "lower"},
		{"serve.residual_ms.p50", "ms", "lower"},
		{"serve.residual_frac", "ratio", "lower"},
		{"serve.cpu_busy_frac", "ratio", "lower"},
		{"archive.append_ms.p50", "ms", "lower"},
		{"archive.query_ms.p50", "ms", "lower"},
		{"ckpt.writes", "count", "lower"},
		{"ckpt.save_ms.p50", "ms", "lower"},
		{"fabric.request_self_ms.p50", "ms", "lower"},
		{"fabric.placement_ms.p50", "ms", "lower"},
		{"fabric.completion_overhead_ms.p50", "ms", "lower"},
		{"fabric.completion_overhead_ms.p99", "ms", "lower"},
		{"fabric.poll_p50_ms", "ms", "lower"},
		{"fabric.poll_p99_ms", "ms", "lower"},
		{"fabric.affinity_hit_rate", "ratio", "higher"},
		{"fabric.requeued", "count", "lower"},
		{"fabric.stolen", "count", "lower"},
		{"fabric.useful_attempt_frac", "ratio", "higher"},
		{"obs.trace_overhead_frac", "ratio", "lower"},
		{"bench.late_p99_ms", "ms", "lower"},
		{"bench.fail_frac", "ratio", "lower"},
	}...)
}()

// tally counts operations and failures; safe for concurrent use, since
// the open-loop generator checks results on many goroutines.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	msgs      []string
}

// maxFailureMsgs bounds how many failure descriptions a run keeps.
const maxFailureMsgs = 8

func (t *tally) ok() {
	t.mu.Lock()
	t.attempted++
	t.mu.Unlock()
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.failed++
	if len(t.msgs) < maxFailureMsgs {
		t.msgs = append(t.msgs, fmt.Sprintf(format, args...))
	}
}

// result is one workload run: operation counts, end-to-end metrics from
// the untraced measured run, and per-layer metrics from the traced pass.
type result struct {
	workload string
	tally
	e2e   map[string]float64
	layer map[string]float64
}

func newResult(workload string) *result {
	r := &result{workload: workload, e2e: map[string]float64{}, layer: map[string]float64{}}
	for _, d := range perLayer {
		r.layer[d.name] = 0
	}
	return r
}

// add counts t's operations and failures into r.
func (r *result) add(t *tally) {
	r.attempted += t.attempted
	r.failed += t.failed
	r.msgs = append(r.msgs, t.msgs[:min(len(t.msgs), maxFailureMsgs-len(r.msgs))]...)
}

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

func (r *result) failFrac() float64 {
	if r.attempted == 0 {
		return 1
	}
	return float64(r.failed) / float64(r.attempted)
}

// finite replaces a NaN or infinite value (an empty sample) by 0, which
// JSON can carry.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// printTable writes the human-readable report of a run.
func (r *result) printTable(w io.Writer, traced bool) {
	fmt.Fprintf(w, "  %-36s %d attempted, %d failed (fail_frac %.4g)\n", "operations", r.attempted, r.failed, r.failFrac())
	for _, m := range r.msgs {
		fmt.Fprintf(w, "  FAIL %s\n", m)
	}
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", d.name, r.e2e[d.name], d.unit)
	}
	if !traced {
		return
	}
	fmt.Fprintln(w, "  -- per layer (traced pass)")
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", d.name, r.layer[d.name], d.unit)
	}
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for an empty sample. xs is not modified.
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

// medianPerCycle is the median over passes of pass wall time (seconds)
// per simulated cycle, in nanoseconds.
func medianPerCycle(walls, cycles []float64) float64 {
	per := make([]float64, len(walls))
	for i, w := range walls {
		per[i] = w * 1e9 / cycles[i]
	}
	return median(per)
}

// tailWindows is how many consecutive windows a run's latencies are cut
// into for its tail percentile.
const tailWindows = 10

// windowedQuantile cuts xs, in the order they were measured, into
// tailWindows consecutive windows and returns the median of the windows'
// q-quantiles: a tail estimate that a burst of noise from the rest of
// the host, confined to part of the run, does not carry.
func windowedQuantile(xs []float64, q float64) float64 {
	n := min(tailWindows, len(xs))
	qs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		qs = append(qs, quantile(xs[i*len(xs)/n:(i+1)*len(xs)/n], q))
	}
	return median(qs)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// quartiles returns the three cut points of statistics.quantiles(xs,
// n=4) in Python's default ("exclusive") method, the spread measure the
// comparison rules are stated in. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := n + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3), true
}
