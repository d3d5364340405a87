package main

import (
	"context"
	"embed"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ximd/internal/asm"
	"ximd/internal/compiler"
	"ximd/internal/hostcfg"
	"ximd/internal/mem"
	"ximd/internal/obs"
	"ximd/internal/runner"
)

//go:embed kernels/*.mc
var kernelSources embed.FS

// latInject is the fault spec of every latency-injected run.
const latInject = "lat=uniform:0:4"

// kernel is one minic kernel, compiled twice from the same source: at
// width 8 with unroll 4 for the idealized run (long straight-line
// stretches the core engine fuses), and at width 1 for the run under
// latInject. A one-FU program is the only compiled form that stays
// correct under per-FU load stalls; a width-8 schedule assumes lockstep
// issue and faults on the first desynchronised register write.
type kernel struct {
	name           string
	ideal, lat     *runner.Program
	words, fusible int // instruction words and fusible words of the width-8 program
	pokes          []hostcfg.MemPoke
	check          func(*mem.Shared) error
	cycles         [2]uint64 // idealized and injected cycles, fixed by the warm-up pass
}

// kernelIO is a kernel's seeded input and its Go reference.
type kernelIO struct {
	inputs map[string][]int32
	// check compares the memory image with the reference; peek returns
	// a global's values.
	check func(peek func(name string) []int32) error
}

// kernelData draws a kernel's inputs and computes its reference.
func kernelData(name string, r *rand.Rand) kernelIO {
	ints := func(n int, lo, hi int32) []int32 {
		v := make([]int32, n)
		for i := range v {
			v[i] = lo + int32(r.Int63n(int64(hi)-int64(lo)))
		}
		return v
	}
	switch name {
	case "arith":
		var s int32
		for i := int32(0); i < 100000; i++ {
			s = s + i*3 - (i >> 1)
		}
		return kernelIO{check: func(peek func(string) []int32) error {
			return equalInts("out", peek("out"), []int32{s})
		}}
	case "fir":
		x, h := ints(4111, -1000, 1000), ints(16, -100, 100)
		y := make([]int32, 4096)
		for i := range y {
			for k := range h {
				y[i] += h[k] * x[i+k]
			}
		}
		return kernelIO{inputs: map[string][]int32{"x": x, "h": h}, check: func(peek func(string) []int32) error {
			return equalInts("y", peek("y"), y)
		}}
	case "transpose":
		a := ints(256*256, -1<<30, 1<<30)
		b := make([]int32, len(a))
		for i := 0; i < 256; i++ {
			for j := 0; j < 256; j++ {
				b[j*256+i] = a[i*256+j]
			}
		}
		return kernelIO{inputs: map[string][]int32{"a": a}, check: func(peek func(string) []int32) error {
			return equalInts("b", peek("b"), b)
		}}
	case "reduce":
		a := ints(32768, -1<<20, 1<<20)
		var s, x int32
		lo, hi := a[0], a[0]
		for _, v := range a {
			s, x = s+v, x^v
			lo, hi = min(lo, v), max(hi, v)
		}
		return kernelIO{inputs: map[string][]int32{"a": a}, check: func(peek func(string) []int32) error {
			return equalInts("out", peek("out"), []int32{s, x, lo, hi})
		}}
	case "stencil":
		g := ints(4096, 0, 1<<16)
		in := append([]int32(nil), g...)
		h := make([]int32, 4096)
		step := func(dst, src []int32) {
			for c := 64; c < 4032; c++ {
				dst[c] = (4*src[c] + src[c-1] + src[c+1] + src[c-64] + src[c+64]) >> 3
			}
		}
		for t := 0; t < 4; t++ {
			step(h, g)
			step(g, h)
		}
		return kernelIO{inputs: map[string][]int32{"g": in}, check: func(peek func(string) []int32) error {
			if err := equalInts("g", peek("g"), g); err != nil {
				return err
			}
			return equalInts("h", peek("h"), h)
		}}
	case "bitonic":
		a := ints(1024, 0, 1<<20)
		sorted := append([]int32(nil), a...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		return kernelIO{inputs: map[string][]int32{"a": a}, check: func(peek func(string) []int32) error {
			return equalInts("a", peek("a"), sorted)
		}}
	}
	panic("bench: no reference for kernel " + name)
}

func equalInts(name string, got, want []int32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d values, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s[%d] = %d, want %d", name, i, got[i], want[i])
		}
	}
	return nil
}

// kernelSetup is what one set-up of the kernels workload measured.
type kernelSetup struct {
	kernels   []*kernel
	compileMS float64   // total compile time
	loadUS    []float64 // each runner.Load
}

// setupKernels compiles, loads and seeds every kernel, then runs one
// warm-up pass that fixes each run's expected cycle count.
func setupKernels(ctx context.Context, seed int64) (*kernelSetup, error) {
	ks := &kernelSetup{}
	for i, name := range kernelNames {
		src, err := kernelSources.ReadFile("kernels/" + name + ".mc")
		if err != nil {
			return nil, err
		}
		k := &kernel{name: name}
		var syms *compiler.SymTab
		for _, width := range []int{8, 1} {
			start := time.Now()
			c, err := compiler.Compile(string(src), compiler.Options{Width: width, Unroll: 4})
			ks.compileMS += sinceMS(start)
			if err != nil {
				return nil, fmt.Errorf("kernel %s width %d: %w", name, width, err)
			}
			start = time.Now()
			prog, err := runner.Load(runner.ArchXIMD, []byte(asm.Format(c.Prog)))
			ks.loadUS = append(ks.loadUS, sinceMS(start)*1000)
			if err != nil {
				return nil, fmt.Errorf("kernel %s width %d: %w", name, width, err)
			}
			if width == 8 {
				k.ideal, syms = prog, c.Syms
				k.words, k.fusible = len(c.Prog.Instrs), prog.FusibleWords()
			} else {
				k.lat = prog
			}
		}
		kio := kernelData(name, rand.New(rand.NewSource(seed*1000+int64(i))))
		for _, g := range sortedKeys(kio.inputs) {
			sym, ok := syms.Lookup(g)
			if !ok {
				return nil, fmt.Errorf("kernel %s has no global %q", name, g)
			}
			k.pokes = append(k.pokes, hostcfg.MemPoke{Base: sym.Addr, Vals: kio.inputs[g]})
		}
		k.check = func(m *mem.Shared) error {
			return kio.check(func(g string) []int32 {
				sym, ok := syms.Lookup(g)
				if !ok {
					return nil
				}
				return m.PeekInts(sym.Addr, int(sym.Size))
			})
		}
		ks.kernels = append(ks.kernels, k)
	}
	warm := &kernelPass{}
	if err := warm.run(ctx, ks.kernels, seed, nil); err != nil {
		return nil, err
	}
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up pass: %v", warm.msgs)
	}
	for i, k := range ks.kernels {
		k.cycles = [2]uint64{warm.runCycles[2*i], warm.runCycles[2*i+1]}
	}
	return ks, nil
}

// kernelPass accumulates the runs of kernel passes.
type kernelPass struct {
	tally
	runMS     []float64 // every runner.Run
	runCycles []uint64  // cycles of the latest pass, in run order
}

// run executes one pass: every kernel idealized, then injected, each
// checked against its reference and its expected cycle count. With a
// parent span, each runner.Run gets a child span that the runner hangs
// its build and run phases under.
func (p *kernelPass) run(ctx context.Context, ks []*kernel, seed int64, parent *obs.Span) error {
	p.runCycles = p.runCycles[:0]
	for _, k := range ks {
		for mode, prog := range []*runner.Program{k.ideal, k.lat} {
			spec := runner.Spec{MemPokes: k.pokes}
			label := "ideal"
			if mode == 1 {
				spec.Inject, spec.Seed, label = latInject, seed, "lat"
			}
			sp := parent.Child("runner.Run")
			sp.SetAttr("kernel", k.name)
			sp.SetAttr("mode", label)
			start := time.Now()
			res, err := runner.Run(ctx, prog, spec, runner.Options{Span: sp})
			p.runMS = append(p.runMS, sinceMS(start))
			sp.SetAttrInt("cycles", res.Cycles)
			sp.Finish()
			if ctx.Err() != nil {
				return ctx.Err()
			}
			p.runCycles = append(p.runCycles, res.Cycles)
			switch {
			case err != nil:
				p.fail("%s/%s: %v", k.name, label, err)
			case k.cycles[mode] != 0 && res.Cycles != k.cycles[mode]:
				p.fail("%s/%s: %d cycles, the warm-up pass took %d", k.name, label, res.Cycles, k.cycles[mode])
			default:
				if err := k.check(res.Memory); err != nil {
					p.fail("%s/%s: %v", k.name, label, err)
				} else {
					p.ok()
				}
			}
		}
	}
	return nil
}

func (p *kernelPass) cycles() uint64 {
	var c uint64
	for _, n := range p.runCycles {
		c += n
	}
	return c
}

// runKernels is the kernels workload: a closed loop of one driver
// goroutine, each pass running the six kernels idealized and injected.
func runKernels(ctx context.Context, cfg *config) (*result, error) {
	res := newResult("kernels")
	var ks *kernelSetup
	var compileMS, loadUS []float64
	setupS, err := medianSetup(func(bool) (time.Duration, error) {
		start := time.Now()
		s, err := setupKernels(ctx, cfg.seed)
		if err != nil {
			return 0, err
		}
		ks = s
		compileMS = append(compileMS, s.compileMS)
		loadUS = append(loadUS, s.loadUS...)
		return time.Since(start), nil
	})
	if err != nil {
		return nil, err
	}

	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	meas := &kernelPass{}
	var passCycles []float64
	walls, err := closedLoop(ctx, cfg.seconds, func() error {
		if err := meas.run(ctx, ks.kernels, cfg.seed, nil); err != nil {
			return err
		}
		passCycles = append(passCycles, float64(meas.cycles()))
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.add(&meas.tally)
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	res.layer["mem.peak_rss_mb"] = rss
	res.e2e = map[string]float64{
		"setup_s":           setupS,
		"host_ns_per_cycle": medianPerCycle(walls, passCycles),
		"runs_per_s":        float64(len(meas.runMS)) / float64(len(walls)) / median(walls),
		"job_p50_ms":        median(meas.runMS),
		"job_p95_ms":        windowedQuantile(meas.runMS, 0.95),
		"heap_live_mb":      liveHeapMB(),
		"sim_cycles":        median(passCycles),
	}
	if !cfg.trace {
		return res, nil
	}

	tr := newTracing()
	traced := &kernelPass{}
	var tracedCycles []float64
	var rt runtimeSample
	tracedWalls, err := closedLoop(ctx, cfg.tracedLen(), func() error {
		parent := tr.root("pass")
		defer parent.Finish()
		err := rt.measure(func() error { return traced.run(ctx, ks.kernels, cfg.seed, parent) })
		tracedCycles = append(tracedCycles, float64(traced.cycles()))
		return err
	})
	if err != nil {
		return nil, err
	}
	res.add(&traced.tally)

	spans, err := finishTrace(cfg, "kernels", tr)
	if err != nil {
		return nil, err
	}
	ix := indexSpans(spans)
	l := res.layer
	l["compiler.compile_ms"] = median(compileMS)
	l["runner.load_us"] = median(loadUS)
	l["runner.build_us.p50"] = median(scaled(ms(ix.named("build", "bench")), 1000))
	l["runner.run_ms.p50"] = median(ms(ix.named("run", "bench")))
	var latNS, latCycles float64
	kernNS, kernCycles := map[string]float64{}, map[string]float64{}
	for _, sp := range ix.named("run", "bench") {
		call := ix.byID[sp.ParentID]
		if call == nil {
			continue
		}
		ns, cyc := sp.Ms*1e6, float64(attrUint(sp, "cycles"))
		if call.Attrs["mode"] == "lat" {
			latNS, latCycles = latNS+ns, latCycles+cyc
		} else {
			kernNS[call.Attrs["kernel"]] += ns
			kernCycles[call.Attrs["kernel"]] += cyc
		}
	}
	for _, k := range kernelNames {
		l["core.ns_per_cycle."+k] = kernNS[k] / kernCycles[k]
	}
	l["core.ns_per_cycle.lat"] = latNS / latCycles
	var words, fusible int
	for _, k := range ks.kernels {
		words, fusible = words+k.words, fusible+k.fusible
	}
	l["core.fusible_word_frac"] = float64(fusible) / float64(words)
	l["mem.alloc_mb_per_run"], l["runtime.gc_cpu_frac"] = rt.perRun(len(traced.runMS))
	l["obs.trace_overhead_frac"] = medianPerCycle(tracedWalls, tracedCycles)/res.e2e["host_ns_per_cycle"] - 1
	return res, nil
}

// finishTrace writes a traced pass's spans to the span file and returns
// them.
func finishTrace(cfg *config, workload string, tr *tracing) ([]obs.Span, error) {
	spans, overflowed := tr.spans()
	path := filepath.Join(cfg.work, "spans", fmt.Sprintf("%s-seed%d.ndjson", workload, cfg.seed))
	if err := writeNDJSON(path, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.out, "  traced pass: %d spans written to %s\n", len(spans), path)
	if overflowed {
		fmt.Fprintf(cfg.out, "  traced pass: span store full; the oldest spans were dropped\n")
	}
	return spans, nil
}
