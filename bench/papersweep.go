package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"ximd/internal/core"
	"ximd/internal/isa"
	"ximd/internal/obs"
	"ximd/internal/sweep"
	"ximd/internal/workloads"
)

// suiteTask is one task of the paper suite.
type suiteTask struct {
	task   sweep.Task
	arch   string
	cycles uint64 // fixed by the warm-up pass
}

// paperSuiteSet is the suite's tasks plus the distinct XIMD programs
// they run.
type paperSuiteSet struct {
	tasks []*suiteTask
	progs []*isa.Program
}

// paperSuite builds the paper's experiment suite as sweep tasks, the
// shape xbench runs: the Section 4.1 XIMD/VLIW pairs, the LL12 n-sweep,
// the bitcount density ablation (barrier vs padded), IOPORTS seeds and
// the partial barrier. The seed draws the data of every kernel whose
// cycle count does not depend on it, and picks the IOPORTS arrival
// seeds; the ablation data stays fixed, as in xbench.
func paperSuite(seed int64) *paperSuiteSet {
	r := rand.New(rand.NewSource(seed))
	vals := func(n, lo, hi int) []int32 {
		v := make([]int32, n)
		for i := range v {
			v[i] = int32(lo + r.Intn(hi-lo))
		}
		return v
	}
	set := &paperSuiteSet{}
	add := func(insts ...*workloads.Instance) {
		for _, inst := range insts {
			set.tasks = append(set.tasks, &suiteTask{task: sweep.XIMD(inst), arch: "ximd"})
			set.progs = append(set.progs, inst.XIMD)
		}
	}
	pair := func(inst *workloads.Instance) {
		add(inst)
		set.tasks = append(set.tasks, &suiteTask{task: sweep.VLIW(inst), arch: "vliw"})
	}

	// Section 4.1 XIMD vs VLIW pairs.
	tp := vals(4, 1, 10)
	pair(workloads.TPROC(tp[0], tp[1], tp[2], tp[3]))
	pair(workloads.LL12(vals(129, 0, 1013)))
	yv, zv, uv := vals(144, -100, 100), vals(144, -100, 100), vals(144, -100, 100)
	lp := workloads.LivermoreParams{N: 128, Q: 5, R: 3, T: -2}
	pair(workloads.LL1(yv, zv, lp))
	pair(workloads.LL3(yv, zv, 128))
	pair(workloads.LL7(yv, zv, uv, lp))
	pair(workloads.MinMax(fixedData(7, 128, func(r *rand.Rand) int32 { return int32(r.Intn(100000) - 50000) })))
	pair(workloads.Bitcount(fixedData(9, 32, func(r *rand.Rand) int32 { return int32(r.Uint32()) })))

	// LL12 n-sweep, pipelined vs scalar.
	for _, n := range []int{8, 32, 128, 512} {
		y := vals(n+1, 0, 1013)
		add(workloads.LL12(y), workloads.LL12Scalar(y))
	}

	// Bitcount density ablation: equal-length padding vs ALL-SS barrier.
	for _, gen := range []func(*rand.Rand) int32{
		func(r *rand.Rand) int32 { return int32(r.Intn(8)) },
		func(r *rand.Rand) int32 { return int32(r.Intn(1 << 16)) },
		func(r *rand.Rand) int32 { return int32(r.Uint32() | 0x80000000) },
	} {
		data := fixedData(23, 24, gen)
		add(workloads.Bitcount(data), workloads.BitcountPadded(data))
	}

	// IOPORTS: sync-bit, memory-flag and VLIW-style polling, overhead regime.
	for i := int64(0); i < 10; i++ {
		s := seed*10 + i
		add(workloads.IOPorts(workloads.IOPortsSS, s, 1, 8),
			workloads.IOPorts(workloads.IOPortsFlags, s, 1, 8),
			workloads.IOPorts(workloads.IOPortsVLIW, s, 1, 8))
	}

	// Partial vs full barriers.
	add(workloads.PartialBarrier(2, 40, 40, 2), workloads.PartialBarrierFull(2, 40, 40, 2))
	return set
}

// fixedData draws n values from a fixed seed: inputs whose cycle count
// depends on the data, kept seed-independent like xbench's.
func fixedData(seed int64, n int, gen func(*rand.Rand) int32) []int32 {
	r := rand.New(rand.NewSource(seed))
	v := make([]int32, n)
	for i := range v {
		v[i] = gen(r)
	}
	return v
}

// fusibleFrac is the fusible share of the suite's XIMD instruction
// words.
func (set *paperSuiteSet) fusibleFrac() (float64, error) {
	var words, fusible int
	for _, prog := range set.progs {
		d, err := core.Predecode(prog)
		if err != nil {
			return 0, err
		}
		words += len(prog.Instrs)
		fusible += d.FusibleWords()
	}
	return float64(fusible) / float64(words), nil
}

// suitePass accumulates sweep passes.
type suitePass struct {
	tally
	taskCycles []uint64 // of the latest pass, in task order
}

func (p *suitePass) cycles() uint64 {
	var c uint64
	for _, n := range p.taskCycles {
		c += n
	}
	return c
}

// run executes the suite once through sweep.Run with one worker per
// GOMAXPROCS. With a parent span every task runs inside a child span.
func (p *suitePass) run(ctx context.Context, suite []*suiteTask, parent *obs.Span) error {
	tasks := make([]sweep.Task, len(suite))
	for i, st := range suite {
		tasks[i] = st.task
		if parent != nil {
			inner, arch := st.task.Run, st.arch
			tasks[i].Run = func(ctx context.Context) (sweep.Outcome, error) {
				sp := parent.Child("task")
				sp.SetAttr("arch", arch)
				out, err := inner(ctx)
				sp.SetAttrInt("cycles", out.Cycles)
				sp.Finish()
				return out, err
			}
		}
	}
	results, _ := sweep.Run(ctx, tasks, sweep.Options{Workers: runtime.GOMAXPROCS(0)})
	if err := ctx.Err(); err != nil {
		return err
	}
	p.taskCycles = p.taskCycles[:0]
	for i, r := range results {
		st := suite[i]
		p.taskCycles = append(p.taskCycles, r.Cycles)
		switch {
		case r.Err != nil:
			p.fail("%s: %v", r.Name, r.Err)
		case st.cycles != 0 && r.Cycles != st.cycles:
			p.fail("%s: %d cycles, the warm-up pass took %d", r.Name, r.Cycles, st.cycles)
		default:
			p.ok()
		}
	}
	return nil
}

// runPaperSweep is the paper-sweep workload: a closed loop of sweep.Run
// passes over the paper's suite.
func runPaperSweep(ctx context.Context, cfg *config) (*result, error) {
	res := newResult("paper-sweep")
	var set *paperSuiteSet
	setupS, err := medianSetup(func(bool) (time.Duration, error) {
		start := time.Now()
		s := paperSuite(cfg.seed)
		warm := &suitePass{}
		if err := warm.run(ctx, s.tasks, nil); err != nil {
			return 0, err
		}
		if warm.failed > 0 {
			return 0, fmt.Errorf("warm-up pass: %v", warm.msgs)
		}
		for i, c := range warm.taskCycles {
			s.tasks[i].cycles = c
		}
		set = s
		return time.Since(start), nil
	})
	if err != nil {
		return nil, err
	}

	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	meas := &suitePass{}
	var passCycles []float64
	walls, err := closedLoop(ctx, cfg.seconds, func() error {
		if err := meas.run(ctx, set.tasks, nil); err != nil {
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
		"runs_per_s":        float64(meas.attempted) / float64(len(walls)) / median(walls),
		"job_p50_ms":        median(scaled(walls, 1000)),
		"job_p95_ms":        windowedQuantile(scaled(walls, 1000), 0.95),
		"heap_live_mb":      liveHeapMB(),
		"sim_cycles":        median(passCycles),
	}
	if !cfg.trace {
		return res, nil
	}

	tr := newTracing()
	traced := &suitePass{}
	var rt runtimeSample
	tracedWalls, err := closedLoop(ctx, cfg.tracedLen(), func() error {
		parent := tr.root("sweep.Run")
		defer parent.Finish()
		return rt.measure(func() error { return traced.run(ctx, set.tasks, parent) })
	})
	if err != nil {
		return nil, err
	}
	res.add(&traced.tally)

	spans, err := finishTrace(cfg, "paper-sweep", tr)
	if err != nil {
		return nil, err
	}
	ix := indexSpans(spans)
	tasks := ix.named("task", "bench")
	taskUS := scaled(ms(tasks), 1000)
	var vliwUS []float64
	for _, sp := range tasks {
		if sp.Attrs["arch"] == "vliw" {
			vliwUS = append(vliwUS, sp.Ms*1000)
		}
	}
	l := res.layer
	l["sweep.task_us.p50"] = median(taskUS)
	l["sweep.task_us.p99"] = quantile(taskUS, 0.99)
	l["vliw.task_us.p50"] = median(vliwUS)
	l["sweep.busy_frac"] = sum(taskUS) / 1000 / (sum(ms(ix.named("sweep.Run", "bench"))) * float64(runtime.GOMAXPROCS(0)))
	l["mem.alloc_mb_per_run"], l["runtime.gc_cpu_frac"] = rt.perRun(traced.attempted)
	if l["core.fusible_word_frac"], err = set.fusibleFrac(); err != nil {
		return nil, err
	}
	tracedRate := float64(traced.attempted) / float64(len(tracedWalls)) / median(tracedWalls)
	l["obs.trace_overhead_frac"] = res.e2e["runs_per_s"]/tracedRate - 1
	return res, nil
}
