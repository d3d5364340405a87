package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"ximd/internal/fabric"
	"ximd/internal/runner"
	"ximd/internal/serve"
)

// fleetSweep is one synchronous sweep of a fleet pass.
type fleetSweep struct {
	name   string
	req    serve.SweepRequest
	want   int32
	cycles uint64 // fixed by the first measured pass
}

// fleetSetup is a running fleet — ximdc over two ximdd, all started
// with -archive — and its prepared sweeps.
type fleetSetup struct {
	dir       string
	workers   []*daemon
	coord     *daemon
	progs     []*jobProgram
	sweeps    []*fleetSweep
	compileMS float64
}

func (f *fleetSetup) close() {
	if f == nil {
		return
	}
	f.coord.stop()
	for _, w := range f.workers {
		w.stop()
	}
	_ = os.RemoveAll(f.dir) // scratch state; a leftover directory is harmless
}

func (f *fleetSetup) daemons() []*daemon { return append([]*daemon{f.coord}, f.workers...) }

// fleetSweeps plans one pass: 32 short jobs and 16 medium jobs, each
// idealized and injected, 16 short VLIW jobs, and 2 long jobs that each
// cross one default checkpoint interval (2^23 cycles). Every sweep uses
// its own program, so routing spreads them by digest.
func fleetSweeps(r *rand.Rand, progs []*jobProgram, cpi float64, seedBase int64) []*fleetSweep {
	seeds := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = seedBase + int64(i)
		}
		return s
	}
	both := []string{"", latInject}
	specs := []struct {
		name    string
		arch    runner.Arch
		cycles  float64
		seeds   int
		injects []string
	}{
		{"short", runner.ArchXIMD, 20_000, 32, both},
		{"medium", runner.ArchXIMD, 300_000, 16, both},
		{"vliw-short", runner.ArchVLIW, 20_000, 8, both},
		{"long", runner.ArchXIMD, 9_000_000, 2, nil},
	}
	var out []*fleetSweep
	for i, s := range specs {
		p := progs[i]
		n := int32(s.cycles / cpi)
		table := randTable(r)
		out = append(out, &fleetSweep{
			name: s.name,
			req:  serve.SweepRequest{Base: p.request(s.arch, n, table, 0, ""), Seeds: seeds(s.seeds), Injects: s.injects},
			want: p.expect(n, table),
		})
	}
	return out
}

// setupFleet starts two durable workers and a coordinator over them,
// waits until both workers are leased and ready, compiles the programs
// and warms every worker cache the pass will route to.
func setupFleet(ctx context.Context, cfg *config, c *client, rep int) (_ *fleetSetup, err error) {
	f := &fleetSetup{dir: filepath.Join(cfg.work, fmt.Sprintf("run-%d-fleet-%d", os.Getpid(), rep))}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	if err := os.RemoveAll(f.dir); err != nil {
		return nil, err
	}
	bin := filepath.Join(cfg.work, "bin")
	var workerArgs []string
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("w%d", i)
		state := filepath.Join(f.dir, name)
		if err := os.MkdirAll(state, 0o755); err != nil {
			return nil, err
		}
		w, err := startDaemon(filepath.Join(bin, "ximdd"), "ximdd-"+name, f.dir, "-archive", state)
		if err != nil {
			return nil, err
		}
		f.workers = append(f.workers, w)
		workerArgs = append(workerArgs, "-worker", w.url())
	}
	coordState := filepath.Join(f.dir, "coord")
	if err := os.MkdirAll(coordState, 0o755); err != nil {
		return nil, err
	}
	args := append(workerArgs, "-heartbeat", "100ms", "-archive", coordState)
	if f.coord, err = startDaemon(filepath.Join(bin, "ximdc"), "ximdc", f.dir, args...); err != nil {
		return nil, err
	}
	if err := waitFleet(ctx, c, f.coord.url(), len(f.workers)); err != nil {
		return nil, err
	}

	for i := 0; i < 4; i++ {
		p, err := compileJobProgram(int32(41+2*i), int32(555_555+7_919*i))
		if err != nil {
			return nil, err
		}
		f.progs = append(f.progs, p)
		f.compileMS += p.compileMS
	}
	cpi, err := cyclesPerIter(f.progs[0])
	if err != nil {
		return nil, err
	}
	f.sweeps = fleetSweeps(rand.New(rand.NewSource(cfg.seed)), f.progs, cpi, cfg.seed*1000)

	// Warm-up: one small job of every sweep's program and architecture.
	table := make([]int32, tableLen)
	for i, sw := range f.sweeps {
		warm := &fleetSweep{
			name: "warm-" + sw.name,
			req:  serve.SweepRequest{Base: f.progs[i].request(runner.Arch(sw.req.Base.Arch), 256, table, 0, "")},
			want: f.progs[i].expect(256, table),
		}
		st := &tally{}
		if _, _, err := runFleetSweep(ctx, c, f.coord.url(), warm, st, nil); err != nil {
			return nil, err
		}
		if st.failed > 0 {
			return nil, fmt.Errorf("warm-up sweep: %v", st.msgs)
		}
	}
	return f, nil
}

// waitFleet waits for the coordinator's /readyz and for every worker to
// show as ready in GET /v1/fleet.
func waitFleet(ctx context.Context, c *client, base string, workers int) error {
	if err := waitReady(ctx, c, base); err != nil {
		return err
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		var fr fabric.FleetResponse
		if _, err := c.get(ctx, base+"/v1/fleet", &fr); err == nil {
			ready := 0
			for _, w := range fr.Workers {
				if w.State == "ready" {
					ready++
				}
			}
			if ready == workers {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("fleet at %s: %d workers not all ready after 20s", base, workers)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// runFleetSweep sends one synchronous sweep to the coordinator and
// checks every variant's out[0]. With tracing, the request carries a
// bench span the coordinator adopts, and the fleet-wide tree is
// imported afterwards. It returns the request latency and the
// variants' total cycles.
func runFleetSweep(ctx context.Context, c *client, base string, sw *fleetSweep, st *tally, tr *tracing) (float64, uint64, error) {
	root := tr.root("sweep")
	root.SetAttr("sweep", sw.name)
	var resp serve.SweepResponse
	start := time.Now()
	status, _, err := c.do(ctx, http.MethodPost, base+"/v1/sweeps", sw.req, root, &resp)
	latency := sinceMS(start)
	root.Finish()
	if err != nil {
		if ctx.Err() != nil {
			return 0, 0, ctx.Err()
		}
		st.fail("sweep %s: %v", sw.name, err)
		return latency, 0, nil
	}
	if status != http.StatusOK {
		st.fail("sweep %s: status %d", sw.name, status)
		return latency, 0, nil
	}
	var cycles uint64
	for _, v := range resp.Results {
		switch {
		case v.Error != "":
			st.fail("sweep %s %s: %s", sw.name, v.Name, v.Error)
		default:
			if err := checkPeek(v.Result, sw.want); err != nil {
				st.fail("sweep %s %s: %v", sw.name, v.Name, err)
				continue
			}
			cycles += v.Result.Cycles
			st.ok()
		}
	}
	if want := max(len(sw.req.Seeds), 1) * max(len(sw.req.Injects), 1); len(resp.Results) != want {
		st.fail("sweep %s: %d results, want %d", sw.name, len(resp.Results), want)
	}
	if sw.cycles != 0 && cycles != sw.cycles {
		st.fail("sweep %s: %d cycles, the first pass took %d", sw.name, cycles, sw.cycles)
	}
	if tr != nil {
		spans, err := c.fetchTrace(ctx, base, root.TraceID)
		if err != nil {
			return latency, cycles, fmt.Errorf("fetch sweep trace: %w", err)
		}
		tr.importSpans(spans)
	}
	return latency, cycles, nil
}

// fleetPass accumulates fleet passes.
type fleetPass struct {
	tally
	latencyMS  []float64
	passCycles []float64
}

// run executes one pass: the four sweeps, one after the other.
func (p *fleetPass) run(ctx context.Context, c *client, f *fleetSetup, tr *tracing) error {
	var total uint64
	for _, sw := range f.sweeps {
		lat, cycles, err := runFleetSweep(ctx, c, f.coord.url(), sw, &p.tally, tr)
		if err != nil {
			return err
		}
		if sw.cycles == 0 {
			sw.cycles = cycles
		}
		p.latencyMS = append(p.latencyMS, lat)
		total += cycles
	}
	p.passCycles = append(p.passCycles, float64(total))
	return nil
}

// scrape returns the Prometheus exposition of each daemon, in order.
func scrape(ctx context.Context, c *client, ds []*daemon) ([]string, error) {
	var out []string
	for _, d := range ds {
		b, err := c.getBody(ctx, d.url()+"/metrics")
		if err != nil {
			return nil, err
		}
		out = append(out, string(b))
	}
	return out, nil
}

// delta is a counter's increase between two scrapes of the same daemon.
func delta(before, after, name string) float64 {
	return metricValue(after, name) - metricValue(before, name)
}

// fleetHeldPasses is the pass after which the memory the fleet holds is
// read. The daemons keep every finished job in memory, so what they
// hold grows with the jobs run; reading it after a fixed amount of work
// keeps a faster fleet from being charged for having run more jobs.
const fleetHeldPasses = 8

// runFleet is the fleet workload: one client in a closed loop, each
// pass four synchronous sweeps through ximdc.
func runFleet(ctx context.Context, cfg *config) (*result, error) {
	res := newResult("fleet")
	c := newClient()
	defer c.close()
	var f *fleetSetup
	defer func() { f.close() }()
	var compileMS []float64
	setupS, err := medianSetup(func(last bool) (time.Duration, error) {
		start := time.Now()
		fs, err := setupFleet(ctx, cfg, c, len(compileMS))
		if err != nil {
			return 0, err
		}
		d := time.Since(start)
		compileMS = append(compileMS, fs.compileMS)
		if last {
			f = fs
		} else {
			fs.close()
		}
		return d, nil
	})
	if err != nil {
		return nil, err
	}

	first, err := scrape(ctx, c, f.daemons())
	if err != nil {
		return nil, err
	}
	meas := &fleetPass{}
	var held *daemonMem
	readHeld := func() error {
		m, err := readDaemonMem(ctx, c, f.daemons(), true)
		held = &m
		return err
	}
	walls, err := closedLoop(ctx, cfg.seconds, func() error {
		if err := meas.run(ctx, c, f, nil); err != nil {
			return err
		}
		if len(meas.passCycles) != fleetHeldPasses {
			return nil
		}
		return readHeld()
	})
	if err != nil {
		return nil, err
	}
	if held == nil {
		if err := readHeld(); err != nil {
			return nil, err
		}
	}
	if res.layer["mem.peak_rss_mb"], err = sumPeakRSSMB(f.daemons()); err != nil {
		return nil, err
	}
	res.add(&meas.tally)
	res.e2e = map[string]float64{
		"setup_s":           setupS,
		"host_ns_per_cycle": medianPerCycle(walls, meas.passCycles),
		"runs_per_s":        float64(meas.attempted) / float64(len(walls)) / median(walls),
		"job_p50_ms":        median(meas.latencyMS),
		"job_p95_ms":        windowedQuantile(meas.latencyMS, 0.95),
		"heap_live_mb":      held.heapAllocMB,
		"sim_cycles":        median(meas.passCycles),
	}
	if !cfg.trace {
		return res, nil
	}

	tr := newTracing()
	before, err := scrape(ctx, c, f.daemons())
	if err != nil {
		return nil, err
	}
	mem0, err := readDaemonMem(ctx, c, f.daemons(), false)
	if err != nil {
		return nil, err
	}
	traced := &fleetPass{}
	tracedWalls, err := closedLoop(ctx, cfg.tracedLen(), func() error { return traced.run(ctx, c, f, tr) })
	if err != nil {
		return nil, err
	}
	after, err := scrape(ctx, c, f.daemons())
	if err != nil {
		return nil, err
	}
	mem1, err := readDaemonMem(ctx, c, f.daemons(), false)
	if err != nil {
		return nil, err
	}
	var fleet fabric.FleetResponse
	if _, err := c.get(ctx, f.coord.url()+"/v1/fleet", &fleet); err != nil {
		return nil, err
	}
	res.add(&traced.tally)

	spans, err := finishTrace(cfg, "fleet", tr)
	if err != nil {
		return nil, err
	}
	ix := indexSpans(spans)
	l := res.layer
	serveLayers(ix, l)
	l["compiler.compile_ms"] = median(compileMS)
	var self, overhead []float64
	for _, sp := range ix.named("sweep", "ximdc") {
		self = append(self, ix.selfMS(sp))
	}
	placements := ix.named("placement", "ximdc")
	for _, pl := range placements {
		for _, sp := range ix.children[pl.SpanID] {
			if sp.Service == "ximdd" && sp.Name == "job" {
				overhead = append(overhead, pl.Ms-sp.Ms)
			}
		}
	}
	l["fabric.request_self_ms.p50"] = median(self)
	l["fabric.placement_ms.p50"] = median(ms(placements))
	l["fabric.completion_overhead_ms.p50"] = median(overhead)
	l["fabric.completion_overhead_ms.p99"] = quantile(overhead, 0.99)
	l["fabric.poll_p50_ms"], l["fabric.poll_p99_ms"] = fleet.PollP50MS, fleet.PollP99MS
	hits := delta(before[0], after[0], "ximdc_affinity_hits_total")
	spills := delta(before[0], after[0], "ximdc_affinity_spills_total")
	if hits+spills > 0 {
		l["fabric.affinity_hit_rate"] = hits / (hits + spills)
	}
	l["fabric.requeued"] = delta(first[0], after[0], "ximdc_jobs_requeued_total")
	l["fabric.stolen"] = delta(first[0], after[0], "ximdc_jobs_stolen_total")
	if routed := delta(before[0], after[0], "ximdc_jobs_routed_total"); routed > 0 {
		l["fabric.useful_attempt_frac"] = delta(before[0], after[0], "ximdc_jobs_done_total") / routed
	}
	var writes float64
	for i := 1; i < len(after); i++ {
		writes += delta(before[i], after[i], "ximdd_checkpoint_writes_total")
	}
	l["ckpt.writes"] = writes / float64(len(tracedWalls))
	l["mem.alloc_mb_per_run"] = (mem1.totalAllocMB - mem0.totalAllocMB) / float64(max(traced.attempted, 1))
	l["runtime.gc_cpu_frac"] = mem1.gcCPUFrac
	tracedRate := float64(traced.attempted) / float64(len(tracedWalls)) / median(tracedWalls)
	l["obs.trace_overhead_frac"] = res.e2e["runs_per_s"]/tracedRate - 1
	if l["core.fusible_word_frac"], err = jobFusibleFrac(f.progs); err != nil {
		return nil, err
	}
	return res, nil
}
