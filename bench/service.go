package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ximd/internal/obs"
	"ximd/internal/runner"
	"ximd/internal/serve"
)

// The service workload's traffic: an open loop at serviceRate jobs/s,
// each job polled every pollEvery until terminal, plus archive queries
// making up a tenth of all operations.
const (
	serviceRate     = 100
	pollEvery       = 2 * time.Millisecond
	popularPrograms = 16
	popularShare    = 0.80
	vliwShare       = 0.15
	latShare        = 0.30
	minJobCycles    = 20_000
	maxJobCycles    = 400_000
	// serviceBlock is the stratum block that holds exact job-kind shares
	// (20 jobs: 4 unique, 3 VLIW, 6 injected).
	serviceBlock = 20
	// maxInflight bounds the generator's outstanding operations; an
	// operation due while the bound is reached is counted as failed.
	maxInflight = 4096
)

// serviceJob is one planned job: when it is due, what it submits, and
// the Go reference for its out[0].
type serviceJob struct {
	at   time.Duration
	req  serve.JobRequest
	want int32
}

// serviceQuery is one planned GET /v1/runs for a popular program.
type serviceQuery struct {
	at      time.Duration
	popular int
}

type servicePlan struct {
	jobs    []*serviceJob
	queries []*serviceQuery
}

// exactly returns n flags of which round(share*n) are set, in seeded
// positions, so every seed runs the same mix.
func exactly(r *rand.Rand, n int, share float64) []bool {
	flags := make([]bool, n)
	for i := 0; i < int(math.Round(share*float64(n))); i++ {
		flags[i] = true
	}
	r.Shuffle(n, func(i, j int) { flags[i], flags[j] = flags[j], flags[i] })
	return flags
}

// planService draws the jobs and queries of one open-loop run of length
// d. Job sizes are stratified over a log-uniform distribution, and every
// block of serviceBlock neighbouring strata holds the exact shares of
// unique, VLIW and injected jobs, so the work each kind of job gets
// hardly varies between seeds; the seed decides which job is which and
// the order they arrive in. uniques supplies one fresh program per
// unique job.
func planService(r *rand.Rand, d time.Duration, popular []*jobProgram, uniques func() (*jobProgram, error), cpi float64, seedBase int64) (*servicePlan, error) {
	type draw struct {
		cycles            float64
		unique, vliw, lat bool
	}
	n := int(math.Round(serviceRate * d.Seconds()))
	draws := make([]draw, n)
	for k := range draws {
		u := (float64(k) + r.Float64()) / float64(n)
		draws[k].cycles = minJobCycles * math.Pow(maxJobCycles/minJobCycles, u)
	}
	for b := 0; b < n; b += serviceBlock {
		m := min(serviceBlock, n-b)
		unique, vliw, lat := exactly(r, m, 1-popularShare), exactly(r, m, vliwShare), exactly(r, m, latShare)
		for i := 0; i < m; i++ {
			draws[b+i].unique, draws[b+i].vliw, draws[b+i].lat = unique[i], vliw[i], lat[i]
		}
	}
	r.Shuffle(n, func(i, j int) { draws[i], draws[j] = draws[j], draws[i] })
	zipf := rand.NewZipf(r, 1.1, 1, popularPrograms-1)
	plan := &servicePlan{}
	for k := 0; k < n; k++ {
		j := &serviceJob{at: time.Duration(float64(k) / serviceRate * float64(time.Second))}
		prog := popular[zipf.Uint64()]
		if draws[k].unique {
			p, err := uniques()
			if err != nil {
				return nil, err
			}
			prog = p
		}
		arch, inject := runner.ArchXIMD, ""
		if draws[k].vliw {
			arch = runner.ArchVLIW
		}
		if draws[k].lat {
			inject = latInject
		}
		iters := int32(draws[k].cycles / cpi)
		table := randTable(r)
		j.req = prog.request(arch, iters, table, seedBase+int64(k), inject)
		j.want = prog.expect(iters, table)
		plan.jobs = append(plan.jobs, j)
	}
	nq := int(math.Round(float64(n) / 9))
	for q := 0; q < nq; q++ {
		at := time.Duration((float64(q) + 0.5) / float64(nq) * float64(d))
		plan.queries = append(plan.queries, &serviceQuery{at: at, popular: int(zipf.Uint64())})
	}
	return plan, nil
}

// serviceStats collects one open-loop run's observations.
type serviceStats struct {
	tally
	dataMu     sync.Mutex // guards the fields below
	latencyMS  []float64
	lateMS     []float64
	cycles     uint64
	submits    int
	rejected   int
	lastDone   time.Time
	doneJobs   int
	traceFetch []error
}

// serviceSetup is one started daemon with its prepared traffic.
type serviceSetup struct {
	d         *daemon
	dir       string
	popular   []*jobProgram
	digests   []string // ximd digest of each popular program
	measured  *servicePlan
	traced    *servicePlan
	compileMS float64
}

func (s *serviceSetup) close() {
	if s == nil {
		return
	}
	s.d.stop()
	_ = os.RemoveAll(s.dir) // scratch state; a leftover directory is harmless
}

// setupService starts a durable ximdd, compiles the programs, plans
// both passes and warms the decoded-program cache with every popular
// program on both architectures.
func setupService(ctx context.Context, cfg *config, c *client, rep int) (_ *serviceSetup, err error) {
	s := &serviceSetup{dir: filepath.Join(cfg.work, fmt.Sprintf("run-%d-service-%d", os.Getpid(), rep))}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	if err := os.RemoveAll(s.dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(s.dir, "state"), 0o755); err != nil {
		return nil, err
	}
	if s.d, err = startDaemon(filepath.Join(cfg.work, "bin", "ximdd"), "ximdd", s.dir, "-archive", filepath.Join(s.dir, "state")); err != nil {
		return nil, err
	}
	if err := waitReady(ctx, c, s.d.url()); err != nil {
		return nil, err
	}

	for i := 0; i < popularPrograms; i++ {
		p, err := compileJobProgram(int32(31+2*i), int32(777_777+7_919*i))
		if err != nil {
			return nil, err
		}
		s.popular = append(s.popular, p)
		s.compileMS += p.compileMS
	}
	cpi, err := cyclesPerIter(s.popular[0])
	if err != nil {
		return nil, err
	}
	nextUnique := 0
	uniques := func() (*jobProgram, error) {
		nextUnique++
		p, err := compileJobProgram(31, int32(1_000_003+nextUnique))
		if err == nil {
			s.compileMS += p.compileMS
		}
		return p, err
	}
	r := rand.New(rand.NewSource(cfg.seed))
	if s.measured, err = planService(r, cfg.seconds, s.popular, uniques, cpi, cfg.seed*1_000_000); err != nil {
		return nil, err
	}
	if s.traced, err = planService(r, cfg.tracedLen(), s.popular, uniques, cpi, cfg.seed*1_000_000+500_000); err != nil {
		return nil, err
	}

	// Warm-up: every popular program once per architecture, small.
	table := make([]int32, tableLen)
	for _, p := range s.popular {
		for _, arch := range []runner.Arch{runner.ArchXIMD, runner.ArchVLIW} {
			st := &serviceStats{}
			job := &serviceJob{req: p.request(arch, 256, table, 0, ""), want: p.expect(256, table)}
			digest := runServiceJob(ctx, c, s.d.url(), job, time.Now(), st, nil)
			if st.failed > 0 {
				return nil, fmt.Errorf("warm-up job: %v", st.msgs)
			}
			if arch == runner.ArchXIMD {
				s.digests = append(s.digests, digest)
			}
		}
	}
	return s, nil
}

// runServiceJob submits one job, polls it to a terminal state, checks
// its out[0] and records its latency from due. With a trace root it
// records submit and status spans, passes the submit span's context to
// ximdd and imports ximdd's tree for the job. It returns the program
// digest the daemon reported.
func runServiceJob(ctx context.Context, c *client, base string, j *serviceJob, due time.Time, st *serviceStats, tr *tracing) string {
	root := tr.root("job")
	defer root.Finish()
	// The job counts as sent when its request gets a connection, so
	// lateness includes waiting for one of the two connections.
	var lateNS atomic.Int64
	subCtx := httptrace.WithClientTrace(ctx, &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { lateNS.Store(int64(time.Since(due))) },
	})
	sub := root.Child("submit")
	var sr serve.SubmitResponse
	status, _, err := c.do(subCtx, http.MethodPost, base+"/v1/jobs", j.req, sub, &sr)
	sub.Finish()
	late := float64(lateNS.Load()) / float64(time.Millisecond)
	st.dataMu.Lock()
	st.submits++
	st.lateMS = append(st.lateMS, late)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		st.rejected++
	}
	st.dataMu.Unlock()
	if err != nil || status != http.StatusAccepted {
		st.fail("submit: status %d: %v", status, err)
		return ""
	}

	var js serve.JobStatus
	for {
		select {
		case <-ctx.Done():
			st.fail("job %s: %v", sr.ID, ctx.Err())
			return sr.ProgramSHA256
		case <-time.After(pollEvery):
		}
		sp := root.Child("status")
		status, err = c.get(ctx, base+"/v1/jobs/"+sr.ID, &js)
		sp.Finish()
		if err != nil || status != http.StatusOK {
			st.fail("job %s: status %d: %v", sr.ID, status, err)
			return sr.ProgramSHA256
		}
		if js.Status == serve.StateDone || js.Status == serve.StateFailed {
			break
		}
	}
	seen := time.Now()
	latency := float64(seen.Sub(due)) / float64(time.Millisecond)
	root.SetAttr("latency_ms", strconv.FormatFloat(latency, 'g', -1, 64))
	root.SetAttr("late_ms", strconv.FormatFloat(late, 'g', -1, 64))
	if js.Status != serve.StateDone {
		st.fail("job %s: %s: %s", sr.ID, js.Status, js.Error)
		return sr.ProgramSHA256
	}
	if err := checkPeek(js.Result, j.want); err != nil {
		st.fail("job %s: %v", sr.ID, err)
		return sr.ProgramSHA256
	}
	st.dataMu.Lock()
	st.latencyMS = append(st.latencyMS, latency)
	st.cycles += js.Result.Cycles
	st.doneJobs++
	if seen.After(st.lastDone) {
		st.lastDone = seen
	}
	st.dataMu.Unlock()
	st.ok()
	if tr != nil {
		spans, err := c.fetchTrace(ctx, base, root.TraceID)
		if err != nil {
			st.dataMu.Lock()
			st.traceFetch = append(st.traceFetch, err)
			st.dataMu.Unlock()
		}
		tr.importSpans(spans)
	}
	return sr.ProgramSHA256
}

// runServiceQuery reads a popular program's archived runs and checks
// every record belongs to it.
func runServiceQuery(ctx context.Context, c *client, base, digest string, st *serviceStats, tr *tracing) {
	sp := tr.root("query")
	var rr serve.RunsResponse
	status, err := c.get(ctx, base+"/v1/runs?limit=10&digest="+url.QueryEscape(digest), &rr)
	sp.Finish()
	if err != nil || status != http.StatusOK {
		st.fail("query: status %d: %v", status, err)
		return
	}
	if rr.Count != len(rr.Runs) {
		st.fail("query: count %d, %d runs", rr.Count, len(rr.Runs))
		return
	}
	for _, rec := range rr.Runs {
		if rec.Key.ProgramSHA256 != digest {
			st.fail("query for %s returned a run of %s", digest, rec.Key.ProgramSHA256)
			return
		}
	}
	st.ok()
}

// openLoop issues every operation of plan at its due time, each on its
// own goroutine, and waits for all of them.
func openLoop(ctx context.Context, c *client, s *serviceSetup, plan *servicePlan, tr *tracing) (*serviceStats, time.Time) {
	type op struct {
		at  time.Duration
		run func(due time.Time)
	}
	st := &serviceStats{}
	base := s.d.url()
	var ops []op
	for _, j := range plan.jobs {
		ops = append(ops, op{j.at, func(due time.Time) { runServiceJob(ctx, c, base, j, due, st, tr) }})
	}
	for _, q := range plan.queries {
		digest := s.digests[q.popular]
		ops = append(ops, op{q.at, func(time.Time) { runServiceQuery(ctx, c, base, digest, st, tr) }})
	}
	sort.SliceStable(ops, func(i, k int) bool { return ops[i].at < ops[k].at })

	sem := make(chan struct{}, maxInflight)
	var wg sync.WaitGroup
	start := time.Now()
	for _, o := range ops {
		due := start.Add(o.at)
		if d := time.Until(due); d > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(d):
			}
		}
		if ctx.Err() != nil {
			break
		}
		select {
		case sem <- struct{}{}:
		default:
			st.fail("generator: %d operations outstanding", maxInflight)
			continue
		}
		wg.Add(1)
		go func(run func(time.Time)) {
			defer wg.Done()
			defer func() { <-sem }()
			run(due)
		}(o.run)
	}
	wg.Wait()
	return st, start
}

// runService is the service workload: an open loop against one durable
// ximdd started with -archive, as scripts/fabric_smoke.sh deploys it.
func runService(ctx context.Context, cfg *config) (*result, error) {
	res := newResult("service")
	c := newClient()
	defer c.close()
	var s *serviceSetup
	defer func() { s.close() }()
	var compileMS []float64
	setupS, err := medianSetup(func(last bool) (time.Duration, error) {
		start := time.Now()
		ss, err := setupService(ctx, cfg, c, len(compileMS))
		if err != nil {
			return 0, err
		}
		d := time.Since(start)
		compileMS = append(compileMS, ss.compileMS)
		if last {
			s = ss
		} else {
			ss.close()
		}
		return d, nil
	})
	if err != nil {
		return nil, err
	}
	pid := s.d.cmd.Process.Pid

	cpu0, err := cpuSeconds(pid)
	if err != nil {
		return nil, err
	}
	meas, start := openLoop(ctx, c, s, s.measured, nil)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cpu1, err := cpuSeconds(pid)
	if err != nil {
		return nil, err
	}
	wall := meas.lastDone.Sub(start).Seconds()
	rss, err := peakRSSMB(pid)
	if err != nil {
		return nil, err
	}
	res.layer["mem.peak_rss_mb"] = rss
	held, err := readDaemonMem(ctx, c, []*daemon{s.d}, true)
	if err != nil {
		return nil, err
	}
	res.add(&meas.tally)
	res.e2e = map[string]float64{
		"setup_s":           setupS,
		"host_ns_per_cycle": (cpu1 - cpu0) * 1e9 / float64(meas.cycles),
		"runs_per_s":        float64(meas.doneJobs) / wall,
		"job_p50_ms":        median(meas.latencyMS),
		"job_p95_ms":        windowedQuantile(meas.latencyMS, 0.95),
		"heap_live_mb":      held.heapAllocMB,
		"sim_cycles":        float64(meas.cycles),
	}
	fmt.Fprintf(cfg.out, "  ximdd busy %.1f%% of %d CPUs at %d jobs/s; generator late p99 %.3f ms\n",
		100*(cpu1-cpu0)/(wall*float64(runtime.NumCPU())), runtime.NumCPU(), serviceRate, quantile(meas.lateMS, 0.99))
	if !cfg.trace {
		return res, nil
	}

	tr := newTracing()
	mem0, err := readDaemonMem(ctx, c, []*daemon{s.d}, false)
	if err != nil {
		return nil, err
	}
	traced, _ := openLoop(ctx, c, s, s.traced, tr)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	mem1, err := readDaemonMem(ctx, c, []*daemon{s.d}, false)
	if err != nil {
		return nil, err
	}
	res.add(&traced.tally)
	if len(traced.traceFetch) > 0 {
		fmt.Fprintf(cfg.out, "  traced pass: %d trace fetches failed, first: %v\n", len(traced.traceFetch), traced.traceFetch[0])
	}

	spans, err := finishTrace(cfg, "service", tr)
	if err != nil {
		return nil, err
	}
	ix := indexSpans(spans)
	l := res.layer
	serveLayers(ix, l)
	l["compiler.compile_ms"] = median(compileMS)
	l["serve.submit_ms.p50"] = median(ms(ix.named("submit", "bench")))
	l["serve.submit_ms.p99"] = quantile(ms(ix.named("submit", "bench")), 0.99)
	l["serve.status_ms.p50"] = median(ms(ix.named("status", "bench")))
	l["serve.polls_per_job"] = float64(len(ix.named("status", "bench"))) / float64(max(traced.submits, 1))
	l["serve.rejected_frac"] = float64(meas.rejected) / float64(max(meas.submits, 1))
	l["serve.cpu_busy_frac"] = (cpu1 - cpu0) / (wall * float64(runtime.NumCPU()))
	l["archive.query_ms.p50"] = median(ms(ix.named("query", "bench")))
	l["mem.alloc_mb_per_run"] = (mem1.totalAllocMB - mem0.totalAllocMB) / float64(max(traced.doneJobs, 1))
	l["runtime.gc_cpu_frac"] = mem1.gcCPUFrac
	l["bench.late_p99_ms"] = quantile(meas.lateMS, 0.99)
	l["obs.trace_overhead_frac"] = median(traced.latencyMS)/res.e2e["job_p50_ms"] - 1
	if l["core.fusible_word_frac"], err = jobFusibleFrac(s.popular); err != nil {
		return nil, err
	}

	// Residual: each job's latency minus the phases that tile it —
	// generator lateness, the submit round trip (decode and the journal
	// fsync happen inside it), queue wait, execution and archive append.
	var residual []float64
	var resSum, latSum float64
	for _, job := range ix.named("job", "bench") {
		sub := ix.child(job, "submit")
		if sub == nil || job.Attrs["latency_ms"] == "" {
			continue
		}
		var server *obs.Span
		for _, sp := range ix.children[sub.SpanID] {
			if sp.Service == "ximdd" && sp.Name == "job" {
				server = sp
			}
		}
		if server == nil {
			continue
		}
		lat := attrFloat(job, "latency_ms")
		covered := attrFloat(job, "late_ms") + sub.Ms
		for _, phase := range []string{"queue_wait", "execute", "archive_append"} {
			if p := ix.child(server, phase); p != nil {
				covered += p.Ms
			}
		}
		residual = append(residual, lat-covered)
		resSum, latSum = resSum+lat-covered, latSum+lat
	}
	l["serve.residual_ms.p50"] = median(residual)
	if latSum > 0 {
		l["serve.residual_frac"] = resSum / latSum
	}
	return res, nil
}

// serveLayers fills the per-layer metrics read from ximdd span trees:
// job phases, runner phases, checkpoints, and VLIW execution.
func serveLayers(ix *spanIndex, l map[string]float64) {
	decodes := ix.named("decode", "ximdd")
	var hits int
	var missUS []float64
	for _, sp := range decodes {
		if sp.Attrs["cache"] == "hit" {
			hits++
		} else {
			missUS = append(missUS, sp.Ms*1000)
		}
	}
	if len(decodes) > 0 {
		l["serve.cache_hit_frac"] = float64(hits) / float64(len(decodes))
	}
	l["serve.decode_ms.p50"] = median(ms(decodes))
	l["runner.load_us"] = median(missUS)
	qw := ms(ix.named("queue_wait", "ximdd"))
	l["serve.queue_wait_ms.p50"] = median(qw)
	l["serve.queue_wait_ms.p99"] = quantile(qw, 0.99)
	execs := ix.named("execute", "ximdd")
	l["serve.execute_ms.p50"] = median(ms(execs))
	var self []float64
	for _, job := range ix.named("job", "ximdd") {
		self = append(self, ix.selfMS(job))
	}
	l["serve.job_self_ms.p50"] = median(self)
	l["archive.append_ms.p50"] = median(ms(ix.named("archive_append", "ximdd")))
	l["runner.build_us.p50"] = median(scaled(ms(ix.named("build", "ximdd")), 1000))
	l["runner.run_ms.p50"] = median(ms(ix.named("run", "ximdd")))
	l["ckpt.save_ms.p50"] = median(ms(ix.named("checkpoint_write", "ximdd")))
	var vliwUS []float64
	for _, sp := range execs {
		if ix.ancestorAttr(sp, "arch") == string(runner.ArchVLIW) {
			vliwUS = append(vliwUS, sp.Ms*1000)
		}
	}
	l["vliw.task_us.p50"] = median(vliwUS)
}

// jobFusibleFrac is the fusible share of the programs' instruction words.
func jobFusibleFrac(progs []*jobProgram) (float64, error) {
	var words, fusible int
	for _, p := range progs {
		prog, err := runner.Load(runner.ArchXIMD, []byte(p.source))
		if err != nil {
			return 0, err
		}
		words += p.words
		fusible += prog.FusibleWords()
	}
	return float64(fusible) / float64(words), nil
}

func attrFloat(sp *obs.Span, key string) float64 {
	v, _ := strconv.ParseFloat(sp.Attrs[key], 64)
	return v
}
