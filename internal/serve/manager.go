package serve

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ximd/internal/archive"
	"ximd/internal/ckpt"
	"ximd/internal/hostcfg"
	"ximd/internal/obs"
	"ximd/internal/runner"
	"ximd/internal/sweep"
	"ximd/internal/trace"
)

// State is a job's lifecycle position. Transitions are strictly
// queued → running → done|failed; a terminal job never changes again.
type State string

const (
	StateQueued  State = "queued"
	StateRunning State = "running"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Errors the submission path maps to HTTP statuses.
var (
	// ErrQueueFull is the backpressure signal: the bounded submission
	// queue is at capacity (HTTP 429 + Retry-After).
	ErrQueueFull = errors.New("serve: submission queue full")
	// ErrShuttingDown rejects submissions during graceful shutdown
	// (HTTP 503).
	ErrShuttingDown = errors.New("serve: shutting down")
	// ErrUnknownJob reports a job id that was never issued (HTTP 404).
	ErrUnknownJob = errors.New("serve: unknown job")
)

// job is the manager's record of one submitted simulation.
type job struct {
	id       string
	prog     *runner.Program
	progSHA  string
	cacheHit bool
	spec     runner.Spec
	peeks    []hostcfg.MemPeek
	trace    bool
	profile  bool
	flight   int
	// canonInject is the canonical form of spec.Inject (the archive
	// key's inject axis), fixed at submit.
	canonInject string
	decodeDur   time.Duration
	// req is the validated request the job was built from, kept for the
	// write-ahead journal: an "accepted" record carries it verbatim so a
	// restarted process can rebuild this job. nil when journaling is off.
	req *JobRequest
	// ckptKey binds this job's durable checkpoints to its identity (a
	// digest of the canonical request JSON). A checkpoint on disk whose
	// Key differs belongs to a different run and must not be restored.
	ckptKey string
	// ckpt is the recovered checkpoint to resume from, set only on jobs
	// rebuilt by crash recovery that had a valid checkpoint on disk.
	ckpt *ckpt.Checkpoint

	// Distributed-tracing spans for this job's lifecycle. span is the
	// job root (adopted from the request's X-Ximd-Trace header, or a
	// fresh root); qwSpan and execSpan are its queue_wait and execute
	// children. All nil-safe — a job built without a span traces
	// nothing. Distinct from the frozen SpanLine breakdown below, which
	// is the byte-compatible flat view.
	span     *obs.Span
	qwSpan   *obs.Span
	execSpan *obs.Span

	// Mutated under the manager's lock only. The time.Time fields keep
	// their monotonic reading (they are only ever subtracted, never
	// serialized), so span durations are immune to wall-clock steps.
	submitted time.Time
	started   time.Time
	state     State
	result    runner.Result
	err       error
	doc       *runner.ResultDoc
	recs      []trace.Record
	flightRec []trace.Record
	spans     []SpanLine
	queuedMS  float64
	runMS     float64
}

// manager owns the job table, the bounded submission queue, the worker
// pool, and the decoded-program cache. Per-job execution is layered on
// internal/sweep: each job runs as a single-task sweep with the
// configured TaskTimeout, inheriting sweep's panic recovery and
// deadline semantics.
type manager struct {
	queueDepth int
	workers    int
	jobTimeout time.Duration

	mu     sync.Mutex
	jobs   map[string]*job
	nextID uint64
	queue  chan *job
	closed bool
	cache  *progCache

	// sweeps tracks detached sweep batches by id ("s-N"). The records
	// are views over the job table — aggregate status is derived from
	// the member jobs' states at read time, so there is no separate
	// lifecycle to keep consistent. Sweep ids are volatile: the member
	// jobs are individually journaled and survive a crash under their
	// original ids, the grouping does not.
	sweeps      map[string]*sweepRec
	nextSweepID uint64

	rootCtx context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup

	// met is the per-server metrics registry, surfaced raw at /metrics
	// and through the legacy /varz view.
	met *serveMetrics

	// arch is the durable run archive (nil = disabled); terminal jobs
	// and sweep tasks are appended at completion.
	arch *archive.Archive

	// Durable job state (nil = disabled): jnl is the write-ahead job
	// journal, ckpts the per-job checkpoint store, ckptEvery the
	// snapshot interval in cycles. Set before the workers start and
	// never reassigned.
	jnl       *journal
	ckpts     *ckpt.Store
	ckptEvery uint64

	// Distributed tracing: tr mints lifecycle spans into spanStore,
	// which GET /v1/traces serves. Both are always on — the store is a
	// bounded ring and span work happens only at phase boundaries.
	tr        *obs.Tracer
	spanStore *obs.SpanStore

	// now is the clock for job timestamps, swappable in tests. It is
	// only read under mu; the time.Time values it returns are only ever
	// subtracted, so with the real clock span durations ride the
	// monotonic reading and are immune to wall-clock steps. Durations
	// are additionally clamped non-negative (see ms) so a clock that
	// does step — or a fake without a monotonic reading — can never
	// produce negative queued_ms/run_ms.
	now func() time.Time
}

func newManager(opts Options) *manager {
	m := &manager{
		queueDepth: opts.QueueDepth,
		workers:    opts.Workers,
		jobTimeout: opts.JobTimeout,
		jobs:       make(map[string]*job),
		sweeps:     make(map[string]*sweepRec),
		queue:      make(chan *job, opts.QueueDepth),
		met:        newServeMetrics(),
		arch:       opts.Archive,
		now:        time.Now,
	}
	m.spanStore = obs.NewSpanStore(0)
	m.tr = obs.NewTracer("ximdd", m.spanStore)
	m.met.queueCapacity.Set(int64(opts.QueueDepth))
	m.met.workers.Set(int64(opts.Workers))
	m.met.reg.GaugeFunc("ximdd_queue_depth", "Jobs currently buffered in the submission queue channel.",
		func() float64 { return float64(len(m.queue)) })
	m.met.reg.GaugeFunc("ximdd_cache_entries", "Decoded programs currently cached.",
		func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(m.cache.len())
		})
	m.cache = newProgCache(opts.CacheEntries, m.met.cacheHits, m.met.cacheMisses)
	if m.arch != nil {
		m.met.reg.GaugeFunc("ximdd_archive_records", "Records indexed in the durable run archive.",
			func() float64 { return float64(m.arch.Len()) })
	}
	m.rootCtx, m.cancel = context.WithCancel(context.Background())
	return m
}

// start launches the worker pool. Separate from newManager so the
// caller can attach durable job state (journal, checkpoint store,
// recovered jobs) before any worker can observe it.
func (m *manager) start() {
	m.wg.Add(m.workers)
	for i := 0; i < m.workers; i++ {
		go m.worker()
	}
}

// loadProgram resolves the submitted program bytes through the
// decoded-program cache: a hit reuses the shared pre-decoded program,
// a miss pays the assemble+validate+predecode cost once and populates
// the cache. Returns the program, its content hash, and whether this
// was a hit.
func (m *manager) loadProgram(arch runner.Arch, source []byte) (*runner.Program, string, bool, error) {
	key := programKey(arch, source)
	m.mu.Lock()
	prog, ok := m.cache.get(key)
	m.mu.Unlock()
	if ok {
		return prog, key, true, nil
	}
	prog, err := runner.Load(arch, source)
	if err != nil {
		return nil, key, false, err
	}
	m.mu.Lock()
	m.cache.put(key, prog)
	m.mu.Unlock()
	return prog, key, false, nil
}

// submit enqueues a prepared job. It fails with ErrShuttingDown after
// Shutdown began and ErrQueueFull when the bounded queue is at
// capacity — the caller maps those to 503 and 429. With durable job
// state enabled, the "accepted" journal record is fsynced before the
// job becomes visible anywhere: a 202 response is a promise the job
// survives kill -9, so the write-ahead append has to precede it. The
// capacity check moves ahead of the append (only this function sends
// on the queue, and it holds the lock, so the later send cannot
// block): a 429'd submission must not leave a journaled ghost for
// recovery to replay.
func (m *manager) submit(j *job) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		m.met.rejectedClosed.Inc()
		return ErrShuttingDown
	}
	if len(m.queue) == cap(m.queue) {
		m.met.rejectedFull.Inc()
		return ErrQueueFull
	}
	m.nextID++
	j.id = "j-" + strconv.FormatUint(m.nextID, 10)
	if m.jnl != nil {
		if _, err := m.jnl.append(journalRecord{T: journalAccepted, ID: j.id, Req: j.req}); err != nil {
			// The durability promise cannot be kept; reject rather than
			// accept a job a crash would silently lose.
			return fmt.Errorf("serve: write-ahead journal: %w", err)
		}
	}
	j.state = StateQueued
	j.submitted = m.now()
	// Span setup happens before the channel send: once the job is on the
	// queue a worker may race to setRunning, which finishes qwSpan.
	j.span.SetAttr("job_id", j.id)
	j.qwSpan = j.span.Child("queue_wait")
	m.queue <- j
	m.jobs[j.id] = j
	m.met.jobsTotal.Inc()
	m.met.queued.Add(1)
	return nil
}

// sweepRec groups the jobs of one detached sweep, in submission order.
type sweepRec struct {
	id       string
	progSHA  string
	cacheHit bool
	variants []Variant
	jobs     []*job
}

// submitSweep admits a detached sweep's jobs atomically: the whole
// batch fits the queue or none of it is accepted (ErrQueueFull). Each
// job goes through the same acceptance protocol as a single submit —
// id assignment, write-ahead journaling, enqueue — under one critical
// section, and the sweep record is registered with the batch so a
// client can never observe a sweep id whose jobs are missing.
func (m *manager) submitSweep(jobs []*job, rec *sweepRec) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		m.met.rejectedClosed.Inc()
		return ErrShuttingDown
	}
	if len(m.queue)+len(jobs) > cap(m.queue) {
		m.met.rejectedFull.Inc()
		return ErrQueueFull
	}
	for i, j := range jobs {
		m.nextID++
		j.id = "j-" + strconv.FormatUint(m.nextID, 10)
		if m.jnl != nil {
			if _, err := m.jnl.append(journalRecord{T: journalAccepted, ID: j.id, Req: j.req}); err != nil {
				// The batch's earlier "accepted" records are already
				// durable but their jobs were not enqueued; journal them
				// terminal so a crash-restart does not replay half a sweep
				// the client was told failed.
				for _, prev := range jobs[:i] {
					_, _ = m.jnl.append(journalRecord{T: journalTerminal, ID: prev.id})
				}
				return fmt.Errorf("serve: write-ahead journal: %w", err)
			}
		}
	}
	// The sweep id is allocated before the enqueue loop so every member
	// job's span can carry it — a worker may finish a job (and freeze
	// its spans) the moment it hits the queue.
	m.nextSweepID++
	rec.id = "s-" + strconv.FormatUint(m.nextSweepID, 10)
	for _, j := range jobs {
		j.state = StateQueued
		j.submitted = m.now()
		j.span.SetAttr("job_id", j.id)
		j.span.SetAttr("sweep_id", rec.id)
		j.qwSpan = j.span.Child("queue_wait")
		m.queue <- j
		m.jobs[j.id] = j
		m.met.jobsTotal.Inc()
		m.met.queued.Add(1)
	}
	m.sweeps[rec.id] = rec
	return nil
}

// sweepStatus derives a detached sweep's aggregate view from its
// member jobs' current states.
func (m *manager) sweepStatus(id string) (*SweepStatus, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.sweeps[id]
	if !ok {
		return nil, fmt.Errorf("serve: unknown sweep: %s", id)
	}
	st := &SweepStatus{
		ID:            rec.id,
		ProgramSHA256: rec.progSHA,
		CacheHit:      rec.cacheHit,
	}
	for i, j := range rec.jobs {
		vs := SweepVariantStatus{
			Name:   rec.variants[i].Name,
			Seed:   rec.variants[i].Seed,
			Inject: rec.variants[i].Inject,
			JobID:  j.id,
			Status: j.state,
		}
		switch j.state {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		case StateDone:
			st.Done++
		case StateFailed:
			st.Failed++
		}
		if j.state == StateDone || j.state == StateFailed {
			code := runner.ExitCode(j.err)
			vs.ExitCode = &code
			if j.err != nil {
				vs.Error = j.err.Error()
			}
		}
		st.Variants = append(st.Variants, vs)
	}
	switch {
	case st.Done == len(rec.jobs):
		st.Status = StateDone
	case st.Done+st.Failed == len(rec.jobs):
		st.Status = StateFailed
	case st.Queued == len(rec.jobs):
		st.Status = StateQueued
	default:
		st.Status = StateRunning
	}
	return st, nil
}

// requeue re-enqueues one crash-recovered job under its original id —
// clients polling that id across the restart keep getting answers. No
// journal append: the job's "accepted" record is exactly what replay
// just read. The caller sized the queue to hold the full recovered
// set, so the send cannot block.
func (m *manager) requeue(j *job, id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j.id = id
	j.state = StateQueued
	j.submitted = m.now()
	j.span.SetAttr("job_id", j.id)
	j.qwSpan = j.span.Child("queue_wait")
	m.queue <- j
	m.jobs[j.id] = j
	m.met.jobsTotal.Inc()
	m.met.queued.Add(1)
}

// worker drains the queue until it is closed, executing each job as a
// single-task sweep so per-job deadlines (TaskTimeout) and panic
// recovery come from the sweep engine.
func (m *manager) worker() {
	defer m.wg.Done()
	for j := range m.queue {
		m.setRunning(j)
		if m.jnl != nil {
			// Advisory: a lost "started" record only costs recovery the
			// requeued-vs-rerun distinction, never correctness, so an
			// append failure does not block the run.
			_, _ = m.jnl.append(journalRecord{T: journalStarted, ID: j.id})
		}
		ropts := runner.Options{
			Trace:        j.trace,
			FlightCycles: j.flight,
			Span:         j.execSpan,
		}
		if m.ckpts != nil && !j.trace {
			// Traced jobs never checkpoint: a resumed run cannot
			// reconstruct the pre-crash trace records, so recovery reruns
			// them cold instead (deterministic, so the client cannot tell).
			ropts.CheckpointEvery = m.ckptEvery
			ropts.Checkpoint = func(c *ckpt.Checkpoint) { m.saveCheckpoint(j, c) }
		}
		var res runner.Result
		task := sweep.Task{Name: j.id, Run: func(ctx context.Context) (sweep.Outcome, error) {
			var err error
			if j.ckpt != nil {
				res, err = runner.Resume(ctx, j.prog, j.spec, ropts, j.ckpt)
				var ue *runner.UsageError
				if errors.As(err, &ue) {
					// The checkpoint did not fit the rebuilt machine
					// (format drift the Key check could not see). The
					// determinism contract makes rerunning from cycle 0
					// indistinguishable, minus the saved work.
					m.met.jobsColdRun.Inc()
					j.execSpan.SetAttr("cold_rerun", "checkpoint_rejected")
					res, err = runner.Run(ctx, j.prog, j.spec, ropts)
				}
			} else {
				res, err = runner.Run(ctx, j.prog, j.spec, ropts)
			}
			if err != nil {
				return sweep.Outcome{}, err
			}
			return sweep.Outcome{Cycles: res.Cycles, Stats: res.Stats}, nil
		}}
		results, _ := sweep.Run(m.rootCtx, []sweep.Task{task}, sweep.Options{
			Workers:     1,
			TaskTimeout: m.jobTimeout,
		})
		m.finish(j, res, results[0].Err, results[0].Duration)
	}
}

// saveCheckpoint persists one periodic snapshot, stamping the job's
// binding key first. Failures degrade resumability, never the run.
func (m *manager) saveCheckpoint(j *job, c *ckpt.Checkpoint) {
	c.Key = j.ckptKey
	start := time.Now()
	n, err := m.ckpts.Save(j.id, c)
	m.met.ckptSaveSecs.Observe(time.Since(start).Seconds())
	if err != nil {
		m.met.ckptErrs.Inc()
		return
	}
	m.met.ckptWrites.Inc()
	m.met.ckptBytes.Add(uint64(n))
}

func (m *manager) setRunning(j *job) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j.qwSpan.Finish()
	j.execSpan = j.span.Child("execute")
	j.state = StateRunning
	j.started = m.now()
	wait := j.started.Sub(j.submitted)
	if wait < 0 {
		wait = 0
	}
	j.queuedMS = ms(wait)
	m.met.queueWait.Observe(wait.Seconds())
	m.met.queued.Add(-1)
	m.met.running.Add(1)
}

// ms converts a duration to fractional milliseconds for span docs,
// clamping negatives to zero: a wall-clock step between two reads of a
// non-monotonic clock must never surface as a negative queued_ms or
// run_ms.
func ms(d time.Duration) float64 {
	if d < 0 {
		return 0
	}
	return float64(d) / float64(time.Millisecond)
}

// finish freezes a job's result document and span breakdown (built
// once, so repeated GETs serve identical bytes), archives the outcome,
// and only then publishes the terminal state. The ordering is the
// point: a client that observes done/failed may rely on the durable
// archive (and its /metrics counters) already containing the run — the
// status flip is the last thing that happens, never concurrent with
// the fsync'd append. Frozen fields stay invisible to pollers in the
// meantime because snapshot/traceRecords/spanLines gate on the state.
func (m *manager) finish(j *job, res runner.Result, err error, execDur time.Duration) {
	m.mu.Lock()
	j.result = res
	j.err = err
	j.recs = res.Trace
	j.flightRec = res.Flight
	j.runMS = ms(execDur)
	total := m.now().Sub(j.submitted)
	if total < 0 {
		total = 0
	}
	detail := "cache_miss"
	if j.cacheHit {
		detail = "cache_hit"
	}
	j.spans = []SpanLine{
		{Span: "queue_wait", Ms: j.queuedMS},
		{Span: "decode", Ms: ms(j.decodeDur), Detail: detail},
		{Span: "execute", Ms: j.runMS},
		{Span: "total", Ms: ms(total)},
	}
	if err == nil {
		doc := runner.NewResultDoc(res, j.peeks, j.profile)
		j.doc = &doc
	}
	m.mu.Unlock()

	j.execSpan.Finish()
	if m.arch != nil {
		as := j.span.Child("archive_append")
		m.archiveJob(j)
		as.Finish()
	} else {
		m.archiveJob(j)
	}
	// Both documents are built: the memory image has served its last
	// peek. Recycle it rather than hold 4 MB per finished job.
	m.mu.Lock()
	j.result.Memory = nil
	m.mu.Unlock()
	if res.Memory != nil {
		res.Memory.Release()
	}

	// Freeze the job's trace-tree root before the terminal flip, so a
	// client that observes done/failed can immediately fetch the full
	// tree from /v1/traces/{id}.
	if err != nil {
		j.span.SetAttr("state", string(StateFailed))
		j.span.SetAttr("error", err.Error())
	} else {
		j.span.SetAttr("state", string(StateDone))
	}
	j.span.SetAttrInt("cycles", res.Cycles)
	j.span.Finish()

	// Durable terminal protocol, still before the state flip: journal
	// the terminal record, then delete the checkpoint. A crash between
	// the two replays the job as terminal (correct — the archive append
	// above already happened) and recovery sweeps the orphaned
	// checkpoint file. The reverse order could journal nothing and
	// delete the checkpoint, downgrading a resumable job to a cold
	// rerun — safe too, but strictly worse.
	if m.jnl != nil {
		if wantCompact, err := m.jnl.append(journalRecord{T: journalTerminal, ID: j.id}); err == nil && wantCompact {
			_ = m.jnl.compact(m.pendingForJournal())
		}
	}
	if m.ckpts != nil {
		if err := m.ckpts.Delete(j.id); err != nil {
			m.met.ckptErrs.Inc()
		}
	}

	m.mu.Lock()
	defer m.mu.Unlock()
	m.met.running.Add(-1)
	m.met.cyclesSimmed.Add(res.Cycles)
	m.met.execute.Observe(execDur.Seconds())
	m.met.total.Observe(total.Seconds())
	if err != nil {
		j.state = StateFailed
		m.met.jobsFailed.Inc()
		return
	}
	j.state = StateDone
	m.met.jobsDone.Inc()
}

// archiveJob appends a terminal job's outcome to the durable run
// archive. No-op when archiving is disabled; an append failure is
// counted in metrics but never alters the job's outcome — archiving is
// an observer of the run, not a participant.
func (m *manager) archiveJob(j *job) {
	if m.arch == nil {
		return
	}
	m.mu.Lock()
	rec := archive.Record{
		Key: archive.Key{
			ProgramSHA256: j.progSHA,
			Arch:          string(j.prog.Arch()),
			Seed:          j.spec.Seed,
			Inject:        j.canonInject,
		},
		ExitCode: runner.ExitCode(j.err),
		UnixMS:   m.now().UnixMilli(),
	}
	if j.err != nil {
		rec.Error = j.err.Error()
	}
	if j.doc != nil {
		// Archive the full document with the stall-attribution profile
		// attached even when the client did not ask for one: the
		// baseline should carry everything the gate can compare.
		doc := runner.NewResultDoc(j.result, j.peeks, true)
		rec.Result = &doc
	}
	for _, sp := range j.spans {
		rec.Spans = append(rec.Spans, archive.Span{Name: sp.Span, Ms: sp.Ms, Detail: sp.Detail})
	}
	m.mu.Unlock()
	m.appendArchive(rec)
}

// wallMS reads the manager's clock (under the lock, per its contract)
// as a unix-milliseconds archive timestamp.
func (m *manager) wallMS() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now().UnixMilli()
}

// appendArchive writes one record to the archive, tracking outcome
// metrics. The caller must have checked m.arch != nil.
func (m *manager) appendArchive(rec archive.Record) {
	start := time.Now()
	err := m.arch.Append(rec)
	m.met.archiveAppendSecs.Observe(time.Since(start).Seconds())
	if err != nil {
		m.met.archiveAppendErrs.Inc()
		return
	}
	m.met.archiveAppends.Inc()
}

// get returns the job record for id.
func (m *manager) get(id string) (*job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	return j, nil
}

// statusView is the lock-consistent copy of everything a status
// response needs. The duration fields are only set once the job is
// terminal (they are frozen in finish, so repeated polls serve
// identical bytes); flight is only set for failed jobs — the flight
// recorder is a postmortem artifact, and a successful run's window is
// dropped.
type statusView struct {
	state    State
	doc      *runner.ResultDoc
	err      error
	queuedMS *float64
	runMS    *float64
	flight   []trace.Record
}

// snapshot copies the fields a status response needs under the lock.
func (m *manager) snapshot(j *job) statusView {
	m.mu.Lock()
	defer m.mu.Unlock()
	v := statusView{state: j.state}
	if j.state == StateDone || j.state == StateFailed {
		v.doc, v.err = j.doc, j.err
		q, r := j.queuedMS, j.runMS
		v.queuedMS, v.runMS = &q, &r
	}
	if j.state == StateFailed {
		v.flight = j.flightRec
	}
	return v
}

// traceRecords returns the captured trace once a job is terminal.
func (m *manager) traceRecords(j *job) (State, []trace.Record) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return j.state, j.recs
}

// spanLines returns the frozen span breakdown once a job is terminal.
func (m *manager) spanLines(j *job) (State, []SpanLine) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return j.state, j.spans
}

// pendingForJournal snapshots the live (non-terminal) job set in id
// order for journal compaction. A job racing from queued to running
// around this snapshot may lose its "started" record to the rewrite;
// recovery tolerates that — it probes the checkpoint store for every
// pending job, started or not.
func (m *manager) pendingForJournal() []replayJob {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []replayJob
	for _, j := range m.jobs {
		if (j.state == StateQueued || j.state == StateRunning) && j.req != nil {
			out = append(out, replayJob{id: j.id, req: *j.req, started: j.state == StateRunning})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		na, _ := strconv.ParseUint(strings.TrimPrefix(out[a].id, "j-"), 10, 64)
		nb, _ := strconv.ParseUint(strings.TrimPrefix(out[b].id, "j-"), 10, 64)
		return na < nb
	})
	return out
}

// shuttingDown reports whether Shutdown has begun.
func (m *manager) shuttingDown() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// Shutdown drains gracefully: new submissions are rejected immediately,
// queued and running jobs are completed, and the call returns when the
// workers are idle. If ctx expires first, the in-flight runs are
// cancelled (they abort at their next cooperative check and are marked
// failed with the cancellation error — never dropped, never rerun) and
// the context error is returned.
func (m *manager) Shutdown(ctx context.Context) error {
	m.mu.Lock()
	if !m.closed {
		m.closed = true
		close(m.queue)
	}
	m.mu.Unlock()

	idle := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(idle)
	}()
	var err error
	select {
	case <-idle:
		m.cancel()
	case <-ctx.Done():
		m.cancel()
		<-idle
		err = ctx.Err()
	}
	// Workers are idle: release the durable-state handles. Everything
	// they guarded is already fsynced.
	if m.jnl != nil {
		m.jnl.close()
	}
	if m.ckpts != nil {
		m.ckpts.Close()
	}
	return err
}
