package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"ximd/internal/archive"
	"ximd/internal/inject"
	"ximd/internal/obs"
	"ximd/internal/runner"
	"ximd/internal/sweep"
)

// SweepRequest is the body of POST /v1/sweeps: one base job plus the
// axes to vary. The expanded task list is the cross product of Injects
// and Seeds (inject outer, seed inner); an empty axis falls back to the
// base value, so {seeds:[1,2,3]} runs three seeds of the base spec and
// {} degenerates to a single run. Results always come back in
// submission order, one entry per task, regardless of which worker
// finished first — the sweep engine's ordering guarantee.
type SweepRequest struct {
	Base JobRequest `json:"base"`
	// Seeds are fault-injection seed variations.
	Seeds []int64 `json:"seeds,omitempty"`
	// Injects are fault-injection spec variations.
	Injects []string `json:"injects,omitempty"`
	// Detach submits every variant as a regular job through the bounded
	// queue and answers immediately with a sweep id plus the per-variant
	// job ids; poll GET /v1/sweeps/{id} for terminal states and the
	// individual job endpoints for result documents. The whole batch is
	// admitted atomically: if the queue cannot hold every variant the
	// request is rejected 429 and nothing runs.
	Detach bool `json:"detach,omitempty"`
}

// Variant is one expanded (seed, inject) point of a sweep
// cross-product. It is shared between the single-node sweep path and
// the fabric coordinator, which expands the same request through
// ExpandVariants so a fleet merge is variant-for-variant identical to
// a single-node sweep.
type Variant struct {
	// Name is the stable task label, "inject=%q/seed=%d".
	Name string
	Seed int64
	// Inject is the spec exactly as submitted; Canon its canonical form
	// (the archive key's inject axis).
	Inject string
	Canon  string
}

// ExpandVariants crosses the inject axis (outer) with the seed axis
// (inner); an empty axis falls back to the base value. Every inject
// variation is canonicalized up front, so the whole batch is rejected
// on the first bad spec — a sweep never partially validates. maxTasks
// <= 0 disables the fan-out cap.
func ExpandVariants(baseSeed int64, baseInject string, seeds []int64, injects []string, maxTasks int) ([]Variant, error) {
	if len(seeds) == 0 {
		seeds = []int64{baseSeed}
	}
	if len(injects) == 0 {
		injects = []string{baseInject}
	}
	if n := len(seeds) * len(injects); maxTasks > 0 && n > maxTasks {
		return nil, fmt.Errorf("sweep expands to %d tasks, limit %d", n, maxTasks)
	}
	variants := make([]Variant, 0, len(seeds)*len(injects))
	for i, inj := range injects {
		canon, err := inject.Canonicalize(inj)
		if err != nil {
			return nil, fmt.Errorf("injects[%d]: %w", i, err)
		}
		for _, seed := range seeds {
			variants = append(variants, Variant{
				Name:   fmt.Sprintf("inject=%q/seed=%d", inj, seed),
				Seed:   seed,
				Inject: inj,
				Canon:  canon,
			})
		}
	}
	return variants, nil
}

// SweepTaskResult is one entry of a sweep response, in submission order.
type SweepTaskResult struct {
	Name   string            `json:"name"`
	Seed   int64             `json:"seed"`
	Inject string            `json:"inject,omitempty"`
	Error  string            `json:"error,omitempty"`
	Result *runner.ResultDoc `json:"result,omitempty"`
}

// SweepResponse is the body of a completed sweep.
type SweepResponse struct {
	ProgramSHA256 string            `json:"program_sha256"`
	CacheHit      bool              `json:"cache_hit"`
	Results       []SweepTaskResult `json:"results"`
}

// sweepVariant is one expanded (seed, inject) point of a sweep or
// regression batch.
type sweepVariant struct {
	name   string
	seed   int64
	inject string
	// canon is the canonical form of inject — the archive key's inject
	// axis.
	canon string
	spec  runner.Spec
}

// expandSweep expands the cross product over a built base job through
// the shared ExpandVariants and attaches the concrete run spec each
// variant executes with.
func (s *Server) expandSweep(base *job, seeds []int64, injects []string) ([]sweepVariant, error) {
	expanded, err := ExpandVariants(base.spec.Seed, base.spec.Inject, seeds, injects, s.opts.MaxSweepTasks)
	if err != nil {
		return nil, err
	}
	variants := make([]sweepVariant, 0, len(expanded))
	for _, v := range expanded {
		sv := sweepVariant{
			name:   v.Name,
			seed:   v.Seed,
			inject: v.Inject,
			canon:  v.Canon,
			spec:   base.spec,
		}
		sv.spec.Seed = v.Seed
		sv.spec.Inject = v.Inject
		variants = append(variants, sv)
	}
	return variants, nil
}

// runSweepVariants executes the variants over the sweep worker pool.
// It returns the engine results, the per-variant result documents for
// the response (honouring the base job's profile flag; nil where the
// task failed), and the prepared archive records — one per variant,
// always carrying the fully profiled document, not yet appended. The
// caller decides whether and when to append them: sweeps record
// immediately, the regression gate compares first. parent, when
// non-nil, gets one "variant" child span per task wrapping its run.
func (s *Server) runSweepVariants(base *job, variants []sweepVariant, parent *obs.Span) ([]sweep.Result, []*runner.ResultDoc, []archive.Record) {
	n := len(variants)
	tasks := make([]sweep.Task, 0, n)
	docs := make([]*runner.ResultDoc, n)
	archDocs := make([]*runner.ResultDoc, n)
	for idx := range variants {
		spec := variants[idx].spec
		i := idx
		tasks = append(tasks, sweep.Task{Name: variants[idx].name, Run: func(ctx context.Context) (sweep.Outcome, error) {
			vs := parent.Child("variant")
			vs.SetAttr("name", variants[i].name)
			res, err := runner.Run(ctx, base.prog, spec, runner.Options{Span: vs})
			if err != nil {
				res.Memory.Release()
				vs.SetAttr("error", err.Error())
				vs.Finish()
				return sweep.Outcome{}, err
			}
			vs.Finish()
			// The archive always gets the stall-attribution profile —
			// the baseline should carry everything the gate can compare
			// — while the response honours the request's profile flag.
			full := runner.NewResultDoc(res, base.peeks, true)
			res.Memory.Release()
			archDocs[i] = &full
			doc := full
			if !base.profile {
				doc.Profile = nil
			}
			docs[i] = &doc
			return sweep.Outcome{Cycles: res.Cycles, Stats: res.Stats}, nil
		}})
	}

	results, _ := sweep.Run(s.mgr.rootCtx, tasks, sweep.Options{
		Workers:     s.opts.Workers,
		TaskTimeout: s.opts.JobTimeout,
	})
	s.mgr.met.sweepTasks.Add(uint64(len(tasks)))

	now := s.mgr.wallMS()
	recs := make([]archive.Record, n)
	for i, res := range results {
		s.mgr.met.cyclesSimmed.Add(res.Cycles)
		s.mgr.met.sweepTask.Observe(res.Duration.Seconds())
		if res.Err != nil {
			// A failed task may have raced its document into place
			// before the deadline fired; the failure verdict wins.
			docs[i], archDocs[i] = nil, nil
		}
		recs[i] = archive.Record{
			Key: archive.Key{
				ProgramSHA256: base.progSHA,
				Arch:          string(base.prog.Arch()),
				Seed:          variants[i].seed,
				Inject:        variants[i].canon,
			},
			ExitCode: runner.ExitCode(res.Err),
			Result:   archDocs[i],
			UnixMS:   now,
		}
		if res.Err != nil {
			recs[i].Error = res.Err.Error()
		}
	}
	return results, docs, recs
}

// handleSweep fans a batch of (seed, inject) variations of one program
// out over the sweep worker pool and answers synchronously with the
// results in submission order. Concurrent sweep requests beyond the
// configured bound get 429 + Retry-After, the same backpressure
// contract as the job queue.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if s.mgr.shuttingDown() {
		s.setRetryAfter(w)
		writeError(w, http.StatusServiceUnavailable, ErrShuttingDown)
		return
	}
	select {
	case s.sweepSem <- struct{}{}:
		defer func() { <-s.sweepSem }()
	default:
		s.setRetryAfter(w)
		writeError(w, http.StatusTooManyRequests, errors.New("serve: sweep capacity in use"))
		return
	}

	var req SweepRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.opts.MaxSourceBytes*2))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	if req.Base.Trace {
		writeError(w, http.StatusBadRequest, errors.New("sweeps do not support trace=true"))
		return
	}
	base, status, err := s.buildJob(&req.Base)
	if err != nil {
		writeError(w, status, err)
		return
	}
	// The sweep root span: adopted from the coordinator's trace context
	// when the header is present, a fresh root otherwise.
	sc, _ := obs.ParseTraceHeader(r.Header.Get(obs.TraceHeader))
	sweepSpan := s.mgr.tr.Adopt(sc, "sweep")
	sweepSpan.SetAttr("digest", base.progSHA)
	sweepSpan.SetAttr("arch", string(base.prog.Arch()))
	if req.Detach {
		// Detached variants ride the job queue, not the synchronous
		// sweep pool; release the sweep slot before they even start.
		s.submitDetachedSweep(w, base, &req, sweepSpan)
		return
	}
	variants, err := s.expandSweep(base, req.Seeds, req.Injects)
	if err != nil {
		sweepSpan.SetAttr("error", err.Error())
		sweepSpan.Finish()
		writeError(w, http.StatusBadRequest, err)
		return
	}

	results, docs, recs := s.runSweepVariants(base, variants, sweepSpan)
	sweepSpan.Finish()
	w.Header().Set(obs.TraceHeader, obs.FormatTraceHeader(sweepSpan.Context()))
	s.mgr.met.sweepsRun.Inc()
	if s.mgr.arch != nil {
		for i := range recs {
			s.mgr.appendArchive(recs[i])
		}
	}

	resp := SweepResponse{ProgramSHA256: base.progSHA, CacheHit: base.cacheHit}
	for i, res := range results {
		out := SweepTaskResult{
			Name:   variants[i].name,
			Seed:   variants[i].seed,
			Inject: variants[i].inject,
			Result: docs[i],
		}
		if res.Err != nil {
			out.Error = res.Err.Error()
		}
		resp.Results = append(resp.Results, out)
	}
	writeJSON(w, http.StatusOK, resp)
}

// SweepSubmitResponse is the 202 body of a detached POST /v1/sweeps:
// the sweep id to poll plus the per-variant job ids in submission
// order, so a client (or the fabric coordinator, reconciling) can
// follow each variant through the regular job endpoints.
type SweepSubmitResponse struct {
	ID            string   `json:"id"`
	Status        State    `json:"status"`
	ProgramSHA256 string   `json:"program_sha256"`
	CacheHit      bool     `json:"cache_hit"`
	JobIDs        []string `json:"job_ids"`
}

// SweepVariantStatus is one entry of GET /v1/sweeps/{id}, in
// submission order.
type SweepVariantStatus struct {
	Name     string `json:"name"`
	Seed     int64  `json:"seed"`
	Inject   string `json:"inject,omitempty"`
	JobID    string `json:"job_id"`
	Status   State  `json:"status"`
	ExitCode *int   `json:"exit_code,omitempty"`
	Error    string `json:"error,omitempty"`
}

// SweepStatus is the body of GET /v1/sweeps/{id}: the aggregate state
// plus every variant's job id and terminal state — the id list clients
// previously had to track themselves from the submit response.
type SweepStatus struct {
	ID            string               `json:"id"`
	Status        State                `json:"status"`
	ProgramSHA256 string               `json:"program_sha256"`
	CacheHit      bool                 `json:"cache_hit"`
	Queued        int                  `json:"queued"`
	Running       int                  `json:"running"`
	Done          int                  `json:"done"`
	Failed        int                  `json:"failed"`
	Variants      []SweepVariantStatus `json:"variants"`
}

// submitDetachedSweep expands the cross product, builds one job per
// variant (cache hits make the repeat decode free), and admits the
// whole batch atomically: either every variant is accepted — and, with
// durability on, journaled — or the request is rejected and nothing
// runs.
func (s *Server) submitDetachedSweep(w http.ResponseWriter, base *job, req *SweepRequest, sweepSpan *obs.Span) {
	// The sweep span covers expansion and atomic admission; each member
	// job roots its own lifecycle subtree under it and finishes on its
	// own schedule (spans are data — children may outlive the parent).
	defer sweepSpan.Finish()
	variants, err := ExpandVariants(base.spec.Seed, base.spec.Inject, req.Seeds, req.Injects, s.opts.MaxSweepTasks)
	if err != nil {
		sweepSpan.SetAttr("error", err.Error())
		writeError(w, http.StatusBadRequest, err)
		return
	}
	jobs := make([]*job, len(variants))
	for i, v := range variants {
		// Shallow copy: the slice fields are never mutated after submit,
		// so variants can share them.
		reqV := req.Base
		reqV.Seed = v.Seed
		reqV.Inject = v.Inject
		j, status, err := s.buildJob(&reqV)
		if err != nil {
			// Cannot happen for the seed/inject axes already validated by
			// ExpandVariants, but keep the door shut.
			sweepSpan.SetAttr("error", err.Error())
			writeError(w, status, err)
			return
		}
		j.span = sweepSpan.Child("job")
		jobs[i] = j
	}
	rec := &sweepRec{progSHA: base.progSHA, cacheHit: base.cacheHit, variants: variants, jobs: jobs}
	if err := s.mgr.submitSweep(jobs, rec); err != nil {
		sweepSpan.SetAttr("error", err.Error())
		switch {
		case errors.Is(err, ErrQueueFull):
			s.setRetryAfter(w)
			writeError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, ErrShuttingDown):
			s.setRetryAfter(w)
			writeError(w, http.StatusServiceUnavailable, err)
		default:
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	s.mgr.met.sweepsRun.Inc()
	sweepSpan.SetAttr("sweep_id", rec.id)
	w.Header().Set(obs.TraceHeader, obs.FormatTraceHeader(sweepSpan.Context()))
	resp := SweepSubmitResponse{
		ID:            rec.id,
		Status:        StateQueued,
		ProgramSHA256: base.progSHA,
		CacheHit:      base.cacheHit,
	}
	for _, j := range jobs {
		resp.JobIDs = append(resp.JobIDs, j.id)
	}
	writeJSON(w, http.StatusAccepted, resp)
}

// handleSweepStatus serves GET /v1/sweeps/{id} for detached sweeps.
func (s *Server) handleSweepStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.mgr.sweepStatus(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}
