package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dnstime/internal/campaign"
	"dnstime/internal/obs"
	"dnstime/internal/scenario"
)

// defaultQueueCap bounds the job queue when Config.QueueCap is unset: a
// dashboard's worth of distinct campaigns can wait while one runs, and
// anything beyond that is load the client should shed (503) rather than
// buffer unboundedly.
const defaultQueueCap = 32

// Config sizes the resident experiment service. The zero value is a
// usable in-memory service: GOMAXPROCS engine workers, a 32-deep queue,
// no durable state, no rate limiting, no pprof.
type Config struct {
	// Workers is the shared engine worker budget each campaign runs on
	// (0 = GOMAXPROCS). It cannot change campaign output, only speed.
	Workers int
	// QueueCap bounds the FIFO job queue (0 = 32). Submissions beyond it
	// are rejected with 503 rather than buffered without limit.
	QueueCap int
	// StateDir, when set, holds one engine checkpoint per campaign key
	// (campaign.CheckpointPath, shared with search's state directories):
	// every completed seed is recorded as it finishes, a drained job's
	// seeds are resumed byte-identically on resubmission (even across a
	// server restart), and a completed campaign replays entirely from its
	// checkpoint. Empty disables durable state.
	StateDir string
	// Rate is the per-client token-bucket refill in submissions per
	// second (<= 0 disables rate limiting); Burst is the bucket size.
	Rate  float64
	Burst int
	// Pprof mounts net/http/pprof under /debug/pprof/ for live CPU and
	// heap profiling of the serving process.
	Pprof bool
	// CacheCap bounds the completed-aggregate cache (0 = 256 entries,
	// FIFO eviction).
	CacheCap int
	// Clock injects the wall clock used by metrics and the rate limiter
	// (nil = time.Now). Campaign output never depends on it.
	Clock func() time.Time
}

// Server is a resident experiment service instance: an HTTP API over a
// bounded FIFO campaign queue, an aggregate cache, per-client rate
// limiting and operational metrics. Build with New, mount Handler on an
// http.Server, and drain with Shutdown.
type Server struct {
	cfg     Config
	clock   func() time.Time
	mux     http.Handler
	limiter *Limiter
	cache   *cache
	metrics *metrics

	queueCh      chan *job
	quit         chan struct{}
	dispatchDone chan struct{}
	baseCtx      context.Context
	baseCancel   context.CancelFunc

	nextID atomic.Int64

	mu       sync.Mutex
	draining bool
	jobs     map[string]*job
	order    []*job
	inflight map[string]*job // queued or running, by campaign key
}

// New builds the service and starts its dispatcher. The state directory
// is created if needed.
func New(cfg Config) (*Server, error) {
	if cfg.StateDir != "" {
		if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
			return nil, fmt.Errorf("serve: state dir: %w", err)
		}
	}
	clock := cfg.Clock
	if clock == nil {
		clock = time.Now
	}
	queueCap := cfg.QueueCap
	if queueCap <= 0 {
		queueCap = defaultQueueCap
	}
	s := &Server{
		cfg:          cfg,
		clock:        clock,
		limiter:      NewLimiter(cfg.Rate, cfg.Burst, clock),
		cache:        newCache(cfg.CacheCap),
		metrics:      newMetrics(clock),
		queueCh:      make(chan *job, queueCap),
		quit:         make(chan struct{}),
		dispatchDone: make(chan struct{}),
		jobs:         map[string]*job{},
		inflight:     map[string]*job{},
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())

	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /scenarios", s.handleScenarios)
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/stream", s.handleStream)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	s.mux = mux

	go s.dispatch()
	return s, nil
}

// Handler returns the service's HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown drains the service: submissions are refused, the running
// campaign's context is cancelled (its engine drains workers and leaves
// every completed seed in the state directory's checkpoint), and queued
// jobs are marked canceled. It returns once the dispatcher has stopped,
// or ctx's error if that takes longer than the caller will wait.
// Shutdown is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.quit)
		s.baseCancel()
	}
	s.mu.Unlock()
	select {
	case <-s.dispatchDone:
	case <-ctx.Done():
		return ctx.Err()
	}
	for {
		select {
		case j := <-s.queueCh:
			s.cancelJob(j, "server draining")
		default:
			return nil
		}
	}
}

// dispatch is the queue consumer: one campaign at a time, FIFO, on the
// shared worker budget. It prefers the quit signal over new work so a
// drain never starts another campaign.
func (s *Server) dispatch() {
	defer close(s.dispatchDone)
	for {
		select {
		case <-s.quit:
			return
		default:
		}
		select {
		case <-s.quit:
			return
		case j := <-s.queueCh:
			s.runJob(j)
		}
	}
}

// runJob executes one queued campaign through the Engine, streaming
// per-seed results into the job's replay buffer, then records the
// terminal state and (for complete campaigns) populates the aggregate
// cache.
func (s *Server) runJob(j *job) {
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	if !j.begin(cancel) {
		return // cancelled while queued; the cancel path updated metrics
	}
	s.metrics.jobsQueued.Dec()
	s.metrics.jobsRunning.Inc()
	start := s.clock()

	var executed atomic.Int64
	opts := j.spec.Options(
		campaign.WithWorkers(s.cfg.Workers),
		// Progress fires once per seed actually executed (resumed seeds
		// are pre-counted, cancelled runs never report), so this counter
		// is exactly the engine work this job cost.
		campaign.WithProgress(func(done, total int) { executed.Add(1) }),
	)
	if s.cfg.StateDir != "" {
		path := campaign.CheckpointPath(s.cfg.StateDir, j.key)
		opts = append(opts, campaign.WithCheckpoint(path))
	}
	if j.spec.Trace {
		// Traced jobs record one in-memory Chrome trace per executed seed
		// (pid = seed, so the merged /trace view shows one process lane per
		// seed). Resumed seeds are not re-executed and leave no trace.
		opts = append(opts, campaign.WithTracerFactory(func(seed int64) (obs.Tracer, error) {
			buf := &bytes.Buffer{}
			j.addTrace(seed, buf)
			return obs.NewChrome(buf, seed), nil
		}))
	}
	s.metrics.engineCampaigns.Inc()

	st, err := campaign.NewEngine(opts...).Stream(ctx, j.spec.Scenario)
	if err != nil {
		s.endJob(j, stateFailed, nil, err.Error(), 0, 0, s.clock().Sub(start).Seconds())
		return
	}
	for res := range st.Results() {
		j.push(res)
	}
	agg, err := st.Wait()
	exec := executed.Load()
	resumed := int64(agg.Runs) - exec
	seconds := s.clock().Sub(start).Seconds()

	switch {
	case err == nil && !agg.Partial:
		raw, merr := marshalAggregate(agg)
		if merr != nil {
			s.endJob(j, stateFailed, nil, merr.Error(), exec, resumed, seconds)
			return
		}
		if !j.spec.Trace {
			// A traced job's deliverable includes the trace, which the
			// aggregate cache cannot replay — traced campaigns always
			// execute. Trace is part of the job Key, so they never collide
			// with untraced entries either.
			s.cache.put(j.key, agg)
		}
		s.endJob(j, stateDone, raw, "", exec, resumed, seconds)
	case agg.Partial:
		// A cancelled campaign still has a well-defined partial aggregate
		// over its completed seeds; the checkpoint (if any) holds them for
		// resumption. Partial aggregates never enter the cache.
		raw, _ := marshalAggregate(agg)
		msg := "canceled"
		if err != nil {
			msg = err.Error()
		}
		s.endJob(j, stateCanceled, raw, msg, exec, resumed, seconds)
	default:
		s.endJob(j, stateFailed, nil, err.Error(), exec, resumed, seconds)
	}
}

// endJob frees a run's campaign key, then records its terminal state
// and folds it into the metrics. The key goes first: a client that sees
// the job ended and resubmits its spec must get a fresh job, never this
// one.
func (s *Server) endJob(j *job, state string, agg json.RawMessage, errMsg string, executed, resumed int64, seconds float64) {
	s.dropInflight(j)
	j.finish(state, agg, errMsg)
	s.metrics.jobsRunning.Dec()
	switch state {
	case stateDone:
		s.metrics.jobsDone.Inc()
	case stateFailed:
		s.metrics.jobsFailed.Inc()
	case stateCanceled:
		s.metrics.jobsCanceled.Inc()
	}
	s.metrics.jobFinished(j.spec.Scenario, executed, resumed, seconds)
}

// dropInflight removes the job's campaign-key reservation if it still
// holds it (idempotent — a resubmitted key may already point at a newer
// job).
func (s *Server) dropInflight(j *job) {
	s.mu.Lock()
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	s.mu.Unlock()
}

// lookupJob resolves a job ID.
func (s *Server) lookupJob(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// handleSubmit is POST /jobs: rate-limit the client, validate the spec,
// serve a cache hit instantly, coalesce onto an identical in-flight job,
// or enqueue — rejecting with 503 when the bounded queue is full or the
// server is draining.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.limiter.Allow(clientKey(r)) {
		s.metrics.rateLimited.Inc()
		writeErr(w, http.StatusTooManyRequests, "rate limit exceeded")
		return
	}
	spec, err := campaign.DecodeJobSpec(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Sprintf("bad submission: %v", err))
		return
	}
	norm, err := spec.Normalize()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}
	key, err := norm.Key()
	if err != nil {
		writeErr(w, http.StatusBadRequest, err.Error())
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeErr(w, http.StatusServiceUnavailable, "server draining")
		return
	}
	s.metrics.submissions.Inc()
	if agg, ok := s.cache.get(key); ok {
		j, err := newCachedJob(s.newID(), key, norm, agg)
		if err != nil {
			s.mu.Unlock()
			writeErr(w, http.StatusInternalServerError, err.Error())
			return
		}
		s.jobs[j.id] = j
		s.order = append(s.order, j)
		s.mu.Unlock()
		s.metrics.cacheHits.Inc()
		s.metrics.jobsDone.Inc()
		writeJSON(w, http.StatusOK, j.view(true))
		return
	}
	if live, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		s.metrics.coalesced.Inc()
		writeJSON(w, http.StatusOK, live.view(false))
		return
	}
	j := newJob(s.newID(), key, norm)
	select {
	case s.queueCh <- j:
	default:
		s.mu.Unlock()
		s.metrics.queueFull.Inc()
		writeErr(w, http.StatusServiceUnavailable, "job queue full")
		return
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	s.inflight[key] = j
	s.mu.Unlock()
	s.metrics.cacheMisses.Inc()
	s.metrics.jobsQueued.Inc()
	writeJSON(w, http.StatusAccepted, j.view(false))
}

// newID mints the next job ID. Callers hold s.mu only incidentally; the
// counter is atomic.
func (s *Server) newID() string {
	return fmt.Sprintf("j%d", s.nextID.Add(1))
}

// handleList is GET /jobs: every job in submission order, without
// aggregate payloads.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]jobView, len(s.order))
	for i, j := range s.order {
		views[i] = j.view(false)
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, struct {
		Jobs []jobView `json:"jobs"`
	}{views})
}

// handleStatus is GET /jobs/{id}: one job, aggregate included once
// terminal.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.view(true))
}

// handleCancel is POST /jobs/{id}/cancel (or DELETE /jobs/{id}): cancel
// a queued or running job. Terminal jobs answer 409.
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	if before, acted := s.cancelJob(j, "canceled by client"); !acted {
		writeErr(w, http.StatusConflict, fmt.Sprintf("job already %s", before))
		return
	}
	writeJSON(w, http.StatusOK, j.view(true))
}

// cancelJob frees j's campaign key, then asks the job to stop: a queued
// job turns canceled on the spot, a running one when its engine drains.
// Like endJob it frees the key first, so a resubmission never coalesces
// onto a job that is ending. It returns requestCancel's report.
func (s *Server) cancelJob(j *job, reason string) (before string, acted bool) {
	s.dropInflight(j)
	before, acted = j.requestCancel(reason)
	if acted && before == stateQueued {
		s.metrics.jobsQueued.Dec()
		s.metrics.jobsCanceled.Inc()
	}
	return before, acted
}

// streamLine is one JSONL line of GET /jobs/{id}/stream: per-seed
// results as they complete, then exactly one terminal line — an
// aggregate (whose bytes match `experiments campaigns -json` for the
// same spec; partial and cancelled campaigns carry the cancellation in
// the error field alongside their partial aggregate) or an error.
type streamLine struct {
	Type      string          `json:"type"` // "result", "aggregate" or "error"
	Result    json.RawMessage `json:"result,omitempty"`
	Aggregate json.RawMessage `json:"aggregate,omitempty"`
	Cached    bool            `json:"cached,omitempty"`
	Error     string          `json:"error,omitempty"`
}

// handleStream is GET /jobs/{id}/stream: JSONL per-seed results in
// completion order (a finished or cached job replays its buffer — seed
// order for cached aggregates), terminated by the aggregate or error
// line. Any number of clients may stream one job; a subscriber joining
// mid-campaign first receives the full replay.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	// A disconnecting client must unblock its own cond.Wait below.
	stop := context.AfterFunc(r.Context(), j.wake)
	defer stop()

	next := 0
	for {
		j.mu.Lock()
		for next >= len(j.results) && !terminal(j.state) && r.Context().Err() == nil {
			j.cond.Wait()
		}
		batch := append([]scenario.Result(nil), j.results[next:]...)
		next += len(batch)
		state, agg, errMsg, cached := j.state, j.agg, j.errMsg, j.cached
		final := terminal(state) && next == len(j.results)
		j.mu.Unlock()

		if r.Context().Err() != nil {
			return
		}
		for _, res := range batch {
			raw, err := json.Marshal(res)
			if err != nil {
				return
			}
			if !writeLine(w, streamLine{Type: "result", Result: raw}) {
				return
			}
		}
		if final {
			line := streamLine{Type: "aggregate", Aggregate: agg, Cached: cached, Error: errMsg}
			if agg == nil {
				line = streamLine{Type: "error", Error: errMsg}
			}
			writeLine(w, line)
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// writeLine emits one JSONL line, reporting whether the write succeeded.
func writeLine(w http.ResponseWriter, line streamLine) bool {
	b, err := json.Marshal(line)
	if err != nil {
		return false
	}
	_, err = w.Write(append(b, '\n'))
	return err == nil
}

// handleMetrics is GET /metrics. The default view is the service's
// operational counters as a JSON document; a client that asks for
// ?format=prometheus (or sends an Accept header preferring text/plain or
// OpenMetrics) gets the Prometheus text exposition instead — the server's
// own registry merged with the process-wide obs.Default instruments (lab
// pool, phase timing, engine seed latency). Both views read the same
// counters.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r) {
		s.metrics.cacheEntries.Set(int64(s.cache.len()))
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_ = obs.WritePrometheus(w, s.metrics.reg, obs.Default)
		return
	}
	writeJSON(w, http.StatusOK, s.metrics.snapshot(s.cache.len()))
}

// wantsPrometheus decides the /metrics representation: an explicit
// ?format= wins (prometheus/text vs json), otherwise the Accept header —
// text/plain or OpenMetrics selects the Prometheus exposition, anything
// else (including no preference) keeps the historical JSON document.
func wantsPrometheus(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prometheus", "text":
		return true
	case "json":
		return false
	}
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "application/openmetrics-text")
}

// handleHealthz is GET /healthz: liveness plus the build revision, so a
// fleet health sweep identifies what each instance is running.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	status := "ok"
	if s.draining {
		status = "draining"
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, struct {
		Status   string `json:"status"`
		Revision string `json:"revision"`
	}{status, obs.BuildInfo().Revision})
}

// handleTrace is GET /jobs/{id}/trace: the merged Chrome trace_event
// document of a completed traced job — every executed seed's events in
// one array, one process lane (pid) per seed. Jobs submitted without
// trace:true answer 404; a job still queued or running answers 409 (its
// per-seed buffers are not final until the engine drains).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "no such job")
		return
	}
	if !j.spec.Trace {
		writeErr(w, http.StatusNotFound, "job was not submitted with trace:true")
		return
	}
	merged, done := j.mergedTrace()
	if !done {
		writeErr(w, http.StatusConflict, "job not finished; trace is available once terminal")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(merged)
}

// handleScenarios is GET /scenarios: the registry as submission
// building blocks — names, titles, paper refs and accepted param keys.
func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Name      string   `json:"name"`
		Title     string   `json:"title"`
		PaperRef  string   `json:"paper_ref,omitempty"`
		ParamKeys []string `json:"param_keys,omitempty"`
	}
	all := scenario.All()
	entries := make([]entry, len(all))
	for i, sc := range all {
		entries[i] = entry{Name: sc.Name, Title: sc.Title, PaperRef: sc.PaperRef, ParamKeys: sc.ParamKeys}
	}
	writeJSON(w, http.StatusOK, struct {
		Scenarios []entry `json:"scenarios"`
	}{entries})
}

// clientKey identifies a client for rate limiting: the connection's
// remote host, ignoring the ephemeral port.
func clientKey(r *http.Request) string {
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// writeJSON renders v as a JSON response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeErr renders an error response as {"error": msg}.
func writeErr(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, struct {
		Error string `json:"error"`
	}{msg})
}
