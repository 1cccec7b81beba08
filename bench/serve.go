package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dnstime/internal/serve"
)

// jobSpec is a serve-mix submission body (campaign.JobSpec's JSON form).
type jobSpec struct {
	Scenario string `json:"scenario"`
	Seeds    int    `json:"seeds"`
	BaseSeed int64  `json:"base_seed"`
}

func (s jobSpec) key() string { return fmt.Sprintf("%s/%d+%d", s.Scenario, s.BaseSeed, s.Seeds) }

// jobList is serve-mix's job sequence, generated from the workload seed:
// 50% new specs, 30% repeats of any earlier entry and 20% repeats of the
// entry just before. Repeats reach the server
// as cache hits, as submissions coalesced onto the same spec still
// running, or, once the spec has left the 256-entry cache, as checkpoint
// warm-starts.
type jobList struct {
	mu    sync.Mutex
	rng   *rand.Rand
	base  int64
	specs []jobSpec
}

func newJobList(seed int64) *jobList {
	return &jobList{rng: rand.New(rand.NewSource(seed)), base: seedBase(seed) + jobOffset}
}

func (l *jobList) at(i int) jobSpec {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.specs) <= i {
		n := len(l.specs)
		var s jobSpec
		switch r := l.rng.Float64(); {
		case n == 0 || r < 0.5:
			s = jobSpec{
				Scenario: serveScenarios[l.rng.Intn(len(serveScenarios))],
				Seeds:    serveJobSeeds,
				BaseSeed: l.base + l.rng.Int63n(jobOffset),
			}
		case r < 0.8:
			s = l.specs[l.rng.Intn(n)]
		default:
			s = l.specs[n-1]
		}
		l.specs = append(l.specs, s)
	}
	return l.specs[i]
}

// Job kinds, from the server's answer to the submission and whether this
// run has seen the spec complete before.
const (
	kindCold      = "cold"      // 202, new spec: the campaign executes
	kindWarm      = "warm"      // 202, spec completed before: resumed from its checkpoint
	kindHit       = "hit"       // 200 from the aggregate cache
	kindCoalesced = "coalesced" // 200 onto the identical job in flight
	kindRejected  = "rejected"  // any other status
	kindFailed    = "failed"    // transport error or error line
	kindWrong     = "wrong"     // aggregate differs from the spec's first one
)

// jobRecord times one job from the client's side.
type jobRecord struct {
	kind string
	err  string
	// submit is the POST round trip, stream the stream request to its
	// terminal line, first the POST answer to the first result line, and
	// total the POST sent to the terminal line.
	submit, stream, first, total time.Duration
	aggDigest                    string
}

func (j jobRecord) ok() bool {
	switch j.kind {
	case kindCold, kindWarm, kindHit, kindCoalesced:
		return true
	}
	return false
}

// serveBench is an in-process serve.Server on the httptest loopback with
// the clients that drive it.
type serveBench struct {
	srv    *serve.Server
	ts     *httptest.Server
	client *http.Client
	dir    string
	spans  *spanLog

	mu   sync.Mutex
	aggs map[string]string // spec key → digest of its first aggregate

	executed0, resumed0 int64
	heap0               uint64
}

// serveClients is how many closed-loop clients a pass runs (fewer when
// GOMAXPROCS is smaller): two clients are what lets a repeat find its spec
// still running and coalesce onto it.
func serveClients() int { return min(2, runtime.GOMAXPROCS(0)) }

// startServe starts a server (one engine worker, a state directory for
// checkpoints, the default queue and cache) and warms it with one cold job
// per scenario and one cache hit, at seeds outside the job list's range.
func startServe(ctx context.Context, r *runner) (*serveBench, error) {
	if err := os.MkdirAll(r.cfg.stateRoot, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(r.cfg.stateRoot, "serve-state-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{Workers: timedWorkers, StateDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	b := &serveBench{
		srv:    srv,
		ts:     httptest.NewServer(srv.Handler()),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients()}},
		dir:    dir,
		spans:  r.spans,
		aggs:   map[string]string{},
	}
	base := seedBase(r.cfg.seed) + warmOffset
	warm := make([]jobSpec, 0, len(serveScenarios)+1)
	for _, s := range serveScenarios {
		warm = append(warm, jobSpec{s, serveJobSeeds, base})
	}
	warm = append(warm, warm[0])
	for i, spec := range warm {
		want := kindCold
		if i == len(warm)-1 {
			want = kindHit
		}
		if j := b.job(ctx, spec, r.root); j.kind != want {
			b.close()
			return nil, fmt.Errorf("serve warm-up %s: %s job, want %s %s", spec.key(), j.kind, want, j.err)
		}
	}
	if b.executed0, b.resumed0, err = b.engineRuns(ctx); err != nil {
		b.close()
		return nil, err
	}
	b.heap0 = heapAfterGC()
	return b, nil
}

func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// close stops the server and its listener and removes the state directory.
func (b *serveBench) close() {
	b.client.CloseIdleConnections()
	b.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = b.srv.Shutdown(ctx) // a drain that times out still leaves nothing to clean up but the directory
	os.RemoveAll(b.dir)
}

// engineRuns reads the executed and checkpoint-resumed seed counters from
// GET /metrics.
func (b *serveBench) engineRuns(ctx context.Context) (executed, resumed int64, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.ts.URL+"/metrics", nil)
	if err != nil {
		return 0, 0, err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	var doc struct {
		Engine struct {
			ExecutedRuns int64 `json:"executed_runs"`
			ResumedRuns  int64 `json:"resumed_runs"`
		} `json:"engine"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return 0, 0, fmt.Errorf("GET /metrics: %w", err)
	}
	return doc.Engine.ExecutedRuns, doc.Engine.ResumedRuns, nil
}

// job submits one spec, streams its job to the terminal line and checks
// the aggregate against the first one this run saw for the spec.
func (b *serveBench) job(ctx context.Context, spec jobSpec, parent int) jobRecord {
	var id int
	if b.spans != nil {
		id = b.spans.begin("job", spec.key(), parent)
		defer b.spans.end(id)
	}
	rec := b.submitAndStream(ctx, spec, id)
	if !rec.ok() {
		return rec
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if first, seen := b.aggs[spec.key()]; !seen {
		b.aggs[spec.key()] = rec.aggDigest
	} else if first != rec.aggDigest {
		rec.kind, rec.err = kindWrong, fmt.Sprintf("%s: aggregate %s, first served %s", spec.key(), rec.aggDigest, first)
	}
	return rec
}

func (b *serveBench) submitAndStream(ctx context.Context, spec jobSpec, span int) jobRecord {
	var rec jobRecord
	fail := func(kind string, err error) jobRecord {
		rec.kind, rec.err = kind, fmt.Sprintf("%s: %v", spec.key(), err)
		return rec
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return fail(kindFailed, err)
	}
	b.mu.Lock()
	_, completed := b.aggs[spec.key()]
	b.mu.Unlock()

	t0 := time.Now()
	sub := b.spans.begin("serve", "POST /jobs", span)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.ts.URL+"/jobs", bytes.NewReader(body))
	if err != nil {
		return fail(kindFailed, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := b.client.Do(req)
	if err != nil {
		return fail(kindFailed, err)
	}
	var view struct {
		ID     string `json:"id"`
		Cached bool   `json:"cached"`
	}
	err = json.NewDecoder(resp.Body).Decode(&view)
	resp.Body.Close()
	answered := time.Now()
	b.spans.end(sub)
	rec.submit = answered.Sub(t0)
	switch {
	case err != nil:
		return fail(kindFailed, err)
	case resp.StatusCode == http.StatusAccepted && completed:
		rec.kind = kindWarm
	case resp.StatusCode == http.StatusAccepted:
		rec.kind = kindCold
	case resp.StatusCode == http.StatusOK && view.Cached:
		rec.kind = kindHit
	case resp.StatusCode == http.StatusOK:
		rec.kind = kindCoalesced
	default:
		return fail(kindRejected, fmt.Errorf("POST /jobs answered %s", resp.Status))
	}

	st := b.spans.begin("serve", "GET /jobs/{id}/stream", span)
	defer b.spans.end(st)
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, b.ts.URL+"/jobs/"+view.ID+"/stream", nil)
	if err != nil {
		return fail(kindFailed, err)
	}
	resp, err = b.client.Do(req)
	if err != nil {
		return fail(kindFailed, err)
	}
	defer resp.Body.Close()
	br := bufio.NewReader(resp.Body)
	resultPrefix := []byte(`{"type":"result"`)
	for {
		line, err := br.ReadBytes('\n')
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return fail(kindFailed, fmt.Errorf("stream: %w", err))
		}
		if bytes.HasPrefix(line, resultPrefix) {
			if rec.first == 0 {
				rec.first = time.Since(answered)
			}
			continue
		}
		end := time.Now()
		var term struct {
			Type      string          `json:"type"`
			Aggregate json.RawMessage `json:"aggregate"`
			Error     string          `json:"error"`
		}
		if err := json.Unmarshal(line, &term); err != nil {
			return fail(kindFailed, fmt.Errorf("stream line: %w", err))
		}
		if term.Type != "aggregate" || term.Error != "" || len(term.Aggregate) == 0 {
			return fail(kindFailed, fmt.Errorf("terminal line %s %q", term.Type, term.Error))
		}
		rec.stream = end.Sub(answered)
		rec.total = end.Sub(t0)
		rec.aggDigest = digest(term.Aggregate)
		// Drain the connection so it can be reused.
		_, _ = io.Copy(io.Discard, br)
		return rec
	}
}

// passStats is one closed-loop serve pass. wall sums the segments' wall
// times, without the host reference samples between them.
type passStats struct {
	wall time.Duration
	jobs []jobRecord
}

func (p passStats) durations(keep func(jobRecord) bool, value func(jobRecord) time.Duration) []time.Duration {
	var out []time.Duration
	for _, j := range p.jobs {
		if keep(j) {
			out = append(out, value(j))
		}
	}
	return out
}

func (p passStats) count(kind string) int {
	n := 0
	for _, j := range p.jobs {
		if j.kind == kind {
			n++
		}
	}
	return n
}

// serveJobsPerSecond sizes a serve pass: a pass of s seconds serves the
// job list's first s·80 jobs, about s seconds' worth on the 2-core VM the
// committed results come from. The count is fixed rather than the time,
// because the mix of cold runs, hits, coalesced jobs and warm-starts
// changes along the list: a faster build must serve the same traffic.
const serveJobsPerSecond = 80

// segmentJobs is how many jobs run between two host reference samples.
const segmentJobs = 50

// minPassJobs keeps even a very short pass long enough to reach repeats.
const minPassJobs = 8

func serveJobs(seconds float64) int {
	return max(minPassJobs, int(math.Round(seconds*serveJobsPerSecond)))
}

// pass runs the closed loop over the job list's first n jobs: each client
// submits the next job of the list and streams it to its terminal line
// before taking another. The jobs run in segments of segmentJobs, with a
// host reference sample (ref may be nil) before each. The list is shared,
// so the job sequence is the same however the clients interleave; which
// repeats hit, coalesce or warm-start is not.
func (b *serveBench) pass(ctx context.Context, list *jobList, n int, ref *hostRef, parent int) passStats {
	var ps passStats
	for lo := 0; lo < n; lo += segmentJobs {
		ref.sample()
		hi := min(n, lo+segmentJobs)
		clients := serveClients()
		var next atomic.Int64
		next.Store(int64(lo))
		recs := make([][]jobRecord, clients)
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := int(next.Add(1) - 1); i < hi; i = int(next.Add(1) - 1) {
					recs[c] = append(recs[c], b.job(ctx, list.at(i), parent))
				}
			}(c)
		}
		wg.Wait()
		ps.wall += time.Since(start)
		for _, rs := range recs {
			ps.jobs = append(ps.jobs, rs...)
		}
	}
	return ps
}

// servePass counts a pass's jobs and records every one that failed.
func (r *runner) servePass(ps passStats) {
	r.attempted += len(ps.jobs)
	for _, j := range ps.jobs {
		if !j.ok() {
			r.fail(1, fmt.Sprintf("%s job: %s", j.kind, j.err))
		}
	}
}

// serveFixtureJobs is how many of the job list's first distinct specs are
// resubmitted after the pass and, at seed 1, checked against their
// committed digests.
const serveFixtureJobs = 3

// checkServe resubmits the first distinct specs of the job list: each
// repeat must return the bytes its first run did (job checks that), and at
// seed 1 those bytes must match the committed digests.
func (r *runner) checkServe(ctx context.Context, b *serveBench, list *jobList) {
	span := r.spans.begin("check", "output checks", r.root)
	defer r.spans.end(span)
	seen := map[string]bool{}
	for i := 0; len(seen) < serveFixtureJobs; i++ {
		spec := list.at(i)
		if seen[spec.key()] {
			continue
		}
		seen[spec.key()] = true
		j := b.job(ctx, spec, span)
		r.attempted++
		if !j.ok() {
			r.fail(1, fmt.Sprintf("check %s job: %s", j.kind, j.err))
			continue
		}
		if r.cfg.seed == 1 {
			want, ok := r.cfg.digests["serve-mix/"+spec.key()]
			switch {
			case !ok:
				r.fail(1, fmt.Sprintf("serve-mix/%s: no committed digest (got %s)", spec.key(), j.aggDigest))
			case want != j.aggDigest:
				r.fail(1, fmt.Sprintf("serve-mix/%s: aggregate digest %s, committed %s", spec.key(), j.aggDigest, want))
			}
		}
	}
}
