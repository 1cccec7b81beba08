package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dnstime/internal/campaign"
	"dnstime/internal/search"
)

// recvSeed waits (bounded) for a parked scenario run to announce itself.
func recvSeed(t *testing.T, blocked chan int64) int64 {
	t.Helper()
	select {
	case seed := <-blocked:
		return seed
	case <-time.After(10 * time.Second):
		t.Fatal("no scenario run reached the gate")
		return 0
	}
}

// engineAggregate runs the reference campaign directly through the
// Engine and returns the aggregate bytes the service must reproduce.
func engineAggregate(t *testing.T, spec campaign.JobSpec) []byte {
	t.Helper()
	norm, err := spec.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	agg, err := campaign.NewEngine(norm.Options(campaign.WithWorkers(1))...).Run(context.Background(), norm.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := marshalAggregate(agg)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestServeStreamMatchesEngineAtAnyWorkerCount is the service half of
// the acceptance criterion: the streamed aggregate for a spec is
// byte-identical to a direct Engine run of the same spec, whatever
// worker budget the server was given.
func TestServeStreamMatchesEngineAtAnyWorkerCount(t *testing.T) {
	stSet(0)
	want := engineAggregate(t, campaign.JobSpec{Scenario: "servetest", Seeds: 8})
	for _, workers := range []int{1, 7} {
		_, ts := testServer(t, Config{Workers: workers})
		status, v := submit(t, ts.URL, `{"scenario":"servetest","seeds":8}`)
		if status != http.StatusAccepted {
			t.Fatalf("workers %d: submit status %d", workers, status)
		}
		lines := streamJob(t, ts.URL, v.ID)
		final := lines[len(lines)-1]
		if final.Type != "aggregate" || final.Error != "" {
			t.Fatalf("workers %d: terminal line %+v", workers, final)
		}
		if !bytes.Equal(final.Aggregate, want) {
			t.Errorf("workers %d: served aggregate differs from Engine:\n%s\nvs\n%s",
				workers, final.Aggregate, want)
		}
		if got := len(lines) - 1; got != 8 {
			t.Errorf("workers %d: streamed %d per-seed lines, want 8", workers, got)
		}
	}
}

// TestServeCacheHitSkipsEngine: a repeat submission of an identical spec
// is served from the aggregate cache — same bytes, full per-seed replay,
// and no second Engine campaign.
func TestServeCacheHitSkipsEngine(t *testing.T) {
	stSet(0)
	_, ts := testServer(t, Config{Workers: 2})
	body := `{"scenario":"servetest","seeds":6,"params":{"tag":"hit"}}`

	status, v1 := submit(t, ts.URL, body)
	if status != http.StatusAccepted {
		t.Fatalf("first submit status %d", status)
	}
	first := waitDone(t, ts.URL, v1.ID)
	if first.Type != "aggregate" || first.Cached {
		t.Fatalf("first terminal line %+v", first)
	}

	status, v2 := submit(t, ts.URL, body)
	if status != http.StatusOK {
		t.Fatalf("repeat submit status %d, want 200", status)
	}
	if !v2.Cached || v2.State != stateDone || v2.ID == v1.ID {
		t.Fatalf("repeat submission not served from cache: %+v", v2)
	}
	lines := streamJob(t, ts.URL, v2.ID)
	final := lines[len(lines)-1]
	if !final.Cached || !bytes.Equal(final.Aggregate, first.Aggregate) {
		t.Errorf("cached aggregate differs:\n%s\nvs\n%s", final.Aggregate, first.Aggregate)
	}
	if got := len(lines) - 1; got != 6 {
		t.Errorf("cached replay streamed %d per-seed lines, want 6", got)
	}

	var m metricsSnapshot
	getJSON(t, ts.URL+"/metrics", &m)
	if m.Engine.Campaigns != 1 {
		t.Errorf("engine campaigns = %d after a cache hit, want 1", m.Engine.Campaigns)
	}
	if m.Cache.Hits != 1 || m.Cache.Misses != 1 || m.Cache.Entries != 1 {
		t.Errorf("cache counters %+v, want 1 hit / 1 miss / 1 entry", m.Cache)
	}
	if m.Jobs.Done != 2 || m.Jobs.Submissions != 2 {
		t.Errorf("job counters %+v, want 2 done / 2 submissions", m.Jobs)
	}
}

// TestServeCoalesceAndQueueBounds: an identical spec submitted while the
// original is in flight coalesces onto it, and the bounded queue rejects
// overflow with 503 instead of buffering without limit.
func TestServeCoalesceAndQueueBounds(t *testing.T) {
	blocked, release := stSet(1)
	_, ts := testServer(t, Config{Workers: 1, QueueCap: 1})

	status, running := submit(t, ts.URL, `{"scenario":"servetest","seeds":2,"params":{"tag":"q1"}}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	recvSeed(t, blocked) // job q1 is now running, parked at the gate

	status, co := submit(t, ts.URL, `{"scenario":"servetest","seeds":2,"params":{"tag":"q1"}}`)
	if status != http.StatusOK || co.ID != running.ID {
		t.Fatalf("identical in-flight spec did not coalesce: status %d, %+v", status, co)
	}

	status, queued := submit(t, ts.URL, `{"scenario":"servetest","seeds":2,"params":{"tag":"q2"}}`)
	if status != http.StatusAccepted {
		t.Fatalf("second spec not queued: %d", status)
	}
	if status, _ = submit(t, ts.URL, `{"scenario":"servetest","seeds":2,"params":{"tag":"q3"}}`); status != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity submission status %d, want 503", status)
	}

	// Cancelling the queued job settles it without ever running.
	resp, err := http.Post(ts.URL+"/jobs/"+queued.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel queued status %d", resp.StatusCode)
	}

	close(release)
	if final := waitDone(t, ts.URL, running.ID); final.Type != "aggregate" || final.Error != "" {
		t.Errorf("released job terminal line %+v", final)
	}
	if final := waitDone(t, ts.URL, queued.ID); final.Type != "error" {
		t.Errorf("cancelled queued job terminal line %+v, want error", final)
	}
	if comps := stCompletions(); comps[1]+comps[2] != 2 {
		t.Errorf("completions %v, want only the released job's two seeds", comps)
	}
}

// TestServeCancelRunning: cancelling a running job drains its engine and
// leaves a partial aggregate; a second cancel reports 409.
func TestServeCancelRunning(t *testing.T) {
	blocked, _ := stSet(1)
	_, ts := testServer(t, Config{Workers: 1})
	_, v := submit(t, ts.URL, `{"scenario":"servetest","seeds":3,"params":{"tag":"cancel"}}`)
	recvSeed(t, blocked)

	resp, err := http.Post(ts.URL+"/jobs/"+v.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	final := waitDone(t, ts.URL, v.ID)
	if final.Type != "aggregate" || final.Error == "" {
		t.Fatalf("cancelled job terminal line %+v, want partial aggregate with error", final)
	}
	var agg campaign.ScenarioAggregate
	if err := json.Unmarshal(final.Aggregate, &agg); err != nil {
		t.Fatal(err)
	}
	if !agg.Partial {
		t.Errorf("cancelled job's aggregate not marked partial: %+v", agg)
	}

	resp, err = http.Post(ts.URL+"/jobs/"+v.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("second cancel status %d, want 409", resp.StatusCode)
	}
}

// TestServeDrainCheckpointResume is the drain acceptance criterion:
// Shutdown cancels the in-flight campaign, its checkpoint in the state
// directory holds exactly the completed seeds, and a resubmission to a
// fresh server over the same state directory resumes those seeds without
// re-executing them — folding to bytes identical to an uninterrupted
// campaign.
func TestServeDrainCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	body := `{"scenario":"servetest","seeds":4,"params":{"tag":"drain"}}`

	blocked, _ := stSet(3) // seeds 1 and 2 complete, seed 3 parks
	s1, ts1 := testServer(t, Config{Workers: 1, StateDir: dir})
	status, v1 := submit(t, ts1.URL, body)
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	recvSeed(t, blocked)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	var drained jobView
	getJSON(t, ts1.URL+"/jobs/"+v1.ID, &drained)
	if drained.State != stateCanceled || drained.RunsDone != 2 {
		t.Fatalf("drained job = %+v, want canceled with 2 completed seeds", drained)
	}
	if status, _ := submit(t, ts1.URL, body); status != http.StatusServiceUnavailable {
		t.Errorf("draining server accepted a submission: %d", status)
	}

	ckpt := filepath.Join(dir, v1.Key+".jsonl")
	data, err := os.ReadFile(ckpt)
	if err != nil {
		t.Fatalf("no checkpoint after drain: %v", err)
	}
	if lines := bytes.Count(data, []byte("\n")); lines != 3 {
		t.Fatalf("checkpoint has %d lines, want header + 2 seeds:\n%s", lines, data)
	}
	firstRun := stCompletions()
	if firstRun[1] != 1 || firstRun[2] != 1 || firstRun[3] != 0 || firstRun[4] != 0 {
		t.Fatalf("completions before resume: %v", firstRun)
	}

	// Fresh server, same state directory: the resubmitted campaign must
	// resume seeds 1–2 from the checkpoint and only execute 3–4.
	stSet(0)
	_, ts2 := testServer(t, Config{Workers: 1, StateDir: dir})
	status, v2 := submit(t, ts2.URL, body)
	if status != http.StatusAccepted {
		t.Fatalf("resubmit status %d", status)
	}
	final := waitDone(t, ts2.URL, v2.ID)
	if final.Type != "aggregate" || final.Error != "" || final.Cached {
		t.Fatalf("resumed job terminal line %+v", final)
	}
	resumedRun := stCompletions()
	if resumedRun[1] != 0 || resumedRun[2] != 0 || resumedRun[3] != 1 || resumedRun[4] != 1 {
		t.Errorf("completions after resume: %v, want only seeds 3 and 4 executed once", resumedRun)
	}
	want := engineAggregate(t, campaign.JobSpec{Scenario: "servetest", Seeds: 4,
		Params: map[string]string{"tag": "drain"}})
	if !bytes.Equal(final.Aggregate, want) {
		t.Errorf("resumed aggregate differs from uninterrupted run:\n%s\nvs\n%s", final.Aggregate, want)
	}
	var m metricsSnapshot
	getJSON(t, ts2.URL+"/metrics", &m)
	if m.Engine.ResumedRuns != 2 || m.Engine.ExecutedRuns != 2 {
		t.Errorf("engine counters %+v, want 2 resumed / 2 executed", m.Engine)
	}
}

// TestServeCompletedCheckpointWarmStart: after a campaign completes, a
// restarted server over the same state directory rebuilds its aggregate
// entirely from the checkpoint — zero re-executed seeds.
func TestServeCompletedCheckpointWarmStart(t *testing.T) {
	dir := t.TempDir()
	body := `{"scenario":"servetest","seeds":3,"params":{"tag":"warm"}}`
	stSet(0)
	_, ts1 := testServer(t, Config{Workers: 1, StateDir: dir})
	_, v1 := submit(t, ts1.URL, body)
	first := waitDone(t, ts1.URL, v1.ID)

	stSet(0) // reset completion counts
	_, ts2 := testServer(t, Config{Workers: 1, StateDir: dir})
	_, v2 := submit(t, ts2.URL, body)
	warm := waitDone(t, ts2.URL, v2.ID)
	if !bytes.Equal(warm.Aggregate, first.Aggregate) {
		t.Errorf("warm-start aggregate differs:\n%s\nvs\n%s", warm.Aggregate, first.Aggregate)
	}
	if comps := stCompletions(); len(comps) != 0 {
		t.Errorf("warm start re-executed seeds: %v", comps)
	}
}

// TestServeWarmStartsFromSearchState pins the one state-directory
// layout: a search's probes are ordinary JobSpec campaigns
// checkpointed at campaign.CheckpointPath, so a server whose StateDir is
// a finished search's directory answers the JobSpec of any probe
// without executing a seed.
func TestServeWarmStartsFromSearchState(t *testing.T) {
	dir := t.TempDir()
	stSet(0)
	if _, err := search.Grid(context.Background(),
		[]search.Dim{{Key: "tag", Values: []string{"probe-a", "probe-b"}}},
		search.GridOptions{Options: search.Options{Scenario: "servetest", Seeds: 4, StateDir: dir}},
	); err != nil {
		t.Fatal(err)
	}

	stSet(0) // reset completion counts
	_, ts := testServer(t, Config{Workers: 1, StateDir: dir})
	_, v := submit(t, ts.URL, `{"scenario":"servetest","seeds":4,"params":{"tag":"probe-b"}}`)
	final := waitDone(t, ts.URL, v.ID)
	if final.Type != "aggregate" || final.Error != "" || final.Cached {
		t.Fatalf("terminal line %+v", final)
	}
	var m metricsSnapshot
	getJSON(t, ts.URL+"/metrics", &m)
	if m.Engine.ExecutedRuns != 0 || m.Engine.ResumedRuns != 4 {
		t.Errorf("engine counters %+v, want 0 executed / 4 resumed", m.Engine)
	}
	if comps := stCompletions(); len(comps) != 0 {
		t.Errorf("server re-executed search seeds: %v", comps)
	}
	want := engineAggregate(t, campaign.JobSpec{Scenario: "servetest", Seeds: 4,
		Params: map[string]string{"tag": "probe-b"}})
	if !bytes.Equal(final.Aggregate, want) {
		t.Errorf("warm-started aggregate differs from a fresh run:\n%s\nvs\n%s", final.Aggregate, want)
	}
}

// TestServeBadRequests: malformed bodies, unknown fields (named in the
// error), unknown scenarios, undeclared params and negative or oversized
// seed counts are rejected at submission; unknown job IDs 404 on every
// job endpoint.
func TestServeBadRequests(t *testing.T) {
	stSet(0)
	_, ts := testServer(t, Config{})
	for name, tc := range map[string]struct{ body, names string }{
		"malformed json":   {`{"scenario":`, ""},
		"unknown field":    {`{"scenario":"servetest","seed":5}`, `"seed"`},
		"unknown scenario": {`{"scenario":"sundial"}`, ""},
		"undeclared param": {`{"scenario":"servetest","params":{"clinet":"x"}}`, ""},
		"negative seeds":   {`{"scenario":"servetest","seeds":-1}`, ""},
		"oversized seeds":  {`{"scenario":"servetest","seeds":2000000000}`, ""},
		// Every scenario runs at one size: a fast request is refused,
		// never silently run at full size.
		"fast flag": {`{"scenario":"boot","fast":true}`, `"fast"`},
	} {
		status, v := submit(t, ts.URL, tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, status)
		}
		if !strings.Contains(v.Error, tc.names) {
			t.Errorf("%s: error %q does not name %s", name, v.Error, tc.names)
		}
	}
	for _, url := range []string{"/jobs/j999", "/jobs/j999/stream"} {
		if status := getJSON(t, ts.URL+url, nil); status != http.StatusNotFound {
			t.Errorf("GET %s status %d, want 404", url, status)
		}
	}
	resp, err := http.Post(ts.URL+"/jobs/j999/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("cancel unknown job status %d, want 404", resp.StatusCode)
	}
}

// TestServeRateLimitHTTP: per-client token-bucket limiting answers 429
// once the burst is spent and recovers as the injected clock refills it.
func TestServeRateLimitHTTP(t *testing.T) {
	stSet(0)
	clk := newFakeClock()
	_, ts := testServer(t, Config{Rate: 1, Burst: 1, Clock: clk.now})
	if status, _ := submit(t, ts.URL, `{"scenario":"servetest","seeds":1,"params":{"tag":"r1"}}`); status != http.StatusAccepted {
		t.Fatalf("first submission status %d", status)
	}
	if status, _ := submit(t, ts.URL, `{"scenario":"servetest","seeds":1,"params":{"tag":"r2"}}`); status != http.StatusTooManyRequests {
		t.Fatalf("burst-exhausted submission status %d, want 429", status)
	}
	clk.advance(time.Second)
	if status, _ := submit(t, ts.URL, `{"scenario":"servetest","seeds":1,"params":{"tag":"r3"}}`); status == http.StatusTooManyRequests {
		t.Fatal("refilled bucket still rate-limited")
	}
	var m metricsSnapshot
	getJSON(t, ts.URL+"/metrics", &m)
	if m.Jobs.RateLimited != 1 {
		t.Errorf("rate_limited = %d, want 1", m.Jobs.RateLimited)
	}
}

// TestServePprofGate: the profiling mux is mounted only when asked for.
func TestServePprofGate(t *testing.T) {
	stSet(0)
	_, with := testServer(t, Config{Pprof: true})
	if status := getJSON(t, with.URL+"/debug/pprof/", nil); status != http.StatusOK {
		t.Errorf("pprof index status %d with Pprof on", status)
	}
	_, without := testServer(t, Config{})
	resp, err := http.Get(without.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof index status %d with Pprof off, want 404", resp.StatusCode)
	}
}

// TestServeAuxEndpoints: healthz, the scenario listing and the job list.
func TestServeAuxEndpoints(t *testing.T) {
	stSet(0)
	_, ts := testServer(t, Config{})
	var health struct {
		Status string `json:"status"`
	}
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Status != "ok" {
		t.Errorf("healthz = %q", health.Status)
	}
	var scenarios struct {
		Scenarios []struct {
			Name      string   `json:"name"`
			ParamKeys []string `json:"param_keys"`
		} `json:"scenarios"`
	}
	getJSON(t, ts.URL+"/scenarios", &scenarios)
	found := false
	for _, sc := range scenarios.Scenarios {
		if sc.Name == "servetest" && len(sc.ParamKeys) == 2 {
			found = true
		}
	}
	if !found {
		t.Errorf("scenario listing missing servetest with its param keys: %+v", scenarios.Scenarios)
	}

	_, v := submit(t, ts.URL, `{"scenario":"servetest","seeds":2,"params":{"tag":"aux"}}`)
	waitDone(t, ts.URL, v.ID)
	var list struct {
		Jobs []jobView `json:"jobs"`
	}
	getJSON(t, ts.URL+"/jobs", &list)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != v.ID || list.Jobs[0].BaseSeed != campaign.DefaultBaseSeed {
		t.Errorf("job list %+v", list.Jobs)
	}
}
