package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"
)

// addrNotifier is an io.Writer that watches runServe's output for the
// "listening on http://..." line and delivers the base URL exactly once.
type addrNotifier struct {
	mu    sync.Mutex
	buf   bytes.Buffer
	ready chan string
	sent  bool
}

var listenLine = regexp.MustCompile(`listening on (http://\S+)`)

// Write accumulates output and signals the listen address when it appears.
func (n *addrNotifier) Write(p []byte) (int, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.buf.Write(p)
	if !n.sent {
		if m := listenLine.FindSubmatch(n.buf.Bytes()); m != nil {
			n.sent = true
			n.ready <- string(m[1])
		}
	}
	return len(p), nil
}

// String snapshots everything runServe printed.
func (n *addrNotifier) String() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.buf.String()
}

// bootServe runs the serve subcommand on an ephemeral port and returns
// its base URL plus a shutdown function that triggers the graceful drain
// and waits for runServe to return.
func bootServe(t *testing.T, argv ...string) (base string, output *addrNotifier, shutdown func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	output = &addrNotifier{ready: make(chan string, 1)}
	done := make(chan error, 1)
	argv = append([]string{"-addr", "127.0.0.1:0"}, argv...)
	go func() { done <- runServe(ctx, argv, output) }()
	select {
	case base = <-output.ready:
	case err := <-done:
		t.Fatalf("runServe exited before listening: %v\n%s", err, output.String())
	case <-time.After(10 * time.Second):
		t.Fatal("runServe never reported its listen address")
	}
	var once sync.Once
	var shutErr error
	shutdown = func() error {
		once.Do(func() {
			cancel()
			select {
			case shutErr = <-done:
			case <-time.After(30 * time.Second):
				shutErr = fmt.Errorf("runServe did not return after cancel")
			}
		})
		return shutErr
	}
	t.Cleanup(func() { shutdown() }) //nolint:errcheck // tests that care check the first call
	return base, output, shutdown
}

// serveStreamLine mirrors the service's JSONL stream line shape.
type serveStreamLine struct {
	Type      string          `json:"type"`
	Aggregate json.RawMessage `json:"aggregate"`
	Cached    bool            `json:"cached"`
	Error     string          `json:"error"`
}

// streamFinal streams a job to completion and returns its terminal line.
func streamFinal(t *testing.T, base, id string) serveStreamLine {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var last serveStreamLine
	n := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("stream line does not parse: %v\n%s", err, sc.Text())
		}
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n == 0 || (last.Type != "aggregate" && last.Type != "error") {
		t.Fatalf("stream ended without a terminal line after %d lines: %+v", n, last)
	}
	return last
}

// postJob submits a campaign spec and decodes the job view.
func postJob(t *testing.T, base, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, v
}

// TestRunServeSmoke is the end-to-end acceptance test the CI smoke job
// runs race-checked: boot the service, submit a boot campaign over
// HTTP, and assert the streamed aggregate is byte-identical to what
// `experiments campaigns -json` prints for the same spec — then that a
// repeat submission is answered from the cache, and that SIGTERM-style
// cancellation drains cleanly.
func TestRunServeSmoke(t *testing.T) {
	base, output, shutdown := bootServe(t)

	body := `{"scenario":"boot","seeds":3}`
	status, v := postJob(t, base, body)
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d: %v", status, v)
	}
	id, _ := v["id"].(string)
	final := streamFinal(t, base, id)
	if final.Type != "aggregate" || final.Error != "" || final.Cached {
		t.Fatalf("terminal line %+v", final)
	}

	// The CLI reference: same spec through the campaigns subcommand. The
	// envelope is decoded with RawMessage so the scenario aggregate's bytes
	// survive untouched; compacting only strips the -json indentation.
	var cli bytes.Buffer
	err := runCampaigns(context.Background(), []string{
		"-seeds", "3", "-only", "boot", "-json", "-q",
	}, &cli)
	if err != nil {
		t.Fatalf("runCampaigns reference: %v", err)
	}
	var envelope struct {
		Scenarios []json.RawMessage `json:"scenarios"`
	}
	if err := json.Unmarshal(cli.Bytes(), &envelope); err != nil {
		t.Fatal(err)
	}
	if len(envelope.Scenarios) != 1 {
		t.Fatalf("CLI envelope has %d scenarios", len(envelope.Scenarios))
	}
	var want bytes.Buffer
	if err := json.Compact(&want, envelope.Scenarios[0]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(final.Aggregate, want.Bytes()) {
		t.Errorf("served aggregate differs from CLI output:\n%s\nvs\n%s", final.Aggregate, want.Bytes())
	}

	// Repeat submission: a cache hit, answered as an already-done job with
	// identical aggregate bytes.
	status, v = postJob(t, base, body)
	if status != http.StatusOK || v["cached"] != true {
		t.Fatalf("repeat submission status %d, view %v, want cached 200", status, v)
	}
	hitID, _ := v["id"].(string)
	hit := streamFinal(t, base, hitID)
	if !hit.Cached || !bytes.Equal(hit.Aggregate, final.Aggregate) {
		t.Errorf("cached aggregate differs:\n%s\nvs\n%s", hit.Aggregate, final.Aggregate)
	}

	var m struct {
		Cache struct {
			Hits int `json:"hits"`
		} `json:"cache"`
		Engine struct {
			Campaigns int `json:"campaigns"`
		} `json:"engine"`
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.Cache.Hits != 1 || m.Engine.Campaigns != 1 {
		t.Errorf("metrics after cache hit: %+v, want 1 hit and 1 engine campaign", m)
	}

	if err := shutdown(); err != nil {
		t.Fatalf("graceful drain: %v\n%s", err, output.String())
	}
	if !strings.Contains(output.String(), "drained") {
		t.Errorf("no drain confirmation in output:\n%s", output.String())
	}
}

// TestRunServeDrainResume: the serve process's SIGTERM path (a cancelled
// context) leaves the in-flight campaign's checkpoint in -state, and a
// fresh serve process over the same directory completes the resubmitted
// campaign with the checkpointed seeds resumed, not re-executed.
func TestRunServeDrainResume(t *testing.T) {
	dir := t.TempDir()
	body := `{"scenario":"table3","seeds":4}`

	base, _, shutdown := bootServe(t, "-state", dir, "-workers", "1")
	status, v := postJob(t, base, body)
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	id, _ := v["id"].(string)
	if final := streamFinal(t, base, id); final.Type != "aggregate" {
		t.Fatalf("first run terminal line %+v", final)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("first drain: %v", err)
	}

	// Second process, same state directory: the campaign replays from its
	// checkpoint (resumed_runs covers every seed, none executed again).
	base2, _, shutdown2 := bootServe(t, "-state", dir, "-workers", "1")
	status, v = postJob(t, base2, body)
	if status != http.StatusAccepted {
		t.Fatalf("resubmit status %d", status)
	}
	id2, _ := v["id"].(string)
	final := streamFinal(t, base2, id2)
	if final.Type != "aggregate" || final.Error != "" {
		t.Fatalf("resumed terminal line %+v", final)
	}
	var m struct {
		Engine struct {
			ExecutedRuns int `json:"executed_runs"`
			ResumedRuns  int `json:"resumed_runs"`
		} `json:"engine"`
	}
	resp, err := http.Get(base2 + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.Engine.ExecutedRuns != 0 || m.Engine.ResumedRuns != 4 {
		t.Errorf("engine counters %+v, want 0 executed / 4 resumed across the restart", m.Engine)
	}
	if err := shutdown2(); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestServeHTTPTimeouts: the serve listener bounds how long a client may
// take to send its headers and how long an idle keep-alive connection
// lives, and sets no write timeout, which would cut long-lived job
// streams mid-campaign.
func TestServeHTTPTimeouts(t *testing.T) {
	s := newHTTPServer(http.NotFoundHandler())
	if s.ReadHeaderTimeout <= 0 || s.IdleTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout %v, IdleTimeout %v: both must be set", s.ReadHeaderTimeout, s.IdleTimeout)
	}
	if s.WriteTimeout != 0 {
		t.Errorf("WriteTimeout %v would cut job streams; want 0", s.WriteTimeout)
	}
}

// TestRunServeBadArgs: stray positionals and malformed flags are refused.
func TestRunServeBadArgs(t *testing.T) {
	for name, argv := range map[string][]string{
		"positional":   {"jobs"},
		"unknown flag": {"-serve-forever"},
		"bad address":  {"-addr", "999.999.999.999:70000"},
	} {
		if err := runServe(context.Background(), argv, io.Discard); err == nil {
			t.Errorf("%s: accepted (argv %v)", name, argv)
		}
	}
}
