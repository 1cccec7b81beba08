package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dnstime/internal/scenario"
)

// stGate is the control surface of the registered servetest scenario:
// tests point blockFrom at a seed to make that seed (and every later
// one) park until release closes, with each parked run announcing itself
// on blocked first. The completions map counts seeds that actually
// finished a run (cancelled runs never count), which is how tests prove
// resumed seeds were not re-executed.
var stGate = struct {
	sync.Mutex
	blockFrom   int64
	blocked     chan int64
	release     chan struct{}
	completions map[int64]int
}{completions: map[int64]int{}}

// stSet arms the gate for one test and resets the completion counts.
func stSet(blockFrom int64) (blocked chan int64, release chan struct{}) {
	blocked = make(chan int64, 64)
	release = make(chan struct{})
	stGate.Lock()
	stGate.blockFrom = blockFrom
	stGate.blocked = blocked
	stGate.release = release
	stGate.completions = map[int64]int{}
	stGate.Unlock()
	return blocked, release
}

// stCompletions snapshots how often each seed completed a run.
func stCompletions() map[int64]int {
	stGate.Lock()
	defer stGate.Unlock()
	out := make(map[int64]int, len(stGate.completions))
	for k, v := range stGate.completions {
		out[k] = v
	}
	return out
}

// The servetest scenario: deterministic in (seed, cfg) like every real
// scenario, but with a test-controlled blocking gate so drain and queue
// behaviour can be driven without wall-clock sleeps.
func init() {
	scenario.Register(scenario.Scenario{
		Name:     "servetest",
		Title:    "Serve-layer test scenario",
		PaperRef: "—",
		Impl:     "serve.harness_test",
		CLI:      "-",
		// tag and mode exist so cache-key tests have two params to
		// shuffle; both feed the metric so they are genuinely part of the
		// campaign's identity.
		ParamKeys: []string{"tag", "mode"},
		Order:     9999,
		Run: func(ctx context.Context, seed int64, cfg scenario.Config) (scenario.Result, error) {
			stGate.Lock()
			blockFrom, blocked, release := stGate.blockFrom, stGate.blocked, stGate.release
			stGate.Unlock()
			if blockFrom > 0 && seed >= blockFrom {
				if blocked != nil {
					select {
					case blocked <- seed:
					default:
					}
				}
				select {
				case <-release:
				case <-ctx.Done():
					return scenario.Result{}, ctx.Err()
				}
			}
			v := float64(seed * 3)
			v += float64(len(cfg.Params.Str("tag", "")))
			v += 10 * float64(len(cfg.Params.Str("mode", "")))
			stGate.Lock()
			stGate.completions[seed]++
			stGate.Unlock()
			return scenario.Result{
				Success: scenario.Bool(seed%2 == 1),
				Metrics: map[string]float64{"value": v},
			}, nil
		},
	})
}

// fakeClock is a hand-advanced clock for limiter and metrics tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

// newFakeClock starts a fake clock at an arbitrary fixed instant.
func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)}
}

// now is the clock reading, for injection as Config.Clock.
func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// advance moves the clock forward.
func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// testServer boots a service plus an HTTP front end and tears both down
// in the right order (drain first, so no stream handler is left blocking
// the listener's close).
func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		ts.Close()
	})
	return s, ts
}

// submit posts a raw JSON body to POST /jobs and decodes the response.
func submit(t *testing.T, base, body string) (int, jobView) {
	t.Helper()
	resp, err := http.Post(base+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v jobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatalf("submit response does not decode: %v", err)
	}
	return resp.StatusCode, v
}

// getJSON fetches a URL and decodes its JSON body into out, returning
// the status code.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s does not decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

// streamJob reads a job's JSONL stream to its terminal line.
func streamJob(t *testing.T, base, id string) []streamLine {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/jobs/%s/stream", base, id))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	var lines []streamLine
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var line streamLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("stream line does not parse: %v\n%s", err, sc.Text())
		}
		lines = append(lines, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("empty stream")
	}
	last := lines[len(lines)-1].Type
	if last != "aggregate" && last != "error" {
		t.Fatalf("stream did not end with a terminal line: %+v", lines)
	}
	return lines
}

// waitDone streams the job to completion and returns its terminal line.
func waitDone(t *testing.T, base, id string) streamLine {
	t.Helper()
	lines := streamJob(t, base, id)
	return lines[len(lines)-1]
}
