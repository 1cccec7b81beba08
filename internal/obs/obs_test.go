package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

var t0 = time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC)

// TestNopTracerAllocFree: the disabled tracer is free — no allocations
// per emission, Enabled() false. This is what lets the engine thread a
// Tracer through its hot path without breaking its allocation budgets.
func TestNopTracerAllocFree(t *testing.T) {
	if Nop.Enabled() {
		t.Fatal("Nop.Enabled() = true")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		Nop.Event(t0, "net", "send", "")
		Nop.Span(t0, t0.Add(time.Second), "attack", "probe", "")
	})
	if allocs != 0 {
		t.Errorf("Nop emission allocates %v per run, want 0", allocs)
	}
}

// TestJSONLSink: every line is a standalone JSON object with the virtual
// timestamp, and the byte output is deterministic across writers.
func TestJSONLSink(t *testing.T) {
	emit := func() []byte {
		var buf bytes.Buffer
		tr := NewJSONL(&buf)
		tr.Event(t0, "net", "send", `udp "quoted"`)
		tr.Span(t0.Add(time.Millisecond), t0.Add(3*time.Millisecond), "attack", "probe-ipids", "")
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	out := emit()
	if !bytes.Equal(out, emit()) {
		t.Error("two identical emission sequences produced different bytes")
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), out)
	}
	var ev struct {
		TsNs   int64  `json:"ts_ns"`
		Ph     string `json:"ph"`
		Cat    string `json:"cat"`
		Name   string `json:"name"`
		Detail string `json:"detail"`
		DurNs  int64  `json:"dur_ns"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("line 0 is not JSON: %v\n%s", err, lines[0])
	}
	if ev.TsNs != t0.UnixNano() || ev.Ph != "i" || ev.Name != "send" || ev.Detail != `udp "quoted"` {
		t.Errorf("event line mismatch: %+v", ev)
	}
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatalf("line 1 is not JSON: %v\n%s", err, lines[1])
	}
	if ev.Ph != "X" || ev.DurNs != int64(2*time.Millisecond) {
		t.Errorf("span line mismatch: %+v", ev)
	}
}

// chromeEvent mirrors the trace_event fields the sink emits.
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Pid  int64   `json:"pid"`
	Tid  int64   `json:"tid"`
	Args struct {
		Detail string `json:"detail"`
	} `json:"args"`
}

// TestChromeSink: the output is one valid JSON array of trace_event
// objects with microsecond timestamps relative to the first event.
func TestChromeSink(t *testing.T) {
	var buf bytes.Buffer
	tr := NewChrome(&buf, 7)
	tr.Event(t0, "clock", "fire", "")
	tr.Event(t0.Add(1500*time.Nanosecond), "net", "deliver", "pkt")
	tr.Span(t0, t0.Add(2*time.Microsecond), "attack", "template", "")
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var evs []chromeEvent
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("not a JSON array: %v\n%s", err, buf.Bytes())
	}
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	if evs[0].Ts != 0 || evs[0].Ph != "i" || evs[0].Pid != 7 {
		t.Errorf("event 0 = %+v, want ts=0 ph=i pid=7", evs[0])
	}
	if evs[1].Ts != 1.5 || evs[1].Args.Detail != "pkt" {
		t.Errorf("event 1 = %+v, want ts=1.5 detail=pkt", evs[1])
	}
	if evs[2].Ph != "X" || evs[2].Dur != 2 {
		t.Errorf("event 2 = %+v, want ph=X dur=2", evs[2])
	}
}

// TestChromeSinkEmpty: a trace with no events still closes to valid JSON.
func TestChromeSinkEmpty(t *testing.T) {
	var buf bytes.Buffer
	tr := NewChrome(&buf, 0)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	var evs []chromeEvent
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil || len(evs) != 0 {
		t.Fatalf("empty trace = %q (err %v), want []", buf.Bytes(), err)
	}
}

// TestMergeChrome: merging per-seed arrays yields one valid array with
// all events in part order; empty parts vanish.
func TestMergeChrome(t *testing.T) {
	part := func(pid int64, n int) []byte {
		var buf bytes.Buffer
		tr := NewChrome(&buf, pid)
		for i := 0; i < n; i++ {
			tr.Event(t0.Add(time.Duration(i)*time.Millisecond), "net", "send", "")
		}
		tr.Close()
		return buf.Bytes()
	}
	merged := MergeChrome(part(0, 2), part(1, 0), part(2, 1))
	var evs []chromeEvent
	if err := json.Unmarshal(merged, &evs); err != nil {
		t.Fatalf("merged trace is not JSON: %v\n%s", err, merged)
	}
	if len(evs) != 3 {
		t.Fatalf("merged %d events, want 3", len(evs))
	}
	if evs[0].Pid != 0 || evs[2].Pid != 2 {
		t.Errorf("pids = %d,%d,%d, want 0,0,2", evs[0].Pid, evs[1].Pid, evs[2].Pid)
	}
	if got := MergeChrome(part(5, 0)); string(got) != "[]\n" {
		t.Errorf("all-empty merge = %q, want []", got)
	}
}

// TestRegistryExposition: HELP/TYPE lines, sorted families, label
// escaping, and cumulative histogram buckets.
func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total", "last family").Add(3)
	r.Gauge("aa_gauge", "a gauge").Set(-2)
	r.FloatCounter("bb_seconds_total", "seconds").Add(1.5)
	cv := r.CounterVec("cc_jobs_total", "per scenario", "scenario")
	cv.With("boot").Inc()
	cv.With(`we"ird`).Add(2)
	h := r.Histogram("dd_latency_seconds", "latency", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var buf bytes.Buffer
	if err := WritePrometheus(&buf, r); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP aa_gauge a gauge\n# TYPE aa_gauge gauge\naa_gauge -2\n",
		"bb_seconds_total 1.5\n",
		"# TYPE cc_jobs_total counter\ncc_jobs_total{scenario=\"boot\"} 1\ncc_jobs_total{scenario=\"we\\\"ird\"} 2\n",
		"dd_latency_seconds_bucket{le=\"0.1\"} 1\ndd_latency_seconds_bucket{le=\"1\"} 2\ndd_latency_seconds_bucket{le=\"+Inf\"} 3\n",
		"dd_latency_seconds_sum 5.55\ndd_latency_seconds_count 3\n",
		"zz_total 3\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Families sorted by name.
	if strings.Index(out, "aa_gauge") > strings.Index(out, "zz_total") {
		t.Error("families not sorted by name")
	}
	// Idempotent registration returns the same metric.
	if r.Counter("zz_total", "last family").Value() != 3 {
		t.Error("re-registration did not return the existing counter")
	}
}

// TestRegistryConflicts: re-registering a name with a different shape
// panics, and merging two registries that share a name errors.
func TestRegistryConflicts(t *testing.T) {
	r := NewRegistry()
	r.Counter("m_total", "x")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("kind clash did not panic")
			}
		}()
		r.Gauge("m_total", "x")
	}()
	r2 := NewRegistry()
	r2.Counter("m_total", "x")
	if err := WritePrometheus(&bytes.Buffer{}, r, r2); err == nil {
		t.Error("duplicate family across registries did not error")
	}
}

// TestObservePhase: ObservePhase accumulates seconds into the phase's
// sample of the Default registry's phase family.
func TestObservePhase(t *testing.T) {
	before := phaseSeconds.With(PhaseFold).Value()
	ObservePhase(PhaseFold, 250*time.Millisecond)
	if d := phaseSeconds.With(PhaseFold).Value() - before; d < 0.249 || d > 0.251 {
		t.Errorf("fold delta = %v, want 0.25", d)
	}
}

// TestBuildInfo: the build block always has a Go version and non-empty
// identification fields.
func TestBuildInfo(t *testing.T) {
	b := BuildInfo()
	if b.GoVersion == "" || b.Version == "" || b.Revision == "" {
		t.Errorf("BuildInfo has empty fields: %+v", b)
	}
	if !strings.HasPrefix(b.GoVersion, "go") {
		t.Errorf("GoVersion = %q, want go*", b.GoVersion)
	}
}
