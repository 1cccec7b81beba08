package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"dnstime/internal/obs"
)

// promFamily is one parsed Prometheus metric family: its HELP and TYPE
// headers plus every sample line, keyed by the full sample name including
// labels.
type promFamily struct {
	help, typ string
	samples   map[string]float64
}

// parseProm is a hand-rolled parser for the Prometheus text exposition
// format (the test-side contract check; the repo deliberately has no
// client_golang dependency). It enforces grouping: every sample must
// belong to the family declared by the preceding HELP/TYPE pair.
func parseProm(t *testing.T, text string) map[string]*promFamily {
	t.Helper()
	fams := map[string]*promFamily{}
	var cur *promFamily
	var curName string
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			if fams[name] != nil {
				t.Fatalf("line %d: family %s declared twice", ln+1, name)
			}
			cur = &promFamily{help: help, samples: map[string]float64{}}
			curName = name
			fams[name] = cur
		case strings.HasPrefix(line, "# TYPE "):
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok || cur == nil || name != curName {
				t.Fatalf("line %d: TYPE out of place: %q", ln+1, line)
			}
			switch typ {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown TYPE %q", ln+1, typ)
			}
			cur.typ = typ
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unexpected comment: %q", ln+1, line)
		default:
			name := line
			if i := strings.IndexAny(line, "{ "); i >= 0 {
				name = line[:i]
			}
			base := name
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if cur != nil && cur.typ == "histogram" && strings.HasSuffix(name, suffix) {
					base = strings.TrimSuffix(name, suffix)
				}
			}
			if cur == nil || base != curName {
				t.Fatalf("line %d: sample %q outside its family block (current %q)", ln+1, name, curName)
			}
			if cur.typ == "" {
				t.Fatalf("line %d: sample before TYPE for %s", ln+1, curName)
			}
			i := strings.LastIndexByte(line, ' ')
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				t.Fatalf("line %d: bad sample value: %q", ln+1, line)
			}
			cur.samples[line[:i]] = v
		}
	}
	return fams
}

// scrapeProm fetches the Prometheus view of /metrics.
func scrapeProm(t *testing.T, base, query string, header bool) map[string]*promFamily {
	t.Helper()
	req, err := http.NewRequest("GET", base+"/metrics"+query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if header {
		req.Header.Set("Accept", "text/plain")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("scrape content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return parseProm(t, string(body))
}

// TestMetricsPrometheus runs a campaign, then checks that the Prometheus
// exposition of /metrics is well-formed and that every counter of the
// JSON document has a matching sample with the same value — the two
// views read the same instruments. The JSON default must keep working
// (with its new build block) when no text representation is requested.
func TestMetricsPrometheus(t *testing.T) {
	_, ts := testServer(t, Config{})
	code, v := submit(t, ts.URL, `{"scenario":"servetest","seeds":3}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	waitDone(t, ts.URL, v.ID)

	var doc metricsSnapshot
	if getJSON(t, ts.URL+"/metrics", &doc) != http.StatusOK {
		t.Fatal("JSON metrics not OK")
	}
	if doc.Build.GoVersion == "" || doc.Build.Revision == "" {
		t.Fatalf("JSON metrics build block incomplete: %+v", doc.Build)
	}

	for _, variant := range []struct {
		query  string
		header bool
	}{
		{"?format=prometheus", false},
		{"", true},
	} {
		fams := scrapeProm(t, ts.URL, variant.query, variant.header)
		want := map[string]float64{
			"dnstime_serve_jobs_queued":            float64(doc.Jobs.Queued),
			"dnstime_serve_jobs_running":           float64(doc.Jobs.Running),
			"dnstime_serve_jobs_done_total":        float64(doc.Jobs.Done),
			"dnstime_serve_jobs_failed_total":      float64(doc.Jobs.Failed),
			"dnstime_serve_jobs_canceled_total":    float64(doc.Jobs.Canceled),
			"dnstime_serve_submissions_total":      float64(doc.Jobs.Submissions),
			"dnstime_serve_coalesced_total":        float64(doc.Jobs.Coalesced),
			"dnstime_serve_rate_limited_total":     float64(doc.Jobs.RateLimited),
			"dnstime_serve_queue_full_total":       float64(doc.Jobs.QueueFull),
			"dnstime_serve_cache_hits_total":       float64(doc.Cache.Hits),
			"dnstime_serve_cache_misses_total":     float64(doc.Cache.Misses),
			"dnstime_serve_cache_entries":          float64(doc.Cache.Entries),
			"dnstime_serve_engine_campaigns_total": float64(doc.Engine.Campaigns),
			"dnstime_serve_executed_runs_total":    float64(doc.Engine.ExecutedRuns),
			"dnstime_serve_resumed_runs_total":     float64(doc.Engine.ResumedRuns),
		}
		for name, wantV := range want {
			fam := fams[name]
			if fam == nil {
				t.Errorf("family %s missing from exposition", name)
				continue
			}
			if fam.help == "" {
				t.Errorf("family %s has no HELP text", name)
			}
			if got, ok := fam.samples[name]; !ok {
				t.Errorf("family %s has no sample", name)
			} else if got != wantV {
				t.Errorf("%s = %v, want %v (JSON document)", name, got, wantV)
			}
		}
		// The per-scenario job-latency histogram must be complete: a +Inf
		// bucket equal to the count, and one observation per finished job.
		hist := fams["dnstime_serve_job_seconds"]
		if hist == nil || hist.typ != "histogram" {
			t.Fatalf("dnstime_serve_job_seconds missing or not a histogram: %+v", hist)
		}
		inf := hist.samples[`dnstime_serve_job_seconds_bucket{scenario="servetest",le="+Inf"}`]
		count := hist.samples[`dnstime_serve_job_seconds_count{scenario="servetest"}`]
		if inf != count || count < 1 {
			t.Errorf("job_seconds histogram inconsistent: +Inf %v, count %v", inf, count)
		}
		// Process-wide engine instruments (obs.Default) ride along in the
		// same scrape.
		for _, name := range []string{
			"dnstime_labpool_hits_total",
			"dnstime_labpool_misses_total",
			"dnstime_snoop_memo_hits_total",
			"dnstime_snoop_memo_misses_total",
			"dnstime_phase_seconds_total",
			"dnstime_engine_seed_seconds",
		} {
			if fams[name] == nil {
				t.Errorf("obs.Default family %s missing from exposition", name)
			}
		}
		// The phase breakdown: the campaign just run fed the run phase,
		// and every label is a known phase.
		if phases := fams["dnstime_phase_seconds_total"]; phases != nil {
			if phases.samples[`dnstime_phase_seconds_total{phase="run"}`] <= 0 {
				t.Errorf("phase family has no positive run sample: %v", phases.samples)
			}
			for sample := range phases.samples {
				switch sample {
				case `dnstime_phase_seconds_total{phase="` + obs.PhaseSetup + `"}`,
					`dnstime_phase_seconds_total{phase="` + obs.PhaseReset + `"}`,
					`dnstime_phase_seconds_total{phase="` + obs.PhaseRun + `"}`,
					`dnstime_phase_seconds_total{phase="` + obs.PhaseFold + `"}`,
					`dnstime_phase_seconds_total{phase="` + obs.PhaseProbe + `"}`:
				default:
					t.Errorf("unknown phase sample %s", sample)
				}
			}
		}
	}
}

// TestHealthzRevision pins the healthz build echo: the revision field is
// always populated (a dev build without VCS stamping reports "unknown").
func TestHealthzRevision(t *testing.T) {
	_, ts := testServer(t, Config{})
	var health struct {
		Status   string `json:"status"`
		Revision string `json:"revision"`
	}
	if getJSON(t, ts.URL+"/healthz", &health) != http.StatusOK {
		t.Fatal("healthz not OK")
	}
	if health.Status != "ok" || health.Revision == "" {
		t.Fatalf("healthz = %+v, want status ok and a revision", health)
	}
}

// TestJobTrace exercises the traced-job path end to end: a trace:true
// boot campaign yields a merged Chrome trace with one pid lane per seed,
// an untraced job 404s on /trace, and traced jobs bypass the aggregate
// cache (their resubmission executes again rather than replaying).
func TestJobTrace(t *testing.T) {
	_, ts := testServer(t, Config{})
	const spec = `{"scenario":"boot","seeds":2,"base_seed":0,"trace":true}`
	code, v := submit(t, ts.URL, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit status %d", code)
	}
	if !v.Trace {
		t.Fatalf("job view does not echo trace: %+v", v)
	}
	waitDone(t, ts.URL, v.ID)

	resp, err := http.Get(ts.URL + "/jobs/" + v.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d: %s", resp.StatusCode, body)
	}
	var events []map[string]any
	if err := json.Unmarshal(body, &events); err != nil {
		t.Fatalf("merged trace is not a JSON array: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("merged trace is empty")
	}
	pids := map[float64]bool{}
	for _, e := range events {
		pid, ok := e["pid"].(float64)
		if !ok {
			t.Fatalf("event without pid: %v", e)
		}
		pids[pid] = true
	}
	if !pids[0] || !pids[1] || len(pids) != 2 {
		t.Fatalf("merged trace pids = %v, want exactly seeds 0 and 1", pids)
	}

	// Traced jobs never enter the cache: resubmitting executes a fresh
	// campaign instead of replaying a cached aggregate.
	code, v2 := submit(t, ts.URL, spec)
	if code != http.StatusAccepted || v2.Cached {
		t.Fatalf("traced resubmission: status %d cached %v, want 202 uncached", code, v2.Cached)
	}
	waitDone(t, ts.URL, v2.ID)

	// An untraced job has no trace resource.
	code, v3 := submit(t, ts.URL, `{"scenario":"boot","seeds":2,"base_seed":0}`)
	if code != http.StatusAccepted {
		t.Fatalf("untraced submit status %d", code)
	}
	waitDone(t, ts.URL, v3.ID)
	if got := getJSON(t, ts.URL+"/jobs/"+v3.ID+"/trace", nil); got != http.StatusNotFound {
		t.Fatalf("untraced trace status %d, want 404", got)
	}
}
