package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunBenchProfiles: the CPU and heap profiles the retired bench
// flags wrote now come from a resident server. `experiments serve -pprof`
// hands out a non-empty CPU profile taken while a campaign runs, and a
// non-empty heap profile after it.
func TestRunBenchProfiles(t *testing.T) {
	base, output, shutdown := bootServe(t, "-pprof")
	fetch := func(path string) error {
		resp, err := http.Get(base + path)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err == nil && (resp.StatusCode != http.StatusOK || len(body) == 0) {
			err = fmt.Errorf("status %d, %d bytes", resp.StatusCode, len(body))
		}
		return err
	}
	cpu := make(chan error, 1)
	go func() { cpu <- fetch("/debug/pprof/profile?seconds=1") }()
	status, v := postJob(t, base, `{"scenario":"boot","seeds":4}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d: %v", status, v)
	}
	id, _ := v["id"].(string)
	if final := streamFinal(t, base, id); final.Type != "aggregate" {
		t.Fatalf("terminal line %+v", final)
	}
	if err := <-cpu; err != nil {
		t.Errorf("cpu profile: %v", err)
	}
	if err := fetch("/debug/pprof/heap"); err != nil {
		t.Errorf("heap profile: %v", err)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("graceful drain: %v\n%s", err, output.String())
	}
}

// TestRunCampaignsTraceRateLimit: a traced ratelimit seed records the
// §VII-A scan's clock fires and packets (its trace used to be an empty
// array: the scan built its own clock and network without the tracer),
// the trace is byte-identical across runs, and tracing leaves the
// aggregate's bytes as they are without it.
func TestRunCampaignsTraceRateLimit(t *testing.T) {
	args := []string{"-only", "ratelimit", "-seeds", "1", "-json", "-q"}
	var plain strings.Builder
	if err := runCampaigns(context.Background(), args, &plain); err != nil {
		t.Fatal(err)
	}
	var traces []string
	for run := 0; run < 2; run++ {
		dir := filepath.Join(t.TempDir(), "traces")
		var out strings.Builder
		if err := runCampaigns(context.Background(), append(args, "-trace", dir), &out); err != nil {
			t.Fatalf("runCampaigns -only ratelimit -trace: %v", err)
		}
		if out.String() != plain.String() {
			t.Errorf("traced aggregate differs from the untraced one:\n%s\nvs\n%s", out.String(), plain.String())
		}
		b, err := os.ReadFile(filepath.Join(dir, "ratelimit-seed1.trace.json"))
		if err != nil {
			t.Fatalf("trace file: %v", err)
		}
		var events []struct{ Cat, Name string }
		if err := json.Unmarshal(b, &events); err != nil {
			t.Fatalf("trace does not parse as a trace array: %v", err)
		}
		seen := map[string]bool{}
		for _, e := range events {
			seen[e.Cat+"/"+e.Name] = true
		}
		for _, want := range []string{"clock/fire", "net/send", "net/deliver"} {
			if !seen[want] {
				t.Errorf("ratelimit trace has no %s event (%d events)", want, len(events))
			}
		}
		traces = append(traces, string(b))
	}
	if traces[0] != traces[1] {
		t.Error("ratelimit traces of two identical runs differ")
	}
}

// TestRunCampaignsTrace exercises the -trace flag end to end: one valid
// Chrome trace file appears per seed, carrying network, clock and run
// events — for boot, and for racemargin and netsweep, which build their
// labs themselves and must thread the tracer into each one.
func TestRunCampaignsTrace(t *testing.T) {
	for _, scenario := range []string{"boot", "racemargin", "netsweep"} {
		dir := filepath.Join(t.TempDir(), "traces")
		err := runCampaigns(context.Background(), []string{
			"-seeds", "2", "-seed", "0", "-only", scenario, "-q", "-trace", dir,
		}, io.Discard)
		if err != nil {
			t.Fatalf("runCampaigns -only %s -trace: %v", scenario, err)
		}
		for _, seed := range []string{"0", "1"} {
			name := scenario + "-seed" + seed + ".trace.json"
			b, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatalf("trace file: %v", err)
			}
			var events []map[string]any
			if err := json.Unmarshal(b, &events); err != nil {
				t.Fatalf("%s does not parse as a trace array: %v", name, err)
			}
			if len(events) == 0 {
				t.Errorf("%s has no events", name)
			}
			var cats []string
			for _, e := range events {
				cats = append(cats, e["cat"].(string))
			}
			joined := strings.Join(cats, ",")
			for _, cat := range []string{"net", "clock", "run"} {
				if !strings.Contains(joined, cat) {
					t.Errorf("%s records no %q events", name, cat)
				}
			}
		}
	}
}
