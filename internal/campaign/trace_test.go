package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"

	"dnstime/internal/core"
	"dnstime/internal/obs"
)

// tracedCampaign runs the named scenario over seeds 0..seeds-1 with an
// in-memory Chrome tracer per seed and returns each seed's finalised
// trace bytes. Lab pooling is set as requested for the duration of the
// campaign and restored before returning.
func tracedCampaign(t *testing.T, name string, seeds, workers int, pooled bool) map[int64][]byte {
	t.Helper()
	core.SetLabPooling(pooled)
	defer core.SetLabPooling(true)
	var mu sync.Mutex
	bufs := map[int64]*bytes.Buffer{}
	eng := NewEngine(
		WithSeeds(seeds), WithBaseSeed(0), WithWorkers(workers),
		WithTracerFactory(func(seed int64) (obs.Tracer, error) {
			buf := &bytes.Buffer{}
			mu.Lock()
			bufs[seed] = buf
			mu.Unlock()
			return obs.NewChrome(buf, seed), nil
		}),
	)
	agg, err := eng.Run(context.Background(), name)
	if err != nil {
		t.Fatalf("traced %s campaign: %v", name, err)
	}
	if agg.Runs != seeds {
		t.Fatalf("traced %s campaign: %d runs, want %d", name, agg.Runs, seeds)
	}
	out := map[int64][]byte{}
	for seed, buf := range bufs {
		out[seed] = buf.Bytes()
	}
	return out
}

// traceScenarios are the traced lab scenarios whose runs recycle pooled
// labs, their client hosts and clients included.
var traceScenarios = []string{"boot", "table1", "racemargin", "netsweep", "runtime", "chronos"}

// TestTraceDeterminism is the trace byte-identity contract from the
// observability design: for a fixed seed, the Chrome trace a lab
// scenario's run produces has exactly the same bytes at any worker count
// and whether the lab was recycled from the pool or built fresh. Pooled
// labs carry spare client hosts and clients from run to run, so a client
// reset that misses any state shows up here as a trace diff.
func TestTraceDeterminism(t *testing.T) {
	const seeds = 3
	for _, name := range traceScenarios {
		t.Run(name, func(t *testing.T) {
			ref := tracedCampaign(t, name, seeds, 1, true)
			for seed, b := range ref {
				if len(b) == 0 {
					t.Fatalf("seed %d: empty trace", seed)
				}
				var events []map[string]any
				if err := json.Unmarshal(b, &events); err != nil {
					t.Fatalf("seed %d: trace is not a JSON array: %v", seed, err)
				}
				if len(events) == 0 {
					t.Fatalf("seed %d: no trace events", seed)
				}
				for _, e := range events {
					for _, key := range []string{"name", "cat", "ph", "ts", "pid", "tid"} {
						if _, ok := e[key]; !ok {
							t.Fatalf("seed %d: event %v missing %q", seed, e, key)
						}
					}
					if e["pid"] != float64(seed) {
						t.Fatalf("seed %d: event pid = %v, want %d", seed, e["pid"], seed)
					}
				}
			}
			for _, alt := range []struct {
				desc    string
				workers int
				pooled  bool
			}{
				{"workers=4 pooled", 4, true},
				{"workers=1 fresh", 1, false},
				{"workers=4 fresh", 4, false},
			} {
				got := tracedCampaign(t, name, seeds, alt.workers, alt.pooled)
				for seed, want := range ref {
					if !bytes.Equal(got[seed], want) {
						t.Errorf("%s: seed %d trace differs from workers=1 pooled reference", alt.desc, seed)
					}
				}
			}
		})
	}
}

// TestTracerFactoryError pins the failure contract: a factory error fails
// the affected seed's run (recorded on its Result) rather than being
// dropped.
func TestTracerFactoryError(t *testing.T) {
	boom := errors.New("no tracer for you")
	eng := NewEngine(WithSeeds(2), WithBaseSeed(0), WithWorkers(1),
		WithTracerFactory(func(seed int64) (obs.Tracer, error) {
			if seed == 1 {
				return nil, boom
			}
			return obs.Nop, nil
		}))
	st, err := eng.Stream(context.Background(), "boot")
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	var failed int
	for res := range st.Results() {
		if res.Err != "" {
			failed++
			if res.Seed != 1 {
				t.Errorf("seed %d failed, want seed 1 (err %q)", res.Seed, res.Err)
			}
		}
	}
	if failed != 1 {
		t.Fatalf("%d failed seeds, want 1", failed)
	}
	if _, err := st.Wait(); err != nil {
		t.Fatalf("wait: %v", err)
	}
}
