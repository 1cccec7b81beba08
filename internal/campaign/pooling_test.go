package campaign

import (
	"context"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"dnstime/internal/core"
	"dnstime/internal/scenario"
)

// unpooledAgg computes the reference aggregate with lab pooling disabled:
// every seed builds its laboratory from scratch, exactly as the engine ran
// before pooling existed. Pooling is restored before returning.
func unpooledAgg(t *testing.T, name string, opts ...Option) string {
	t.Helper()
	core.SetLabPooling(false)
	defer core.SetLabPooling(true)
	return marshalAgg(t, name, opts...)
}

// TestEnginePooledBatchedEquivalence is the pooling/batching safety
// contract: for EVERY registered scenario, the pooled engine folds a
// byte-identical aggregate to the unpooled reference at every worker
// count. Workers claim seeds/(4·workers) seeds per chunk, so 8 seeds run
// in chunks of 2 at one worker and of 1 at 4 and 8. Any cross-seed state
// leaking through a recycled lab, or any scheduling effect of chunked
// seed claiming, shows up here as a byte diff.
func TestEnginePooledBatchedEquivalence(t *testing.T) {
	const seeds = 8
	refs := map[string]string{}
	for _, sc := range scenario.All() {
		refs[sc.Name] = unpooledAgg(t, sc.Name,
			WithSeeds(seeds), WithWorkers(2))
	}
	for _, sc := range scenario.All() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			for _, workers := range []int{1, 4, 8} {
				got := marshalAgg(t, sc.Name, WithSeeds(seeds),
					WithWorkers(workers))
				if got != refs[sc.Name] {
					t.Errorf("pooled workers=%d differs from unpooled reference:\n%s\nvs\n%s",
						workers, got, refs[sc.Name])
				}
			}
		})
	}
}

// TestEnginePooledCancellationResume cancels a pooled campaign
// mid-flight, then resumes it from its checkpoint at a different worker
// count: the final aggregate must be byte-identical to an uninterrupted
// unpooled run, and the cancelled campaign's workers must not leak.
func TestEnginePooledCancellationResume(t *testing.T) {
	const seeds = 6
	want := unpooledAgg(t, "boot", WithSeeds(seeds), WithWorkers(2))

	before := runtime.NumGoroutine()
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st, err := NewEngine(
		WithSeeds(seeds), WithWorkers(2), WithCheckpoint(path),
	).Stream(ctx, "boot")
	if err != nil {
		t.Fatal(err)
	}
	completed := 0
	for range st.Results() {
		if completed++; completed == 2 {
			cancel() // in-flight seeds may still finish; queued ones drain
		}
	}
	agg, werr := st.Wait()
	if werr != nil && werr != context.Canceled {
		t.Fatalf("Wait error = %v, want nil or context.Canceled", werr)
	}
	if agg.Runs != completed {
		t.Fatalf("aggregate has %d runs, want %d (exactly the completed seeds)",
			agg.Runs, completed)
	}
	// Workers must be gone before the resume starts.
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before campaign, %d after drain",
				before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Resume pooled at another worker count: only the missing seeds run,
	// and the fold must land on the uninterrupted reference bytes.
	resumed := marshalAgg(t, "boot",
		WithSeeds(seeds), WithWorkers(4), WithCheckpoint(path))
	if resumed != want {
		t.Errorf("resumed pooled aggregate differs from uninterrupted unpooled run:\n%s\nvs\n%s",
			resumed, want)
	}
}
