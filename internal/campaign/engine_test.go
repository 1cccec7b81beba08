package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dnstime/internal/ntpclient"
	"dnstime/internal/scenario"
)

// Test doubles, registered once at init so the registry's content is the
// same no matter which test runs first. Both behave as ordinary fast
// deterministic scenarios unless a test flips their package-level knobs,
// so registry-wide sweeps (TestRunScenarioDeterministicAcrossWorkers)
// can include them safely.
var (
	// engineGateFrom makes t-eng-gate block every run with seed >= the
	// stored value until its context is cancelled. Reset to MaxInt64
	// (never block) after use.
	engineGateFrom atomic.Int64
	// engineRunCount counts every t-eng-gate run that actually executed
	// (blocked runs included).
	engineRunCount atomic.Int64
)

func init() {
	engineGateFrom.Store(math.MaxInt64)
	scenario.Register(scenario.Scenario{
		Name:     "t-eng-gate",
		Title:    "Engine-test gated scenario",
		PaperRef: "§0",
		Impl:     "campaign_test.gate",
		CLI:      "none",
		Order:    1000,
		Run: func(ctx context.Context, seed int64, cfg scenario.Config) (scenario.Result, error) {
			engineRunCount.Add(1)
			if seed >= engineGateFrom.Load() {
				<-ctx.Done()
				return scenario.Result{}, ctx.Err()
			}
			return scenario.Result{
				Success: scenario.Bool(seed%2 == 0),
				Metrics: map[string]float64{"echo": float64(2 * seed)},
			}, nil
		},
	})
	scenario.Register(scenario.Scenario{
		Name:      "t-eng-echo",
		Title:     "Engine-test echo scenario",
		PaperRef:  "§0",
		Impl:      "campaign_test.echo",
		CLI:       "none",
		ParamKeys: []string{"bias"},
		Order:     1001,
		Run: func(_ context.Context, seed int64, cfg scenario.Config) (scenario.Result, error) {
			bias, err := cfg.Params.Int("bias", 0)
			if err != nil {
				return scenario.Result{}, err
			}
			return scenario.Result{
				Metrics: map[string]float64{"echo": float64(seed) + float64(bias)},
			}, nil
		},
	})
}

// marshalAgg runs the engine and marshals the aggregate.
func marshalAgg(t *testing.T, name string, opts ...Option) string {
	t.Helper()
	agg, err := NewEngine(opts...).Run(context.Background(), name)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(agg)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestEngineMatchesRunScenario is the acceptance criterion: Engine.Run
// and Engine.Stream fold byte-identical aggregates at workers 1 and 8,
// equal to running each seed alone through scenario.Run (the facade's
// RunScenario) and folding the results in seed order.
func TestEngineMatchesRunScenario(t *testing.T) {
	for _, name := range []string{"boot", "table3", "chronosbound", "t-eng-gate"} {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			sc, _ := scenario.Lookup(name)
			var serial []scenario.Result
			for seed := int64(1); seed <= 4; seed++ {
				res, err := scenario.Run(context.Background(), name, seed, scenario.Config{Fast: true})
				if err != nil {
					t.Fatal(err)
				}
				serial = append(serial, res)
			}
			want, err := json.Marshal(foldScenario(sc, serial))
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 8} {
				got := marshalAgg(t, name,
					WithSeeds(4), WithWorkers(workers), WithFast(true))
				if got != string(want) {
					t.Errorf("Engine.Run (workers=%d) differs from seed-by-seed RunScenario:\n%s\nvs\n%s",
						workers, got, want)
				}
				st, err := NewEngine(WithSeeds(4), WithWorkers(workers), WithFast(true)).
					Stream(context.Background(), name)
				if err != nil {
					t.Fatal(err)
				}
				streamed := 0
				for range st.Results() {
					streamed++
				}
				agg, err := st.Wait()
				if err != nil {
					t.Fatal(err)
				}
				if streamed != 4 {
					t.Errorf("streamed %d results, want 4", streamed)
				}
				b, _ := json.Marshal(agg)
				if string(b) != string(want) {
					t.Errorf("Engine.Stream (workers=%d) differs from seed-by-seed RunScenario:\n%s\nvs\n%s",
						workers, b, want)
				}
			}
		})
	}
}

// TestEngineBaseSeedZero is the zero-value regression: WithBaseSeed(0)
// really runs seed 0 rather than being taken for the unset default.
func TestEngineBaseSeedZero(t *testing.T) {
	agg, err := NewEngine(WithSeeds(3), WithBaseSeed(0)).Run(context.Background(), "t-eng-echo")
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range agg.PerRun {
		if r.Seed != int64(i) {
			t.Fatalf("PerRun[%d].Seed = %d, want %d (base seed 0)", i, r.Seed, i)
		}
	}
	if agg.Metrics[0].Min != 0 {
		t.Errorf("echo metric min = %v, want 0 (seed 0 ran)", agg.Metrics[0].Min)
	}
	// Unset still defaults to 1.
	agg, err = NewEngine(WithSeeds(2)).Run(context.Background(), "t-eng-echo")
	if err != nil {
		t.Fatal(err)
	}
	if agg.PerRun[0].Seed != 1 {
		t.Errorf("default base seed = %d, want 1", agg.PerRun[0].Seed)
	}
}

// TestEngineCancellation cancels a campaign after K of N seeds complete:
// the workers must drain, the partial aggregate must cover exactly the
// completed seeds, and no goroutines may leak.
func TestEngineCancellation(t *testing.T) {
	const (
		seeds    = 8
		baseSeed = 1
		quick    = 3 // seeds 1..3 complete; every later seed blocks on ctx
	)
	engineGateFrom.Store(baseSeed + quick)
	defer engineGateFrom.Store(math.MaxInt64)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st, err := NewEngine(WithSeeds(seeds), WithBaseSeed(baseSeed), WithWorkers(3)).
		Stream(ctx, "t-eng-gate")
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for range st.Results() {
		got++
		if got == quick {
			cancel() // unblocks the gated runs; workers drain
		}
	}
	agg, werr := st.Wait()
	if werr != context.Canceled {
		t.Errorf("Wait error = %v, want context.Canceled", werr)
	}
	if !agg.Partial {
		t.Error("cancelled aggregate not marked Partial")
	}
	if agg.Runs != quick || len(agg.PerRun) != quick {
		t.Fatalf("partial aggregate has %d runs (%d per-run), want exactly %d",
			agg.Runs, len(agg.PerRun), quick)
	}
	for i, r := range agg.PerRun {
		if r.Seed != int64(baseSeed+i) {
			t.Errorf("PerRun[%d].Seed = %d, want %d (completed seeds only, seed order)",
				i, r.Seed, baseSeed+i)
		}
		if r.Err != "" {
			t.Errorf("seed %d: cancelled run leaked into the aggregate as error %q", r.Seed, r.Err)
		}
	}
	// Workers must be gone: Wait already joined them, and the goroutine
	// count must return to its pre-campaign level (give the runtime a
	// moment to reap).
	for deadline := time.Now().Add(2 * time.Second); ; {
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before campaign, %d after drain",
				before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestEngineCheckpointResume is the resume acceptance criterion: a
// campaign cancelled after K seeds and rerun with the same checkpoint
// folds into the byte-identical aggregate of an uninterrupted run,
// re-executing only the missing seeds. The first run creates the missing
// file, and one WithCheckpoint invocation serves every run.
func TestEngineCheckpointResume(t *testing.T) {
	const seeds = 6
	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	want := marshalAgg(t, "t-eng-gate", WithSeeds(seeds), WithWorkers(2))

	// Interrupted first attempt: seeds 1..3 complete, later seeds block.
	engineGateFrom.Store(4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st, err := NewEngine(
		WithSeeds(seeds), WithWorkers(2), WithCheckpoint(path),
	).Stream(ctx, "t-eng-gate")
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for range st.Results() {
		if got++; got == 3 {
			cancel()
		}
	}
	if agg, err := st.Wait(); err != context.Canceled || agg.Runs != 3 {
		t.Fatalf("interrupted run: %d runs, err %v", agg.Runs, err)
	}
	engineGateFrom.Store(math.MaxInt64)

	// The checkpoint holds the header plus one line per completed seed.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(strings.TrimSpace(string(data)), "\n") + 1; lines != 1+3 {
		t.Fatalf("checkpoint has %d lines, want header + 3 seeds:\n%s", lines, data)
	}

	// Rerun: only the 3 missing seeds run; the aggregate is
	// byte-identical to the uninterrupted campaign.
	engineRunCount.Store(0)
	resumed := marshalAgg(t, "t-eng-gate", WithSeeds(seeds), WithWorkers(2), WithCheckpoint(path))
	if resumed != want {
		t.Errorf("resumed aggregate differs from uninterrupted run:\n%s\nvs\n%s", resumed, want)
	}
	if n := engineRunCount.Load(); n != seeds-3 {
		t.Errorf("resume executed %d runs, want %d (checkpointed seeds must be skipped)", n, seeds-3)
	}

	// The extended checkpoint now covers every seed: another rerun
	// executes nothing, folds the identical aggregate and leaves the
	// file byte-identical.
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	engineRunCount.Store(0)
	again := marshalAgg(t, "t-eng-gate", WithSeeds(seeds), WithWorkers(2), WithCheckpoint(path))
	if again != want {
		t.Errorf("fully-checkpointed resume differs:\n%s\nvs\n%s", again, want)
	}
	if n := engineRunCount.Load(); n != 0 {
		t.Errorf("fully-checkpointed resume executed %d runs, want 0", n)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, full) {
		t.Errorf("fully-checkpointed resume changed the file (read err %v)", err)
	}
}

// TestEngineResumeRejectsMismatch: a checkpoint can only seed the
// campaign its header describes. A run for another scenario, params or
// fast mode is refused before any seed runs and leaves the file
// byte-identical.
func TestEngineResumeRejectsMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	if _, err := NewEngine(WithSeeds(2), WithCheckpoint(path)).
		Run(context.Background(), "t-eng-echo"); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, scenario, want string
		opts                 []Option
	}{
		{"different scenario", "t-eng-gate", "scenario", nil},
		{"different params", "t-eng-echo", "params", []Option{WithParam("bias", "7")}},
		{"different fast", "t-eng-echo", "fast", []Option{WithFast(true)}},
	}
	for _, tc := range cases {
		engineRunCount.Store(0)
		opts := append([]Option{WithSeeds(4), WithCheckpoint(path)}, tc.opts...)
		_, err := NewEngine(opts...).Run(context.Background(), tc.scenario)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want a refusal naming %q", tc.name, err, tc.want)
		}
		if n := engineRunCount.Load(); n != 0 {
			t.Errorf("%s: %d seeds ran before the refusal", tc.name, n)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
			t.Errorf("%s: refused run changed the checkpoint (read err %v):\n%s\nwant:\n%s",
				tc.name, err, after, before)
		}
	}
}

// TestEngineResumeRevisionGate: a checkpoint header records the writing
// build's VCS revision. A build at a different revision does not resume
// it — recorded seeds are only reproducible under the simulator code that
// produced them — but sets the file aside at <path>.stale and starts the
// campaign afresh, so an upgrade never wedges a checkpoint path.
// WithResumeForce reuses the seeds anyway. The gate is advisory where
// identity is unknowable: non-VCS builds ("unknown", the `go test` case)
// stamp nothing and compare nothing.
func TestEngineResumeRevisionGate(t *testing.T) {
	defer func(orig func() string) { buildRevision = orig }(buildRevision)
	const seeds = 3
	fresh := marshalAgg(t, "t-eng-echo", WithSeeds(seeds))
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	// run folds a checkpointed campaign over n seeds and reports how many
	// seeds it executed.
	run := func(n int, opts ...Option) (string, int64) {
		t.Helper()
		var executed atomic.Int64
		opts = append(opts, WithSeeds(n), WithCheckpoint(path),
			WithProgress(func(int, int) { executed.Add(1) }))
		return marshalAgg(t, "t-eng-echo", opts...), executed.Load()
	}
	read := func(path string) []byte {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	header := func() string { return strings.SplitN(string(read(path)), "\n", 2)[0] }

	buildRevision = func() string { return "aaaa00000000" }
	run(seeds)
	if hdr := header(); !strings.Contains(hdr, `"revision":"aaaa00000000"`) {
		t.Fatalf("header lacks the revision stamp: %s", hdr)
	}
	old := read(path)
	if _, n := run(seeds); n != 0 {
		t.Errorf("same-revision run executed %d seeds, want 0", n)
	}

	// Another revision, forced: every recorded seed is reused in place.
	buildRevision = func() string { return "bbbb11111111" }
	if got, n := run(seeds, WithResumeForce()); got != fresh || n != 0 {
		t.Errorf("forced cross-revision run executed %d seeds (want 0), aggregate:\n%s\nwant:\n%s", n, got, fresh)
	}
	if !bytes.Equal(read(path), old) {
		t.Error("forced run changed the checkpoint")
	}
	if _, err := os.Stat(path + ".stale"); err == nil {
		t.Error("forced run set the checkpoint aside")
	}

	// Another revision, not forced: the old bytes move to .stale
	// unchanged, every seed executes into a fresh file stamped with the
	// current revision, and the aggregate is the fresh run's.
	buildRevision = func() string { return "cccc22222222" }
	if got, n := run(seeds); got != fresh || n != seeds {
		t.Errorf("cross-revision run executed %d seeds (want %d), aggregate:\n%s\nwant:\n%s", n, seeds, got, fresh)
	}
	if stale := read(path + ".stale"); !bytes.Equal(stale, old) {
		t.Errorf("set-aside checkpoint:\n%s\nwant the old bytes:\n%s", stale, old)
	}
	if hdr := header(); !strings.Contains(hdr, `"revision":"cccc22222222"`) {
		t.Errorf("fresh checkpoint header lacks the current revision: %s", hdr)
	}

	// Current build unknown: nothing to compare against, every seed is
	// reused.
	buildRevision = func() string { return "unknown" }
	if _, n := run(seeds); n != 0 {
		t.Errorf("run under an unknown current revision executed %d seeds, want 0", n)
	}

	// Non-VCS builds must omit the field entirely, and such revision-free
	// checkpoints (including every pre-gate file) stay resumable anywhere.
	path = filepath.Join(t.TempDir(), "ck2.jsonl")
	run(seeds)
	if hdr := header(); strings.Contains(hdr, "revision") {
		t.Errorf("non-VCS build stamped a revision: %s", hdr)
	}
	buildRevision = func() string { return "dddd33333333" }
	if _, n := run(seeds); n != 0 {
		t.Errorf("run over a revision-free checkpoint executed %d seeds, want 0", n)
	}
}

// TestEngineParams: overrides reach the runs, and unknown keys fail
// before any run starts.
func TestEngineParams(t *testing.T) {
	agg, err := NewEngine(WithSeeds(2), WithBaseSeed(5), WithParam("bias", "100")).
		Run(context.Background(), "t-eng-echo")
	if err != nil {
		t.Fatal(err)
	}
	if agg.Metrics[0].Min != 105 || agg.Metrics[0].Max != 106 {
		t.Errorf("echo with bias=100 over seeds 5,6 = [%v, %v], want [105, 106]",
			agg.Metrics[0].Min, agg.Metrics[0].Max)
	}
	if _, err := NewEngine(WithParam("bais", "1")).Stream(context.Background(), "t-eng-echo"); err == nil {
		t.Error("mistyped param key accepted")
	}
	if _, err := NewEngine(WithParam("client", "chrony")).Stream(context.Background(), "table4"); err == nil {
		t.Error("param accepted by a scenario that declares none")
	}
}

// TestEngineParameterisedAttack: the headline redesign goal — a
// boot-time attack against any client profile at any target shift is an
// ordinary parameterised campaign.
func TestEngineParameterisedAttack(t *testing.T) {
	agg, err := NewEngine(
		WithSeeds(4),
		WithParam("client", "chrony"),
		WithParam("offset", "-300s"),
	).Run(context.Background(), "boot")
	if err != nil {
		t.Fatal(err)
	}
	if agg.Errors != 0 || agg.OutcomeRuns != 4 {
		t.Fatalf("parameterised boot campaign: %+v", agg)
	}
	var offset *MetricSummary
	for i := range agg.Metrics {
		if agg.Metrics[i].Name == "offset_s" {
			offset = &agg.Metrics[i]
		}
	}
	if offset == nil || offset.Mean > -200 || offset.Mean < -400 {
		t.Fatalf("offset_s summary %+v, want ≈ -300", offset)
	}
}

// TestRunDeterministicAcrossWorkers: a parameterised campaign (chrony at
// a −300 s target shift) folds byte-identical aggregates at any worker
// count.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	opts := []Option{WithSeeds(16), WithParam("client", "chrony"), WithParam("offset", "-300s")}
	serial := marshalAgg(t, "boot", append(opts, WithWorkers(1))...)
	for _, w := range []int{2, 8} {
		if got := marshalAgg(t, "boot", append(opts, WithWorkers(w))...); got != serial {
			t.Errorf("workers=%d output differs from workers=1:\n%s\nvs\n%s", w, got, serial)
		}
	}
}

// TestRunChronosCampaign: at N=5 (inside the N ≤ 11 bound) poisoning
// lands early enough for every seed to shift, and the aggregate carries
// no time-to-shift — the Chronos attack decides success at the end of
// its fixed pool-generation window.
func TestRunChronosCampaign(t *testing.T) {
	agg, err := NewEngine(WithSeeds(3), WithWorkers(3), WithParam("N", "5")).
		Run(context.Background(), "chronos")
	if err != nil {
		t.Fatal(err)
	}
	if agg.Errors != 0 {
		t.Fatalf("errors = %d: %+v", agg.Errors, agg.PerRun)
	}
	if agg.Successes != agg.Runs || agg.OutcomeRuns != agg.Runs {
		t.Errorf("successes = %d/%d, want all", agg.Successes, agg.Runs)
	}
	for _, m := range agg.Metrics {
		if strings.HasPrefix(m.Name, "tts_s") {
			t.Errorf("chronos aggregate reports a time-to-shift metric %q", m.Name)
		}
	}
}

// TestRunProgressReporting: WithProgress receives one call per completed
// seed, counting 1..n in order with total n, however many workers race
// to report. The callback takes no lock of its own: the Engine serialises
// the calls, and the race detector checks that it does.
func TestRunProgressReporting(t *testing.T) {
	var dones []int
	agg, err := NewEngine(
		WithSeeds(6),
		WithWorkers(3),
		WithParam("client", "ntpdate"),
		WithProgress(func(done, total int) {
			if total != 6 {
				t.Errorf("total = %d, want 6", total)
			}
			dones = append(dones, done)
		}),
	).Run(context.Background(), "boot")
	if err != nil {
		t.Fatal(err)
	}
	if agg.Runs != 6 {
		t.Fatalf("runs = %d", agg.Runs)
	}
	if len(dones) != 6 {
		t.Fatalf("progress calls = %d, want 6", len(dones))
	}
	for i, d := range dones {
		if d != i+1 {
			t.Fatalf("progress counts = %v, want 1..6 in order", dones)
		}
	}
}

// TestTableIDeterministicAcrossWorkers is the soak form of the
// determinism contract on the Table I acceptance workload: a 64-seed
// table1 campaign is byte-identical at -workers 1 and -workers 8.
func TestTableIDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("64-seed campaign in -short mode")
	}
	serial := marshalAgg(t, "table1", WithSeeds(64), WithWorkers(1))
	if parallel := marshalAgg(t, "table1", WithSeeds(64), WithWorkers(8)); parallel != serial {
		t.Fatalf("workers=8 output differs from workers=1")
	}
}

// TestTableIRows: a table1 campaign folds one boot/<client> success
// metric per Table I profile, each over every seed, and — as in the
// paper's Table I — all seven clients are boot-time vulnerable.
func TestTableIRows(t *testing.T) {
	const seeds = 4
	agg, err := NewEngine(WithSeeds(seeds), WithWorkers(8)).Run(context.Background(), "table1")
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]MetricSummary{}
	for _, m := range agg.Metrics {
		byName[m.Name] = m
	}
	for _, pu := range ntpclient.AllProfiles() {
		boot, ok := byName["boot/"+pu.Profile.Name]
		if !ok {
			t.Errorf("no boot/%s metric: %+v", pu.Profile.Name, agg.Metrics)
			continue
		}
		if boot.Samples != seeds {
			t.Errorf("boot/%s: %d samples, want %d", pu.Profile.Name, boot.Samples, seeds)
		}
		if boot.Mean != 1 {
			t.Errorf("boot/%s: success rate %.2f, want 1 (every client is boot-time vulnerable)",
				pu.Profile.Name, boot.Mean)
		}
	}
}

// TestEngineCheckpointRefusesOverwrite: rerunning a checkpointed
// campaign never overwrites its file. A rerun over fewer seeds executes
// none and leaves the file byte-identical; a rerun over more seeds
// executes only the new ones and appends them after the recorded bytes.
func TestEngineCheckpointRefusesOverwrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	if _, err := NewEngine(WithSeeds(4), WithCheckpoint(path)).
		Run(context.Background(), "t-eng-gate"); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	engineRunCount.Store(0)
	if _, err := NewEngine(WithSeeds(2), WithCheckpoint(path)).
		Run(context.Background(), "t-eng-gate"); err != nil {
		t.Fatal(err)
	}
	if n := engineRunCount.Load(); n != 0 {
		t.Errorf("rerun over fewer seeds executed %d, want 0", n)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Errorf("rerun over fewer seeds changed the checkpoint (read err %v):\n%s\nwant:\n%s", err, after, before)
	}
	engineRunCount.Store(0)
	if _, err := NewEngine(WithSeeds(6), WithCheckpoint(path)).
		Run(context.Background(), "t-eng-gate"); err != nil {
		t.Fatal(err)
	}
	if n := engineRunCount.Load(); n != 2 {
		t.Errorf("rerun over more seeds executed %d, want the 2 new ones", n)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.HasPrefix(after, before) || len(after) == len(before) {
		t.Errorf("rerun over more seeds did not append (read err %v):\n%s", err, after)
	}
}

// TestEngineResumeToleratesTornTail: a hard kill can tear the final
// checkpoint line mid-write. The unterminated fragment must be ignored on
// resume (it is the crash signature, not corruption), truncated away
// before new seeds are appended, and the completed campaign must still
// fold the byte-identical aggregate.
func TestEngineResumeToleratesTornTail(t *testing.T) {
	const seeds = 4
	path := filepath.Join(t.TempDir(), "torn.jsonl")
	want := marshalAgg(t, "t-eng-echo", WithSeeds(seeds))

	// Checkpoint seeds 1–2, then tear the tail as a crash would.
	if _, err := NewEngine(WithSeeds(2), WithCheckpoint(path)).
		Run(context.Background(), "t-eng-echo"); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seed":3,"metr`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	resumed := marshalAgg(t, "t-eng-echo", WithSeeds(seeds), WithCheckpoint(path))
	if resumed != want {
		t.Errorf("resume after torn tail differs from uninterrupted run:\n%s\nvs\n%s", resumed, want)
	}
	// The torn fragment is gone: the file re-parses cleanly end to end.
	if got, _, err := loadCheckpoint(path, NewEngine(WithSeeds(seeds)).resolved(), "t-eng-echo"); err != nil || len(got) != seeds {
		t.Errorf("checkpoint after append: %d seeds, err %v; want %d seeds", len(got), err, seeds)
	}
	// A malformed line *inside* the terminated prefix is real corruption
	// and must still be rejected, leaving the file as it was.
	corrupt := []byte("{\"v\":1,\"scenario\":\"t-eng-echo\",\"base_seed\":1,\"seeds\":4}\nnot json\n")
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(WithSeeds(seeds), WithCheckpoint(path)).
		Run(context.Background(), "t-eng-echo"); err == nil {
		t.Error("terminated malformed line accepted")
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, corrupt) {
		t.Errorf("refused run changed the corrupt checkpoint (read err %v):\n%s", err, after)
	}
}
