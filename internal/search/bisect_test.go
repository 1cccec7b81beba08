package search

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"dnstime/internal/campaign"
	"dnstime/internal/scenario"
)

// The synthetic monotone oracle every search test probes: a registered
// scenario whose per-seed outcome is a step function of the "x" param.
// Seed s flips at threshold + spread·((s mod 7 − 3)/3), so with
// spread=0 the success rate jumps 0→1 at the threshold and with
// spread>0 it ramps monotonically across threshold ± spread — both
// shapes any correct bisection must locate. "dir=falling" mirrors the
// step (success below the threshold); "mode" is an inert grid
// dimension.
var (
	oracleThreshold atomic.Int64 // millionths
	oracleRuns      atomic.Int64 // every executed oracle run
	// oracleCancelAt, when oracleCancel is set, is the oracleRuns count
	// at which the oracle cancels the search's context from inside a
	// running campaign.
	oracleCancelAt atomic.Int64
	oracleCancel   atomic.Pointer[context.CancelFunc]
)

// oracleSucceeds is the oracle's ground truth, shared by the registered
// scenario and the tests' direct assertions.
func oracleSucceeds(x, threshold, spread float64, seed int64, falling bool) bool {
	th := threshold + spread*(float64(seed%7)-3)/3
	if falling {
		return x <= th
	}
	return x >= th
}

func init() {
	scenario.Register(scenario.Scenario{
		Name:      "t-search-step",
		Title:     "Search-test monotone step oracle",
		PaperRef:  "§0",
		Impl:      "search_test.step",
		CLI:       "none",
		ParamKeys: []string{"x", "mode", "spread", "dir"},
		Order:     1100,
		Run: func(_ context.Context, seed int64, cfg scenario.Config) (scenario.Result, error) {
			if n := oracleRuns.Add(1); n == oracleCancelAt.Load() {
				if cancel := oracleCancel.Load(); cancel != nil {
					(*cancel)()
				}
			}
			x, err := cfg.Params.Float("x", 0)
			if err != nil {
				return scenario.Result{}, err
			}
			spread, err := cfg.Params.Float("spread", 0)
			if err != nil {
				return scenario.Result{}, err
			}
			th := float64(oracleThreshold.Load()) / fractionScale
			ok := oracleSucceeds(x, th, spread, seed, cfg.Params.Str("dir", "") == "falling")
			return scenario.Result{Success: scenario.Bool(ok)}, nil
		},
	})
}

// unitAxis is the tests' standard axis: x over [0, 1] at 0.01.
func unitAxis() Axis {
	return Axis{Key: "x", Kind: KindFraction, Lo: 0, Hi: 1000000, Step: 10000}
}

// ticks parses a formatted bound back into native units.
func ticks(t *testing.T, k Kind, s string) int64 {
	t.Helper()
	v, err := ParseValue(k, s)
	if err != nil {
		t.Fatalf("bound %q does not parse: %v", s, err)
	}
	return v
}

// TestBisectLocatesThreshold is the property test: for thresholds
// planted across the bracket, the bisection must return the unique
// one-step bracket stranding the threshold (fail at Lo, success at Hi),
// within the ⌈log₂(width/resolution)⌉ probe budget.
func TestBisectLocatesThreshold(t *testing.T) {
	ax := unitAxis()
	for _, th := range []int64{5000, 10000, 135000, 415000, 500000, 720000, 995000, 1000000} {
		oracleThreshold.Store(th)
		res, err := Bisect(context.Background(), ax, Options{Scenario: "t-search-step", Seeds: 4})
		if err != nil {
			t.Fatalf("th=%d: %v", th, err)
		}
		if len(res.Probes) > res.Budget || res.Budget != ax.Budget() {
			t.Errorf("th=%d: %d probes, budget %d (axis budget %d)", th, len(res.Probes), res.Budget, ax.Budget())
		}
		lo, hi := ticks(t, ax.Kind, res.Lo), ticks(t, ax.Kind, res.Hi)
		if hi-lo != ax.Step {
			t.Errorf("th=%d: bracket [%s, %s] is %d wide, want one step", th, res.Lo, res.Hi, hi-lo)
		}
		// The step oracle succeeds exactly at x ≥ th, so the threshold
		// must satisfy lo < th ≤ hi.
		if !(lo < th && th <= hi) {
			t.Errorf("th=%d: bracket [%s, %s] does not strand the threshold", th, res.Lo, res.Hi)
		}
	}
}

// TestBisectFallingAxis mirrors the property test for a falling axis
// (success below the threshold): the bracket then has success at Lo and
// failure at Hi, stranding the threshold as lo ≤ th < hi.
func TestBisectFallingAxis(t *testing.T) {
	ax := unitAxis()
	ax.Falling = true
	for _, th := range []int64{0, 135000, 500000, 995000} {
		oracleThreshold.Store(th)
		res, err := Bisect(context.Background(), ax, Options{
			Scenario: "t-search-step", Seeds: 4,
			Params: scenario.Params{"dir": "falling"},
		})
		if err != nil {
			t.Fatalf("th=%d: %v", th, err)
		}
		lo, hi := ticks(t, ax.Kind, res.Lo), ticks(t, ax.Kind, res.Hi)
		if !(lo <= th && th < hi) || len(res.Probes) > res.Budget {
			t.Errorf("th=%d: bracket [%s, %s] in %d probes does not strand the threshold",
				th, res.Lo, res.Hi, len(res.Probes))
		}
	}
}

// TestBisectTargetRate: with a per-seed spread the success rate ramps
// instead of stepping, and the bisection must bracket where the rate
// crosses the requested target — measured against the oracle's ground
// truth, not the probes' own claims.
func TestBisectTargetRate(t *testing.T) {
	ax := unitAxis()
	oracleThreshold.Store(500000)
	const seeds, spread = 16, 0.3
	rate := func(xTick int64) float64 {
		n := 0
		for s := int64(1); s <= seeds; s++ {
			if oracleSucceeds(float64(xTick)/fractionScale, 0.5, spread, s, false) {
				n++
			}
		}
		return float64(n) / seeds
	}
	for _, target := range []float64{0.25, 0.5, 0.9} {
		res, err := Bisect(context.Background(), ax, Options{
			Scenario: "t-search-step", Seeds: seeds, Target: target,
			Params: scenario.Params{"spread": "0.3"},
		})
		if err != nil {
			t.Fatalf("target=%v: %v", target, err)
		}
		lo, hi := ticks(t, ax.Kind, res.Lo), ticks(t, ax.Kind, res.Hi)
		if !(rate(lo) < target && rate(hi) >= target) {
			t.Errorf("target=%v: bracket [%s, %s] has rates %.3f / %.3f — does not strand the crossing",
				target, res.Lo, res.Hi, rate(lo), rate(hi))
		}
	}
}

// TestBisectDeterministicAcrossWorkers: the marshalled result is
// byte-identical at any probe worker count.
func TestBisectDeterministicAcrossWorkers(t *testing.T) {
	ax := unitAxis()
	oracleThreshold.Store(415000)
	marshal := func(workers int) string {
		res, err := Bisect(context.Background(), ax, Options{
			Scenario: "t-search-step", Seeds: 8, Workers: workers,
			Params: scenario.Params{"spread": "0.2"},
		})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	serial := marshal(1)
	if parallel := marshal(4); parallel != serial {
		t.Errorf("workers=4 output differs from workers=1:\n%s\nvs\n%s", parallel, serial)
	}
}

// TestBisectRejectsBadInputs: option and axis validation fail before
// any campaign runs.
func TestBisectRejectsBadInputs(t *testing.T) {
	ax := unitAxis()
	cases := map[string]struct {
		ax  Axis
		opt Options
	}{
		"no scenario":      {ax, Options{}},
		"unknown scenario": {ax, Options{Scenario: "sundial"}},
		"target 0":         {ax, Options{Scenario: "t-search-step", Target: -1}},
		"target 1":         {ax, Options{Scenario: "t-search-step", Target: 1}},
		"target NaN":       {ax, Options{Scenario: "t-search-step", Target: math.NaN()}},
		"bad axis":         {Axis{Key: "x"}, Options{Scenario: "t-search-step"}},
		"no outcome":       {ax, Options{Scenario: "table3", Params: nil}},
	}
	for name, c := range cases {
		if name == "no outcome" {
			// table3 takes no "x" param; use an axis over a key it has
			// no way to accept — the engine rejects it before running.
			c.ax = Axis{Key: "x", Kind: KindFraction, Lo: 0, Hi: 10, Step: 5}
		}
		if _, err := Bisect(context.Background(), c.ax, c.opt); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// probePath is the state-directory checkpoint of the oracle probe at
// params over seeds [base, base+seeds).
func probePath(t *testing.T, dir string, params scenario.Params, seeds int, base int64) string {
	t.Helper()
	key, err := campaign.JobSpec{Scenario: "t-search-step", Params: params, Seeds: seeds, BaseSeed: &base}.Key()
	if err != nil {
		t.Fatal(err)
	}
	return campaign.CheckpointPath(dir, key)
}

// seedsOnDisk counts the per-seed lines of every checkpoint in dir.
func seedsOnDisk(t *testing.T, dir string) int64 {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var n int64
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		n += int64(strings.Count(string(data), "\n")) - 1
	}
	return n
}

// TestBisectCheckpointResume: a completed search's state directory
// answers a re-run without executing a single seed, a probe checkpoint
// torn mid-campaign re-runs only that probe's missing seeds, and the
// resumed output is byte-identical.
func TestBisectCheckpointResume(t *testing.T) {
	ax := unitAxis()
	oracleThreshold.Store(135000)
	dir := t.TempDir()
	opt := Options{Scenario: "t-search-step", Seeds: 4, Workers: 2, StateDir: dir}

	before := oracleRuns.Load()
	res, err := Bisect(context.Background(), ax, opt)
	if err != nil {
		t.Fatal(err)
	}
	executed := oracleRuns.Load() - before
	if want := int64(len(res.Probes) * 4); executed != want {
		t.Fatalf("first search executed %d runs, want %d", executed, want)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*.jsonl")); len(files) != len(res.Probes) {
		t.Fatalf("%d checkpoint files for %d probes", len(files), len(res.Probes))
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}

	// Full resume: zero runs.
	before = oracleRuns.Load()
	res2, err := Bisect(context.Background(), ax, opt)
	if err != nil {
		t.Fatal(err)
	}
	if n := oracleRuns.Load() - before; n != 0 {
		t.Errorf("full resume executed %d runs, want 0", n)
	}
	if got, _ := json.Marshal(res2); string(got) != string(want) {
		t.Errorf("resumed output differs:\n%s\nvs\n%s", got, want)
	}
	for _, p := range res2.Probes {
		if !p.Cached {
			t.Errorf("resumed probe %s not marked cached", p.Value)
		}
	}

	// Torn resume: cut the second probe's checkpoint to its header, one
	// seed and a torn fragment; only its three missing seeds re-run.
	torn := res.Probes[1].Value
	path := probePath(t, dir, scenario.Params{"x": torn}, 4, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) < 3 {
		t.Fatalf("checkpoint too short to tear: %q", data)
	}
	if err := os.WriteFile(path, []byte(strings.Join(lines[:2], "")+`{"seed":`), 0o644); err != nil {
		t.Fatal(err)
	}
	before = oracleRuns.Load()
	res3, err := Bisect(context.Background(), ax, opt)
	if err != nil {
		t.Fatal(err)
	}
	if n := oracleRuns.Load() - before; n != 3 {
		t.Errorf("torn resume executed %d runs, want 3", n)
	}
	if got, _ := json.Marshal(res3); string(got) != string(want) {
		t.Errorf("torn-resume output differs:\n%s\nvs\n%s", got, want)
	}
	for _, p := range res3.Probes {
		if p.Cached != (p.Value != torn) {
			t.Errorf("probe %s cached=%t after tearing probe %s", p.Value, p.Cached, torn)
		}
	}
}

// TestBisectResumesInterruptedProbe: a search cancelled in the middle
// of a probe campaign (by the oracle itself, with several workers in
// flight) keeps every completed seed on disk, and the rerun executes
// exactly the seeds that are missing — not the whole probe — and prints
// the uninterrupted search's bytes.
func TestBisectResumesInterruptedProbe(t *testing.T) {
	ax := unitAxis()
	oracleThreshold.Store(415000)
	const seeds = 16
	opt := Options{Scenario: "t-search-step", Seeds: seeds, Workers: 4,
		Params: scenario.Params{"spread": "0.2"}}
	fresh, err := Bisect(context.Background(), ax, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(fresh)
	total := int64(len(fresh.Probes) * seeds)

	// Cancel inside the third probe, five seeds in.
	opt.StateDir = t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	before := oracleRuns.Load()
	oracleCancelAt.Store(before + 2*seeds + 5)
	oracleCancel.Store(&cancel)
	_, err = Bisect(ctx, ax, opt)
	oracleCancel.Store(nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted search returned %v, want context.Canceled", err)
	}
	ran := oracleRuns.Load() - before
	onDisk := seedsOnDisk(t, opt.StateDir)
	if onDisk != ran || ran <= 2*seeds || ran >= 3*seeds {
		t.Fatalf("interrupted search ran %d seeds and checkpointed %d; want equal, inside the third probe", ran, onDisk)
	}

	before = oracleRuns.Load()
	res, err := Bisect(context.Background(), ax, opt)
	if err != nil {
		t.Fatal(err)
	}
	if n := oracleRuns.Load() - before; n != total-onDisk {
		t.Errorf("resumed search executed %d seeds, want the %d missing ones", n, total-onDisk)
	}
	if got, _ := json.Marshal(res); string(got) != string(want) {
		t.Errorf("resumed output differs from an uninterrupted search:\n%s\nvs\n%s", got, want)
	}
	for i, p := range res.Probes {
		if p.Cached != (i < 2) {
			t.Errorf("probe %d (%s) cached=%t", i, p.Value, p.Cached)
		}
	}
}

// TestBisectStateContentAddress: a probe's checkpoint is addressed by
// its campaign (scenario, params, seed range), not by the search that ran
// it. A search at another target reuses every probe and equals a fresh
// search at that target; different fixed params are a different campaign
// and execute every probe.
func TestBisectStateContentAddress(t *testing.T) {
	ax := unitAxis()
	oracleThreshold.Store(500000)
	dir := t.TempDir()
	base := Options{Scenario: "t-search-step", Seeds: 2, StateDir: dir}
	first, err := Bisect(context.Background(), ax, base)
	if err != nil {
		t.Fatal(err)
	}

	// A step oracle's rates are 0 or 1, so target 0.9 takes the same
	// probes as 0.5 — all already on disk.
	at90 := base
	at90.Target = 0.9
	before := oracleRuns.Load()
	resumed, err := Bisect(context.Background(), ax, at90)
	if err != nil {
		t.Fatal(err)
	}
	if n := oracleRuns.Load() - before; n != 0 {
		t.Errorf("target 0.9 over a 0.5 search's state executed %d runs, want 0", n)
	}
	at90.StateDir = ""
	freshAt90, err := Bisect(context.Background(), ax, at90)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustMarshal(t, resumed), mustMarshal(t, freshAt90); got != want {
		t.Errorf("resumed target-0.9 search differs from a fresh one:\n%s\nvs\n%s", got, want)
	}

	params := base
	params.Params = scenario.Params{"mode": "a"}
	before = oracleRuns.Load()
	res, err := Bisect(context.Background(), ax, params)
	if err != nil {
		t.Fatal(err)
	}
	if n, want := oracleRuns.Load()-before, int64(len(res.Probes)*2); n != want {
		t.Errorf("different params executed %d runs, want every probe's %d", n, want)
	}
	// It did not clobber the original search's checkpoints.
	before = oracleRuns.Load()
	again, err := Bisect(context.Background(), ax, base)
	if err != nil {
		t.Fatal(err)
	}
	if n := oracleRuns.Load() - before; n != 0 {
		t.Errorf("original search re-executed %d runs", n)
	}
	if got, want := mustMarshal(t, again), mustMarshal(t, first); got != want {
		t.Errorf("original search's output moved:\n%s\nvs\n%s", got, want)
	}
}

// TestBisectBaseSeedZero: an explicit base seed 0 runs seeds 0…n−1
// (nil means the default base seed 1), and its probes are checkpointed
// under the JobSpec key of that seed range.
func TestBisectBaseSeedZero(t *testing.T) {
	oracleThreshold.Store(500000)
	dir := t.TempDir()
	zero := int64(0)
	// With spread 0.3, seed s flips at 0.5 + 0.1·(s mod 7 − 3): at x =
	// 0.25 only seed 0 of 0…3 succeeds, and none of 1…4.
	params := scenario.Params{"spread": "0.3"}
	ax := Axis{Key: "x", Kind: KindFraction, Lo: 0, Hi: 500000, Step: 250000}
	for _, c := range []struct {
		base      *int64
		successes int
		first     int64
	}{{&zero, 1, 0}, {nil, 0, 1}} {
		res, err := Bisect(context.Background(), ax, Options{
			Scenario: "t-search-step", Seeds: 4, BaseSeed: c.base, Params: params, StateDir: dir,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Probes) != 1 || res.Probes[0].Value != "0.25" || res.Probes[0].Successes != c.successes {
			t.Errorf("base seed %d: probes %+v, want one probe at 0.25 with %d successes", c.first, res.Probes, c.successes)
		}
		path := probePath(t, dir, scenario.Params{"spread": "0.3", "x": "0.25"}, 4, c.first)
		if _, err := os.Stat(path); err != nil {
			t.Errorf("base seed %d: no checkpoint at its JobSpec key: %v", c.first, err)
		}
	}
}

// mustMarshal renders a search result as JSON.
func mustMarshal(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
