package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func committed(t *testing.T) map[string]string {
	t.Helper()
	var d map[string]string
	if err := json.Unmarshal(committedDigests, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// tinyConfig is a run at seed 1 with every campaign cut to checkSeeds
// seeds, no child set-up samples and a 50 ms timed phase.
func tinyConfig(t *testing.T, workload string, trace bool) config {
	return config{
		workload: workload, seed: 1, seconds: 0.05, trace: trace,
		spansPath: filepath.Join(t.TempDir(), "spans.json"),
		chunkCap:  checkSeeds, stateRoot: t.TempDir(), digests: committed(t),
	}
}

// tinyRuns caches the self-test's runs, which several tests share.
var (
	tinyMu   sync.Mutex
	tinyRuns = map[string]runFile{}
)

func tinyRun(t *testing.T, workload string, trace bool) runFile {
	t.Helper()
	key := fmt.Sprintf("%s trace=%t", workload, trace)
	tinyMu.Lock()
	rf, ok := tinyRuns[key]
	tinyMu.Unlock()
	if ok {
		return rf
	}
	rf, err := run(context.Background(), time.Now(), tinyConfig(t, workload, trace), io.Discard, io.Discard)
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	tinyMu.Lock()
	tinyRuns[key] = rf
	tinyMu.Unlock()
	return rf
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	spec, err := loadBenchmark()
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestBenchmarkJSON checks the declaration itself: valid, unique names and
// units, bounds in (0, 0.25] with setup_s's the largest, at most 128
// per-layer metrics, and the same workloads this benchmark runs.
func TestBenchmarkJSON(t *testing.T) {
	spec := loadSpec(t)
	seen := map[string]bool{}
	check := func(name, unit string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("metric name %q is invalid or repeated", name)
		}
		seen[name] = true
		if !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q is invalid", name, unit)
		}
	}
	maxBound, setupBound := 0.0, 0.0
	for _, m := range spec.EndToEnd {
		check(m.Name, m.Unit)
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("%s: bound %v better %q", m.Name, m.Bound, m.Better)
		}
		maxBound = max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound == 0 || setupBound < maxBound {
		t.Errorf("setup_s bound %v, want the largest bound (%v)", setupBound, maxBound)
	}
	for _, m := range spec.PerLayer {
		check(m.Name, m.Unit)
	}
	if len(spec.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128", len(spec.PerLayer))
	}
	var declared, here []string
	for _, w := range spec.Workloads {
		declared = append(declared, w.Name)
	}
	for _, w := range workloads {
		here = append(here, w.name)
	}
	if strings.Join(declared, ",") != strings.Join(here, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", declared, here)
	}
}

// TestMetricNames runs every workload, untraced and traced, and checks the
// output holds exactly the metrics BENCHMARK.json declares, every output
// check passed (at seed 1 the committed digests included), and no
// end-to-end metric reads 0. The runs go two at a time, which also checks
// that concurrent runs in one process do not disturb each other's outputs.
func TestMetricNames(t *testing.T) {
	spec := loadSpec(t)
	var e2e, layer []string
	units := map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
		units[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, m.Name)
		units[m.Name] = m.Unit
	}
	sort.Strings(e2e)
	sort.Strings(layer)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%t", w.name, trace), func(t *testing.T) {
				t.Parallel()
				rf := tinyRun(t, w.name, trace)
				if !rf.Correct || rf.Failed != 0 || rf.Attempted < 1 {
					t.Errorf("correct=%t failed=%d/%d %v", rf.Correct, rf.Failed, rf.Attempted, rf.Problems)
				}
				var got []string
				for name, m := range rf.Metrics {
					got = append(got, name)
					if !nameRE.MatchString(name) {
						t.Errorf("invalid metric name %q", name)
					}
					if m.Unit != units[name] {
						t.Errorf("%s unit %q, BENCHMARK.json says %q", name, m.Unit, units[name])
					}
					if !trace && m.Value <= 0 {
						t.Errorf("end-to-end %s = %v", name, m.Value)
					}
				}
				sort.Strings(got)
				want := e2e
				if trace {
					want = layer
				}
				if strings.Join(got, " ") != strings.Join(want, " ") {
					t.Errorf("metrics:\n got %v\nwant %v", got, want)
				}
			})
		}
	}
}

// TestWorkCountsRepeat: the work counts are deterministic, so they repeat
// exactly across runs, workloads and worker counts.
func TestWorkCountsRepeat(t *testing.T) {
	ctx := context.Background()
	for _, name := range workScenarios {
		var counts [2]workCounts
		for i, workers := range []int{1, 2} {
			if _, err := runCampaign(ctx, part{name, checkSeeds}, 1, workers, &counts[i], nil, 0); err != nil {
				t.Fatal(err)
			}
		}
		if counts[0].n != counts[1].n {
			t.Errorf("%s work counts at workers=1 %v, at workers=2 %v", name, counts[0].n, counts[1].n)
		}
	}
	one := &runner{cfg: tinyConfig(t, "poison-short", true), metrics: map[string]metric{}, stderr: io.Discard}
	if err := one.workLayer(ctx, map[string]float64{}); err != nil {
		t.Fatal(err)
	}
	if one.failed != 0 {
		t.Errorf("work pass: %v", one.problems)
	}
	runs := []runFile{{Provenance: provenance{Seed: 1}, result: result{Metrics: one.metrics}}}
	for _, w := range workloads {
		runs = append(runs, tinyRun(t, w.name, true))
	}
	n := 0
	for name := range runs[0].Metrics {
		if strings.HasPrefix(name, "work.") {
			n++
		}
	}
	if n != len(workScenarios)*nWork {
		t.Fatalf("%d work counts, want %d", n, len(workScenarios)*nWork)
	}
	if fires := runs[0].Metrics["work.table2.clock_fires"].Value; fires <= 0 {
		t.Errorf("work.table2.clock_fires = %v", fires)
	}
	if msgs := workMismatches(runs); len(msgs) > 0 {
		t.Errorf("work counts differ:\n%s", strings.Join(msgs, "\n"))
	}
}

// TestCorruptDigestFails: a wrong committed digest fails the run.
func TestCorruptDigestFails(t *testing.T) {
	cfg := tinyConfig(t, "poison-short", false)
	cfg.digests["boot"] = strings.Repeat("0", 64)
	rf, err := run(context.Background(), time.Now(), cfg, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rf.Correct || rf.Failed == 0 {
		t.Fatalf("corrupted boot digest: correct=%t failed=%d", rf.Correct, rf.Failed)
	}
	if !strings.Contains(strings.Join(rf.Problems, "\n"), "boot: aggregate digest") {
		t.Errorf("problems do not name the boot digest: %v", rf.Problems)
	}
}

// TestCompare: on a workload whose seeds each take well under 100 ms,
// compare reports a 20% runs_per_s drop (beyond the runs' spread, within
// the 25% bound) as slower, fails a 30% drop, and passes identical sets.
func TestCompare(t *testing.T) {
	spec := loadSpec(t)
	base := tinyRun(t, "poison-short", false)
	set := func(scale float64) []runFile {
		var runs []runFile
		for i, jitter := range []float64{0.995, 1.0, 1.005, 0.998, 1.002} {
			rf := base
			rf.Provenance.Seed = int64(i + 1)
			rf.Metrics = map[string]metric{}
			for name, m := range base.Metrics {
				m.Value *= jitter
				if name == "runs_per_s" {
					m.Value *= scale
				}
				rf.Metrics[name] = m
			}
			runs = append(runs, rf)
		}
		return runs
	}
	for _, c := range []struct {
		scale   float64
		want    verdicts
		verdict string
	}{
		{1, verdicts{}, ""},
		{0.8, verdicts{}, `runs_per_s .*slower, within bound`},
		{0.7, verdicts{regressions: 1}, `runs_per_s .*REGRESSION`},
	} {
		lines, got := compareRuns(spec, set(1), set(c.scale))
		out := strings.Join(lines, "\n")
		if got != c.want || (c.verdict != "" && !regexp.MustCompile(c.verdict).MatchString(out)) {
			t.Errorf("runs_per_s x%v: %+v, want %+v and %q:\n%s", c.scale, got, c.want, c.verdict, out)
		}
	}
}

// TestQuartiles matches Python's statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{4, 1}, [3]float64{0.25, 2.5, 4.75}},
	} {
		if got := quartiles(c.xs); got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestCommittedResults: the two committed sets of runs of one commit have
// no failed run, no median worse than its bound, no spread wider than its
// bound, and identical work counts: what `compare` needs to exit 0.
func TestCommittedResults(t *testing.T) {
	dirs, err := filepath.Glob(filepath.Join("results", "*"))
	if err != nil || len(dirs) != 2 {
		t.Fatalf("want two committed result sets under results/, found %v (%v)", dirs, err)
	}
	var sides [2][]runFile
	for i, dir := range dirs {
		if sides[i], err = loadRuns(dir); err != nil {
			t.Fatal(err)
		}
	}
	lines, v := compareRuns(loadSpec(t), sides[0], sides[1])
	if v != (verdicts{}) {
		t.Errorf("%s vs %s: %+v\n%s", dirs[0], dirs[1], v, strings.Join(lines, "\n"))
	}
}
