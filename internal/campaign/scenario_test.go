package campaign

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"dnstime/internal/scenario"
)

// builtinScenarios returns every registered scenario except the "t-"
// doubles this package's engine tests register.
func builtinScenarios() []scenario.Scenario {
	var out []scenario.Scenario
	for _, s := range scenario.All() {
		if !strings.HasPrefix(s.Name, "t-") {
			out = append(out, s)
		}
	}
	return out
}

// TestScenarioRegistryComplete locks the catalogue the campaign engine
// fans out: every experiment of DESIGN.md §4 must be registered.
func TestScenarioRegistryComplete(t *testing.T) {
	want := []string{
		"boot", "runtime", "table1", "table2", "table3", "chronos",
		"chronosbound", "netsweep", "racemargin", "ratelimit", "nsfrag",
		"fig5", "table4", "fig6", "table5", "shared", "fig7",
	}
	names := map[string]bool{}
	for _, s := range builtinScenarios() {
		names[s.Name] = true
	}
	for _, n := range want {
		if !names[n] {
			t.Errorf("scenario %q not registered (have: %s)", n, strings.Join(scenario.Names(), ", "))
		}
	}
	if len(names) != len(want) {
		t.Errorf("registry has %d scenarios, want %d: %s", len(names), len(want), strings.Join(scenario.Names(), ", "))
	}
}

// TestScenarioRegistryHygiene: every built-in registration carries the
// full identification surface (no blank DESIGN.md §4 cells), a name the
// comma-separated CLI can select, a unique index position, and a
// well-formed param surface (override keys must not collide with the
// reserved Result fields and must be CLI-expressible).
func TestScenarioRegistryHygiene(t *testing.T) {
	orders := map[int]string{}
	for _, s := range builtinScenarios() {
		if s.Title == "" || s.Impl == "" || s.PaperRef == "" || s.CLI == "" {
			t.Errorf("%s: blank identification cell (Title=%q Impl=%q PaperRef=%q CLI=%q)",
				s.Name, s.Title, s.Impl, s.PaperRef, s.CLI)
		}
		if strings.ContainsAny(s.Name, ", |") {
			t.Errorf("%s: name not selectable via -only", s.Name)
		}
		if prev, dup := orders[s.Order]; dup {
			t.Errorf("%s: Order %d already used by %s (the §4 index position must be unique)",
				s.Name, s.Order, prev)
		}
		orders[s.Order] = s.Name
		seen := map[string]bool{}
		for _, k := range s.ParamKeys {
			if k == "" || strings.ContainsAny(k, "= ,") {
				t.Errorf("%s: param key %q not expressible as -param k=v", s.Name, k)
			}
			if seen[k] {
				t.Errorf("%s: duplicate param key %q", s.Name, k)
			}
			seen[k] = true
		}
	}
}

// TestRunScenarioDeterministicAcrossWorkers is the acceptance criterion
// for the registry rewrite: for EVERY registered scenario, a campaign's
// marshalled aggregate is byte-identical at -workers 1 and -workers 8.
func TestRunScenarioDeterministicAcrossWorkers(t *testing.T) {
	for _, sc := range scenario.All() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			marshal := func(workers int) string {
				return marshalAgg(t, sc.Name, WithSeeds(2), WithWorkers(workers), WithFast(true))
			}
			serial := marshal(1)
			if parallel := marshal(8); parallel != serial {
				t.Errorf("workers=8 output differs from workers=1:\n%s\nvs\n%s", parallel, serial)
			}
		})
	}
}

// TestRunScenarioAggregate: a 6-seed ntpd boot campaign shifts every
// seed's clock to ≈ −500 s and folds success, Wilson-interval and sorted
// per-metric statistics in seed order.
func TestRunScenarioAggregate(t *testing.T) {
	agg, err := NewEngine(WithSeeds(6), WithWorkers(3)).Run(context.Background(), "boot")
	if err != nil {
		t.Fatal(err)
	}
	if agg.Runs != 6 || agg.Errors != 0 {
		t.Fatalf("runs=%d errors=%d: %+v", agg.Runs, agg.Errors, agg.PerRun)
	}
	if agg.OutcomeRuns != 6 || agg.Successes != 6 || agg.SuccessRate != 100 {
		t.Errorf("outcomes=%d successes=%d rate=%v, want 6/6 at 100%%",
			agg.OutcomeRuns, agg.Successes, agg.SuccessRate)
	}
	if agg.SuccessCI.Lo <= 0 || agg.SuccessCI.Hi != 100 {
		t.Errorf("Wilson CI = %+v, want (0,100]", agg.SuccessCI)
	}
	for i, r := range agg.PerRun {
		if r.Seed != int64(1+i) {
			t.Fatalf("PerRun[%d].Seed = %d, want %d (seed order)", i, r.Seed, 1+i)
		}
		if off := r.Metrics["offset_s"]; off > -400 || off < -600 {
			t.Errorf("seed %d: offset %.0f s, want ≈ −500 s", r.Seed, off)
		}
	}
	var tts *MetricSummary
	for i := range agg.Metrics {
		if agg.Metrics[i].Name == "tts_s" {
			tts = &agg.Metrics[i]
		}
		if i > 0 && agg.Metrics[i-1].Name >= agg.Metrics[i].Name {
			t.Errorf("metric summaries not sorted: %q before %q", agg.Metrics[i-1].Name, agg.Metrics[i].Name)
		}
	}
	if tts == nil {
		t.Fatalf("no tts_s metric summary: %+v", agg.Metrics)
	}
	if tts.Samples != 6 || tts.Mean <= 0 || tts.Min > tts.Median || tts.Median > tts.Max {
		t.Errorf("bad tts_s summary: %+v", *tts)
	}
}

// TestMetricSubsetDenominator is the regression test for metric keys
// present in only a subset of a campaign's seeds (racemargin emits
// tts_s/<margin> only on shifted seeds): the summary's statistics are
// computed over exactly the reporting runs, Samples records that
// denominator explicitly, and absent keys never enter the fold as
// zeros — which would silently drag the mean toward 0.
func TestMetricSubsetDenominator(t *testing.T) {
	sc := scenario.Scenario{Name: "subset"}
	results := []scenario.Result{
		{Seed: 1, Success: scenario.Bool(true), Metrics: map[string]float64{"always": 10, "sometimes": 4}},
		{Seed: 2, Success: scenario.Bool(false), Metrics: map[string]float64{"always": 20}},
		{Seed: 3, Success: scenario.Bool(true), Metrics: map[string]float64{"always": 30, "sometimes": 8}},
		{Seed: 4, Err: "lab exploded", Metrics: map[string]float64{"always": 999}},
	}
	agg := foldScenario(sc, results)
	if agg.Runs != 4 || agg.Errors != 1 || agg.OutcomeRuns != 3 {
		t.Fatalf("runs=%d errors=%d outcomes=%d", agg.Runs, agg.Errors, agg.OutcomeRuns)
	}
	byName := map[string]MetricSummary{}
	for _, m := range agg.Metrics {
		byName[m.Name] = m
	}
	always, ok := byName["always"]
	if !ok {
		t.Fatalf("no summary for always: %+v", agg.Metrics)
	}
	// The errored seed's metrics must not leak into the fold.
	if always.Samples != 3 || always.Mean != 20 || always.Max != 30 {
		t.Errorf("always = %+v, want Samples 3 (clean runs only), mean 20", always)
	}
	sometimes, ok := byName["sometimes"]
	if !ok {
		t.Fatalf("no summary for sometimes: %+v", agg.Metrics)
	}
	if sometimes.Samples != 2 {
		t.Errorf("sometimes.Samples = %d, want 2 (only the reporting runs)", sometimes.Samples)
	}
	if sometimes.Mean != 6 || sometimes.Median != 6 || sometimes.Min != 4 || sometimes.Max != 8 {
		t.Errorf("sometimes = %+v, want statistics over {4, 8}, not zero-filled", sometimes)
	}
	// The explicit denominator must survive into rendered and JSON output.
	if r := agg.Render(); !strings.Contains(r, "n") || !strings.Contains(r, "sometimes") {
		t.Errorf("Render() lost the sample column:\n%s", r)
	}
	b, err := json.Marshal(sometimes)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"samples":2`) {
		t.Errorf("marshalled summary lacks samples: %s", b)
	}
}

// TestRunScenarioNoOutcome: scenarios without a binary outcome (the
// closed-form table3) must not invent success statistics.
func TestRunScenarioNoOutcome(t *testing.T) {
	agg, err := NewEngine(WithSeeds(3), WithWorkers(3)).Run(context.Background(), "table3")
	if err != nil {
		t.Fatal(err)
	}
	if agg.OutcomeRuns != 0 || agg.Successes != 0 {
		t.Errorf("table3 reports outcomes: %+v", agg)
	}
	if strings.Contains(agg.String(), "succeeded") {
		t.Errorf("outcome-free aggregate renders a success rate: %s", agg)
	}
	// Seed-independent closed form: identical samples, no spread beyond
	// float rounding in the mean CI.
	for _, m := range agg.Metrics {
		if m.Min != m.Max || m.CI.Hi-m.CI.Lo > 1e-9 {
			t.Errorf("metric %s varies across seeds: %+v", m.Name, m)
		}
	}
}

func TestRunScenarioUnknown(t *testing.T) {
	if _, err := NewEngine().Run(context.Background(), "sundial"); err == nil {
		t.Error("unknown scenario accepted")
	}
}
