package campaign

import (
	"fmt"
	"sort"
	"strings"

	"dnstime/internal/scenario"
	// Populate the scenario registry with every built-in experiment so
	// the Engine works for any caller of this package.
	_ "dnstime/internal/scenario/register"
	"dnstime/internal/stats"
)

// MetricSummary aggregates one named metric across a campaign's clean
// runs. A scenario is free to report a metric on only some of its seeds
// (racemargin's tts_s/<margin> exists only where the clock shifted), so
// every statistic here is computed over exactly the runs that reported
// the key, and Samples is that denominator — a mean over 3 of 64 seeds
// must never be read as a mean over the campaign.
type MetricSummary struct {
	// Name is the metric key as reported by the scenario's runs.
	Name string `json:"name"`
	// Samples is how many clean runs reported the metric — the
	// denominator of every statistic below. It can be smaller than the
	// campaign's run count for conditionally emitted metrics.
	Samples int `json:"samples"`
	// Mean is the sample mean over the Samples reporting runs, with its
	// 95% normal-approximation CI.
	Mean float64        `json:"mean"`
	CI   stats.Interval `json:"mean_ci"`
	// Median, Min and Max describe the distribution over the Samples
	// reporting runs.
	Median float64 `json:"median"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// ScenarioAggregate folds a scenario campaign's per-run results, merged
// in seed order: success statistics (when the scenario reports a binary
// outcome) plus one MetricSummary per metric name, sorted by name.
type ScenarioAggregate struct {
	// Scenario and PaperRef identify the experiment.
	Scenario string `json:"scenario"`
	PaperRef string `json:"paper_ref,omitempty"`
	// Runs counts all runs; Errors the runs that returned an error.
	Runs   int `json:"runs"`
	Errors int `json:"errors"`
	// OutcomeRuns counts the clean runs that reported a binary outcome;
	// zero for scenarios with no pass/fail notion (then the three success
	// fields are meaningless).
	OutcomeRuns int `json:"outcome_runs"`
	// Successes, SuccessRate (percent) and the 95% Wilson interval
	// (percent) summarise the binary outcomes over OutcomeRuns.
	Successes   int            `json:"successes"`
	SuccessRate float64        `json:"success_rate_pct"`
	SuccessCI   stats.Interval `json:"success_ci_pct"`
	// Metrics summarises every metric the runs reported, sorted by name.
	Metrics []MetricSummary `json:"metrics,omitempty"`
	// PerRun lists every run in seed order.
	PerRun []scenario.Result `json:"per_run,omitempty"`
	// Partial marks an aggregate folded from a cancelled campaign: it
	// covers exactly the seeds that completed before cancellation (the
	// field is omitted from complete aggregates, whose bytes therefore
	// stay identical to pre-Engine output).
	Partial bool `json:"partial,omitempty"`
}

// String renders the aggregate as one human-readable line.
func (a ScenarioAggregate) String() string {
	outcome := ""
	if a.OutcomeRuns > 0 {
		outcome = fmt.Sprintf(", %d/%d succeeded (%.1f%%, 95%% CI %.1f–%.1f%%)",
			a.Successes, a.OutcomeRuns, a.SuccessRate, a.SuccessCI.Lo, a.SuccessCI.Hi)
	}
	partial := ""
	if a.Partial {
		partial = " [partial: cancelled mid-campaign]"
	}
	return fmt.Sprintf("%s: %d runs%s, %d metrics, errors %d%s",
		a.Scenario, a.Runs, outcome, len(a.Metrics), a.Errors, partial)
}

// Render draws the aggregate as a per-metric table in the style of the
// paper's tables: sample count, mean with 95% CI, median and range per
// metric. The n column is each metric's own denominator — conditionally
// emitted metrics (racemargin's tts_s/<margin>, reported only by shifted
// seeds) summarise fewer runs than the campaign executed, and hiding
// that count would let a 3-seed mean masquerade as a 64-seed one.
func (a ScenarioAggregate) Render() string {
	var sb strings.Builder
	sb.WriteString(a.String())
	sb.WriteByte('\n')
	if len(a.Metrics) == 0 {
		return sb.String()
	}
	t := stats.NewTable("Metric", "n", "mean", "95% CI", "median", "min–max")
	for _, m := range a.Metrics {
		t.AddRow(m.Name,
			m.Samples,
			fmt.Sprintf("%.2f", m.Mean),
			fmt.Sprintf("%.2f–%.2f", m.CI.Lo, m.CI.Hi),
			fmt.Sprintf("%.2f", m.Median),
			fmt.Sprintf("%.2f–%.2f", m.Min, m.Max))
	}
	sb.WriteString(t.String())
	return sb.String()
}

// foldScenario merges per-run results (already in seed order) into a
// ScenarioAggregate.
func foldScenario(sc scenario.Scenario, results []scenario.Result) ScenarioAggregate {
	agg := ScenarioAggregate{
		Scenario: sc.Name,
		PaperRef: sc.PaperRef,
		Runs:     len(results),
		PerRun:   results,
	}
	samples := map[string][]float64{}
	for _, r := range results {
		if r.Err != "" {
			agg.Errors++
			continue
		}
		if r.Success != nil {
			agg.OutcomeRuns++
			if *r.Success {
				agg.Successes++
			}
		}
		for name, v := range r.Metrics {
			samples[name] = append(samples[name], v)
		}
	}
	if agg.OutcomeRuns > 0 {
		agg.SuccessRate = 100 * float64(agg.Successes) / float64(agg.OutcomeRuns)
		ci := stats.Wilson(agg.Successes, agg.OutcomeRuns)
		agg.SuccessCI = stats.Interval{Lo: 100 * ci.Lo, Hi: 100 * ci.Hi}
	}
	names := make([]string, 0, len(samples))
	for name := range samples {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		xs := samples[name]
		min, max := xs[0], xs[0]
		for _, x := range xs {
			if x < min {
				min = x
			}
			if x > max {
				max = x
			}
		}
		agg.Metrics = append(agg.Metrics, MetricSummary{
			Name:    name,
			Samples: len(xs),
			Mean:    stats.Mean(xs),
			CI:      stats.MeanCI(xs),
			Median:  stats.Median(xs),
			Min:     min,
			Max:     max,
		})
	}
	return agg
}
