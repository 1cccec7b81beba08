package search

import (
	"context"
	"fmt"
	"math"
	"os"
	"sync/atomic"
	"time"

	"dnstime/internal/campaign"
	"dnstime/internal/obs"
	"dnstime/internal/scenario"
	"dnstime/internal/stats"
)

// probesTotal counts probe campaigns that executed at least one seed,
// process-wide (obs.Default; exported on the serve /metrics Prometheus
// view). A probe answered entirely from its state-directory checkpoint
// is not counted — its seeds ran in a previous process.
var probesTotal = obs.Default.Counter("dnstime_search_probes",
	"Probe campaigns executed by the adaptive search engine (checkpoint-resumed probes excluded).")

// Options configures a search run: the scenario under test, how each
// probe campaign is sized, the success-rate target, and persistence.
// Every probe inherits the zero-value defaults of campaign.Engine
// (16 seeds, base seed 1, GOMAXPROCS workers).
type Options struct {
	// Scenario is the registered scenario every probe runs.
	Scenario string
	// Seeds is the number of seeds per probe campaign (default 16).
	Seeds int
	// BaseSeed is each probe campaign's first seed (nil = 1; an explicit
	// 0 runs seeds 0, 1, …), as in campaign.JobSpec.
	BaseSeed *int64
	// Workers caps each probe campaign's concurrency. The search output
	// does not depend on it.
	Workers int
	// Fast passes Fast mode through to every run.
	Fast bool
	// Params are fixed scenario params applied to every probe, on top of
	// which the search writes the swept key(s).
	Params scenario.Params
	// Target is the success-rate threshold in (0, 1) that defines the
	// boundary being searched (default 0.5): a probe "succeeds" when its
	// campaign's success rate reaches Target.
	Target float64
	// StateDir, when set, keeps every probe campaign's Engine checkpoint
	// at campaign.CheckpointPath(StateDir, key), where key is the
	// campaign.JobSpec Key of the probe — the layout `experiments serve
	// -state` uses. Each seed is recorded as it completes, so a rerun
	// over the same directory executes only the seeds no earlier run
	// finished. The directory is created if missing.
	StateDir string
	// Force resumes checkpoints in StateDir written by a different VCS
	// revision. By default such a checkpoint is set aside at
	// <path>.stale and its probe reruns: its seeds may not reproduce.
	Force bool
	// Progress, if set, is called after each probe with the probe and
	// the running done count; total is the remaining worst-case probe
	// count (Bisect) or the cell-campaign count (Grid).
	Progress func(p Probe, done, total int)
}

// withDefaults fills unset option fields.
func (o Options) withDefaults() Options {
	if o.Seeds <= 0 {
		o.Seeds = campaign.DefaultSeeds
	}
	if o.BaseSeed == nil {
		base := int64(campaign.DefaultBaseSeed)
		o.BaseSeed = &base
	}
	if o.Target == 0 {
		o.Target = 0.5
	}
	return o
}

// validate rejects option sets no probe can evaluate.
func (o Options) validate() error {
	if o.Scenario == "" {
		return fmt.Errorf("search: no scenario")
	}
	if math.IsNaN(o.Target) || o.Target <= 0 || o.Target >= 1 {
		return fmt.Errorf("search: target must be a success rate in (0, 1), got %v", o.Target)
	}
	return nil
}

// Probe is one evaluated point of the search: a full multi-seed
// campaign at one parameter assignment, reduced to its binary-outcome
// statistics. Probes carry no wall-clock fields, so search output is
// byte-identical across worker counts and across resumes.
type Probe struct {
	// Value is the swept parameter value the probe ran at, as passed to
	// the scenario (Bisect; empty for Grid cells, whose identity is the
	// cell's param set).
	Value string `json:"value,omitempty"`
	// Successes and Runs are the campaign's binary-outcome counts.
	Successes int `json:"successes"`
	Runs      int `json:"runs"`
	// Rate is Successes/Runs with its 95% Wilson interval (fractions).
	Rate float64        `json:"rate"`
	CI   stats.Interval `json:"ci"`
	// Success reports whether Rate reached the search target — the bit
	// the bisection steps on.
	Success bool `json:"success"`
	// Cached marks a probe whose campaign executed no seed: every seed
	// was resumed from its StateDir checkpoint. Excluded from JSON: a
	// resumed search's output must stay byte-identical to an
	// uninterrupted one.
	Cached bool `json:"-"`
}

// probeParams merges the fixed params with the swept assignment.
func probeParams(fixed scenario.Params, swept map[string]string) scenario.Params {
	p := scenario.Params{}
	for k, v := range fixed {
		p[k] = v
	}
	for k, v := range swept {
		p[k] = v
	}
	return p
}

// runProbe executes one probe campaign — the campaign.JobSpec of the
// merged params over seeds [baseSeed, baseSeed+seeds) — and folds it to
// a Probe. With a StateDir the campaign checkpoints to, and resumes
// from, the spec's state-directory file. Seed errors fail the probe
// loudly: a threshold read off a partially errored campaign would be
// garbage with a confident face.
func runProbe(ctx context.Context, opt Options, swept map[string]string, seeds int, baseSeed int64) (Probe, error) {
	spec := campaign.JobSpec{
		Scenario: opt.Scenario,
		Params:   probeParams(opt.Params, swept),
		Seeds:    seeds,
		BaseSeed: &baseSeed,
		Fast:     opt.Fast,
	}
	var executed atomic.Int64
	opts := spec.Options(
		campaign.WithWorkers(opt.Workers),
		// Progress fires once per seed actually executed (resumed seeds
		// are pre-counted, cancelled runs never report).
		campaign.WithProgress(func(done, total int) { executed.Add(1) }),
	)
	if opt.StateDir != "" {
		key, err := spec.Key()
		if err != nil {
			return Probe{}, err
		}
		if err := os.MkdirAll(opt.StateDir, 0o755); err != nil {
			return Probe{}, fmt.Errorf("search: state dir: %w", err)
		}
		path := campaign.CheckpointPath(opt.StateDir, key)
		opts = append(opts, campaign.WithCheckpoint(path))
		if opt.Force {
			opts = append(opts, campaign.WithResumeForce())
		}
	}
	start := time.Now()
	agg, err := campaign.NewEngine(opts...).Run(ctx, opt.Scenario)
	ran := executed.Load() > 0
	if ran {
		obs.ObservePhase(obs.PhaseProbe, time.Since(start))
	}
	if err != nil {
		return Probe{}, err
	}
	if ran {
		probesTotal.Inc()
	}
	if agg.Errors > 0 {
		first := ""
		for _, r := range agg.PerRun {
			if r.Err != "" {
				first = r.Err
				break
			}
		}
		return Probe{}, fmt.Errorf("search: probe %s over seeds %d..%d: %d/%d seeds errored (first: %s)",
			spec.Params, baseSeed, baseSeed+int64(seeds)-1, agg.Errors, agg.Runs, first)
	}
	if agg.OutcomeRuns == 0 {
		return Probe{}, fmt.Errorf("search: scenario %s reports no binary outcome — nothing to search", opt.Scenario)
	}
	return foldProbe(opt, swept, agg.Successes, agg.OutcomeRuns, !ran), nil
}

// foldProbe reduces outcome counts to a Probe against the target.
func foldProbe(opt Options, swept map[string]string, successes, runs int, cached bool) Probe {
	p := Probe{
		Successes: successes,
		Runs:      runs,
		Rate:      float64(successes) / float64(runs),
		CI:        stats.Wilson(successes, runs),
		Cached:    cached,
	}
	if len(swept) == 1 {
		for _, v := range swept {
			p.Value = v
		}
	}
	p.Success = p.Rate >= opt.Target
	return p
}
