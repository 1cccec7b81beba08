package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"dnstime"
	"dnstime/internal/obs"
	"dnstime/internal/stats"
)

// campaignOutput is the -json document: one aggregate per selected
// scenario, in registry (paper) order.
type campaignOutput struct {
	Seeds     int                         `json:"seeds"`
	BaseSeed  int64                       `json:"base_seed"`
	Fast      bool                        `json:"fast,omitempty"`
	Params    dnstime.ScenarioParams      `json:"params,omitempty"`
	Scenarios []dnstime.ScenarioAggregate `json:"scenarios"`
}

// repeatedFlag collects every occurrence of a repeatable string flag
// (-param k=v -param k2=v2).
type repeatedFlag []string

// String renders the collected values (flag.Value).
func (r *repeatedFlag) String() string { return strings.Join(*r, ",") }

// Set appends one occurrence (flag.Value).
func (r *repeatedFlag) Set(v string) error { *r = append(*r, v); return nil }

// campaignConfig holds the parsed campaigns-subcommand flags.
type campaignConfig struct {
	seeds      int
	workers    int
	baseSeed   int64
	jsonOut    bool
	only       string
	fast       bool
	perRun     bool
	quiet      bool
	params     repeatedFlag
	client     string
	checkpoint string
	force      bool
	traceDir   string
}

// campaignFlagSet declares the campaigns flag surface on a fresh FlagSet.
// The README command checker parses documented commands against the same
// set, so the docs cannot name flags the CLI does not have.
func campaignFlagSet(cfg *campaignConfig) *flag.FlagSet {
	fs := flag.NewFlagSet("campaigns", flag.ContinueOnError)
	fs.IntVar(&cfg.seeds, "seeds", 64, "independent seeds per scenario")
	fs.IntVar(&cfg.workers, "workers", 0, "concurrent workers (0 = GOMAXPROCS)")
	fs.Int64Var(&cfg.baseSeed, "seed", 1, "first seed; run i uses seed+i (an explicit 0 runs seed 0)")
	fs.BoolVar(&cfg.jsonOut, "json", false, "emit aggregates as JSON")
	fs.StringVar(&cfg.only, "only", "", "comma-separated scenario subset (default: all; see `experiments scenarios`)")
	fs.BoolVar(&cfg.fast, "fast", false, "shrink the slowest scenarios' populations")
	fs.BoolVar(&cfg.perRun, "perrun", false, "include per-seed results in -json output")
	fs.BoolVar(&cfg.quiet, "q", false, "suppress progress reporting on stderr")
	fs.Var(&cfg.params, "param", "scenario param override as key=value (repeatable; needs -only with one scenario)")
	fs.StringVar(&cfg.client, "client", "", "client profile param (shorthand for -param client=...)")
	fs.StringVar(&cfg.checkpoint, "checkpoint", "", "record each completed seed in this JSONL file and skip the seeds it already holds (needs -only with one scenario)")
	fs.BoolVar(&cfg.force, "force", false, "resume a checkpoint written by a different build revision (default: set it aside as <file>.stale and start afresh)")
	fs.StringVar(&cfg.traceDir, "trace", "", "write one Chrome trace_event file per seed to this directory (open in Perfetto)")
	return fs
}

// scenarioParams folds -param pairs and the -client shorthand into one
// validated param set (the campaigns and search subcommands share both
// flags).
func scenarioParams(pairs []string, client string) (dnstime.ScenarioParams, error) {
	params, err := dnstime.ParseScenarioParams(pairs)
	if err != nil {
		return nil, err
	}
	if client != "" {
		if _, dup := params["client"]; dup {
			return nil, errors.New("-client and -param client=... are mutually exclusive")
		}
		if params == nil {
			params = dnstime.ScenarioParams{}
		}
		params["client"] = client
	}
	return params, nil
}

// runCampaigns is the campaigns subcommand: fan the selected registered
// scenarios out across many seeds via the Engine and print aggregates to
// w. Cancelling ctx (the CLI wires SIGINT to it) drains the workers,
// prints the partial aggregate and reports the interruption; with
// -checkpoint F, rerunning the same command picks the run up again.
func runCampaigns(ctx context.Context, argv []string, w io.Writer) error {
	var cfg campaignConfig
	fs := campaignFlagSet(&cfg)
	if err := fs.Parse(argv); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return err
	}
	// A stray positional argument is almost always a forgotten -only; if
	// ignored, the CLI would silently run the entire registry.
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (scenarios are selected with -only name,...)", fs.Arg(0))
	}
	// The engine would silently default a non-positive count, leaving the
	// echoed values out of step with the runs actually executed.
	if cfg.seeds <= 0 {
		return fmt.Errorf("-seeds must be positive (got %d)", cfg.seeds)
	}
	names, err := selectScenarios(cfg.only)
	if err != nil {
		return err
	}
	params, err := scenarioParams(cfg.params, cfg.client)
	if err != nil {
		return err
	}
	// Params and checkpoints are per-scenario; applying one file or one
	// param set across the whole registry would be nonsense.
	if (len(params) > 0 || cfg.checkpoint != "") && len(names) != 1 {
		return errors.New("-param/-client/-checkpoint need -only with exactly one scenario")
	}
	if cfg.traceDir != "" {
		if err := os.MkdirAll(cfg.traceDir, 0o755); err != nil {
			return fmt.Errorf("trace dir: %w", err)
		}
	}

	out := campaignOutput{Seeds: cfg.seeds, BaseSeed: cfg.baseSeed, Fast: cfg.fast, Params: params}
	for _, name := range names {
		opts := []dnstime.EngineOption{
			dnstime.WithSeeds(cfg.seeds),
			dnstime.WithBaseSeed(cfg.baseSeed),
			dnstime.WithWorkers(cfg.workers),
			dnstime.WithFast(cfg.fast),
			dnstime.WithParams(params),
		}
		if cfg.checkpoint != "" {
			opts = append(opts, dnstime.WithCheckpoint(cfg.checkpoint))
		}
		if cfg.force {
			opts = append(opts, dnstime.WithResumeForce())
		}
		if cfg.traceDir != "" {
			opts = append(opts, dnstime.WithTracerFactory(traceFiles(cfg.traceDir, name)))
		}
		if !cfg.quiet {
			label := name
			opts = append(opts, dnstime.WithProgress(func(done, total int) {
				fmt.Fprintf(os.Stderr, "\r%-16s %d/%d runs", label, done, total)
				if done == total {
					fmt.Fprintln(os.Stderr)
				}
			}))
		}
		agg, err := dnstime.NewEngine(opts...).Run(ctx, name)
		interrupted := agg.Partial &&
			(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
		if err != nil && !interrupted {
			return err
		}
		if interrupted && !cfg.quiet {
			fmt.Fprintln(os.Stderr) // progress line ends without its total
		}
		if !cfg.perRun {
			agg.PerRun = nil
		}
		if cfg.jsonOut {
			out.Scenarios = append(out.Scenarios, agg)
		} else {
			fmt.Fprintf(w, "== campaign %s (%s): %d seeds ==\n", agg.Scenario, agg.PaperRef, cfg.seeds)
			fmt.Fprintln(w, agg.Render())
		}
		if interrupted {
			if cfg.jsonOut {
				enc := json.NewEncoder(w)
				enc.SetIndent("", "  ")
				if err := enc.Encode(out); err != nil {
					return err
				}
			}
			hint := ""
			if cfg.checkpoint != "" {
				hint = fmt.Sprintf("; rerun with -checkpoint %s to resume", cfg.checkpoint)
			}
			return fmt.Errorf("interrupted after %d/%d %s runs%s", agg.Runs, cfg.seeds, name, hint)
		}
	}

	if cfg.jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	return nil
}

// traceFiles is the -trace tracer factory: each executed seed records a
// Chrome trace_event file (open in Perfetto or chrome://tracing) named
// <scenario>-seed<N>.trace.json under dir. Timestamps are virtual time,
// so a seed's file has the same bytes at any worker count.
func traceFiles(dir, scenario string) func(seed int64) (obs.Tracer, error) {
	return func(seed int64) (obs.Tracer, error) {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.trace.json", scenario, seed)))
		if err != nil {
			return nil, err
		}
		return &fileTracer{TraceWriter: obs.NewChrome(f, seed), f: f}, nil
	}
}

// fileTracer is a Chrome TraceWriter over an owned file, whose Close
// terminates the trace array and then closes the file.
type fileTracer struct {
	*obs.TraceWriter
	f *os.File
}

// Close terminates the trace and closes the backing file, reporting the
// first error.
func (t *fileTracer) Close() error {
	err := t.TraceWriter.Close()
	if cerr := t.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// selectScenarios resolves a -only list against the registry (paper order,
// every name validated); an empty list selects every registered scenario.
func selectScenarios(only string) ([]string, error) {
	all := dnstime.ScenarioNames()
	want, err := selectNames(only, all, "scenario")
	if err != nil {
		return nil, err
	}
	var names []string
	for _, name := range all {
		if want[name] {
			names = append(names, name)
		}
	}
	return names, nil
}

// selectNames parses a comma-separated -only list into the set of names
// it selects (all of valid when the list is empty), rejecting any name
// not in valid with an error that lists the valid ones.
func selectNames(only string, valid []string, kind string) (map[string]bool, error) {
	want := make(map[string]bool, len(valid))
	if strings.TrimSpace(only) == "" {
		for _, name := range valid {
			want[name] = true
		}
		return want, nil
	}
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if !slices.Contains(valid, name) {
			return nil, fmt.Errorf("unknown %s %q (have: %s)", kind, name, strings.Join(valid, ", "))
		}
		want[name] = true
	}
	return want, nil
}

// scenariosFlagSet declares the scenarios-subcommand flag surface.
func scenariosFlagSet(markdown *bool) *flag.FlagSet {
	fs := flag.NewFlagSet("scenarios", flag.ContinueOnError)
	fs.BoolVar(markdown, "markdown", false, "emit the DESIGN.md §4 experiment index")
	return fs
}

// runScenarios is the scenarios subcommand: list the registry, or emit the
// DESIGN.md §4 experiment index with -markdown.
func runScenarios(argv []string, w io.Writer) error {
	var markdown bool
	fs := scenariosFlagSet(&markdown)
	if err := fs.Parse(argv); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if markdown {
		fmt.Fprint(w, dnstime.ScenarioIndexMarkdown())
		return nil
	}
	t := stats.NewTable("Name", "Experiment", "Paper", "Parameters", "Single-run CLI")
	for _, s := range dnstime.Scenarios() {
		t.AddRow(s.Name, s.Title, s.PaperRef, s.ParamString(), s.CLI)
	}
	fmt.Fprintln(w, t)
	fmt.Fprintln(w, "Run any scenario as a multi-seed campaign: experiments campaigns -only <name>")
	fmt.Fprintln(w, "Parameterisable scenarios take overrides: experiments campaigns -only boot -param client=chrony")
	return nil
}
