package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"dnstime"
	"dnstime/internal/stats"
)

// searchConfig holds the parsed search-subcommand flags.
type searchConfig struct {
	scenarioName string
	key          string
	kind         string
	lo           string
	hi           string
	resolution   string
	falling      bool
	target       float64
	dims         repeatedFlag
	lhs          int
	pruneSeeds   int
	seeds        int
	workers      int
	baseSeed     int64
	jsonOut      bool
	quiet        bool
	params       repeatedFlag
	client       string
	stateDir     string
	force        bool
}

// searchFlagSet declares the search flag surface on a fresh FlagSet. The
// README command checker parses documented commands against the same
// set, so the docs cannot name flags the CLI does not have.
func searchFlagSet(cfg *searchConfig) *flag.FlagSet {
	fs := flag.NewFlagSet("search", flag.ContinueOnError)
	fs.StringVar(&cfg.scenarioName, "scenario", "", "registered scenario every probe campaign runs (required)")
	fs.StringVar(&cfg.key, "key", "", "swept scenario param (default: the scenario's built-in axis)")
	fs.StringVar(&cfg.kind, "kind", "", "axis unit system: duration or fraction (needs -lo/-hi/-resolution)")
	fs.StringVar(&cfg.lo, "lo", "", "bracket lower bound, where the scenario fails (e.g. -2s)")
	fs.StringVar(&cfg.hi, "hi", "", "bracket upper bound, where the scenario succeeds (e.g. 0s)")
	fs.StringVar(&cfg.resolution, "resolution", "", "stop once the bracket is this wide (e.g. 100ms)")
	fs.BoolVar(&cfg.falling, "falling", false, "success lies below the threshold instead of above")
	fs.Float64Var(&cfg.target, "target", 0.5, "success-rate threshold in (0,1) defining the boundary")
	fs.Var(&cfg.dims, "dim", "grid dimension as key=v1,v2,... (repeatable; selects grid mode)")
	fs.IntVar(&cfg.lhs, "lhs", 0, "Latin-hypercube subsample the grid to at most this many cells")
	fs.IntVar(&cfg.pruneSeeds, "prune-seeds", 0, "prune-stage seeds per grid cell (0 = no pruning)")
	fs.IntVar(&cfg.seeds, "seeds", 16, "seeds per probe campaign")
	fs.IntVar(&cfg.workers, "workers", 0, "concurrent workers per probe campaign (0 = GOMAXPROCS; output is identical at any count)")
	fs.Int64Var(&cfg.baseSeed, "seed", 1, "first seed of every probe campaign")
	fs.BoolVar(&cfg.jsonOut, "json", false, "emit the search result as JSON")
	fs.BoolVar(&cfg.quiet, "q", false, "suppress per-probe progress on stderr")
	fs.Var(&cfg.params, "param", "fixed scenario param as key=value (repeatable)")
	fs.StringVar(&cfg.client, "client", "", "client profile param (shorthand for -param client=...)")
	fs.StringVar(&cfg.stateDir, "state", "", "checkpoint directory, one <key>.jsonl per probe campaign as in serve -state; a rerun executes only missing seeds")
	fs.BoolVar(&cfg.force, "force", false, "resume checkpoints written by a different build revision")
	return fs
}

// searchOptions lowers the parsed flags onto the search Options.
func (cfg *searchConfig) searchOptions() (dnstime.SearchOptions, error) {
	params, err := scenarioParams(cfg.params, cfg.client)
	if err != nil {
		return dnstime.SearchOptions{}, err
	}
	opt := dnstime.SearchOptions{
		Scenario: cfg.scenarioName,
		Seeds:    cfg.seeds,
		BaseSeed: &cfg.baseSeed,
		Workers:  cfg.workers,
		Params:   params,
		Target:   cfg.target,
		StateDir: cfg.stateDir,
		Force:    cfg.force,
	}
	if !cfg.quiet {
		opt.Progress = func(p dnstime.SearchProbe, done, total int) {
			from := "ran"
			if p.Cached {
				from = "resumed"
			}
			point := p.Value
			if point == "" {
				point = "cell"
			}
			fmt.Fprintf(os.Stderr, "probe %d/%d %s=%s: %d/%d succeeded (%s)\n",
				done, total, cfg.axisKeyLabel(), point, p.Successes, p.Runs, from)
		}
	}
	return opt, nil
}

// axisKeyLabel names the swept key for progress lines.
func (cfg *searchConfig) axisKeyLabel() string {
	if cfg.key != "" {
		return cfg.key
	}
	if ax, ok := dnstime.SearchDefaultAxis(cfg.scenarioName); ok {
		return ax.Key
	}
	return "value"
}

// searchAxis resolves the bisection axis: the scenario's built-in axis
// when one exists, overridden field-by-field from the flags. A -kind
// override changes the unit system, so it requires an explicit bracket.
func (cfg *searchConfig) searchAxis() (dnstime.SearchAxis, error) {
	ax, ok := dnstime.SearchDefaultAxis(cfg.scenarioName)
	explicit := cfg.lo != "" || cfg.hi != "" || cfg.resolution != ""
	if !ok && (cfg.key == "" || cfg.lo == "" || cfg.hi == "" || cfg.resolution == "") {
		return ax, fmt.Errorf("scenario %s has no built-in axis: -key, -lo, -hi and -resolution are required", cfg.scenarioName)
	}
	if cfg.kind != "" {
		k, err := dnstime.SearchParseKind(cfg.kind)
		if err != nil {
			return ax, err
		}
		if ok && !(cfg.lo != "" && cfg.hi != "" && cfg.resolution != "") {
			return ax, errors.New("-kind changes the axis units: -lo, -hi and -resolution are required with it")
		}
		ax.Kind = k
	}
	if cfg.key != "" {
		ax.Key = cfg.key
	}
	if explicit || !ok {
		var err error
		if ax.Lo, err = dnstime.SearchParseValue(ax.Kind, cfg.lo); err != nil {
			return ax, fmt.Errorf("-lo: %w", err)
		}
		if ax.Hi, err = dnstime.SearchParseValue(ax.Kind, cfg.hi); err != nil {
			return ax, fmt.Errorf("-hi: %w", err)
		}
		if ax.Step, err = dnstime.SearchParseValue(ax.Kind, cfg.resolution); err != nil {
			return ax, fmt.Errorf("-resolution: %w", err)
		}
	}
	ax.Falling = cfg.falling
	return ax, nil
}

// searchDims parses the repeated -dim flags into grid dimensions.
func (cfg *searchConfig) searchDims() ([]dnstime.SearchDim, error) {
	dims := make([]dnstime.SearchDim, 0, len(cfg.dims))
	for _, spec := range cfg.dims {
		key, list, ok := strings.Cut(spec, "=")
		if !ok || key == "" || list == "" {
			return nil, fmt.Errorf("-dim %q is not key=v1,v2,...", spec)
		}
		var values []string
		for _, v := range strings.Split(list, ",") {
			if v = strings.TrimSpace(v); v != "" {
				values = append(values, v)
			}
		}
		dims = append(dims, dnstime.SearchDim{Key: strings.TrimSpace(key), Values: values})
	}
	return dims, nil
}

// runSearch is the search subcommand: bisect a scenario's monotone
// success-vs-parameter axis to its collapse threshold (default), or —
// with -dim flags — sweep a parameter grid with Wilson-interval
// pruning. Every probe is a full multi-seed campaign through the
// Engine; output is byte-identical at any -workers count, and with
// -state an interrupted search reruns only the seeds it had not
// completed.
func runSearch(ctx context.Context, argv []string, w io.Writer) error {
	var cfg searchConfig
	fs := searchFlagSet(&cfg)
	if err := fs.Parse(argv); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if cfg.scenarioName == "" {
		return errors.New("-scenario is required")
	}
	if _, ok := dnstime.LookupScenario(cfg.scenarioName); !ok {
		return fmt.Errorf("unknown scenario %q (have: %s)",
			cfg.scenarioName, strings.Join(dnstime.ScenarioNames(), ", "))
	}
	if cfg.seeds <= 0 {
		return fmt.Errorf("-seeds must be positive (got %d)", cfg.seeds)
	}
	opt, err := cfg.searchOptions()
	if err != nil {
		return err
	}
	if len(cfg.dims) > 0 {
		dims, err := cfg.searchDims()
		if err != nil {
			return err
		}
		res, err := dnstime.SearchGrid(ctx, dims, dnstime.SearchGridOptions{
			Options:    opt,
			PruneSeeds: cfg.pruneSeeds,
			Samples:    cfg.lhs,
		})
		if err != nil {
			return err
		}
		return renderGrid(w, res, cfg.jsonOut)
	}
	if cfg.lhs > 0 || cfg.pruneSeeds > 0 {
		return errors.New("-lhs/-prune-seeds only apply to grid mode (add -dim)")
	}
	ax, err := cfg.searchAxis()
	if err != nil {
		return err
	}
	res, err := dnstime.SearchBisect(ctx, ax, opt)
	if err != nil {
		return err
	}
	return renderBisect(w, ax, res, cfg.jsonOut)
}

// renderBisect prints a bisection result as JSON or a probe table plus
// the bracket line.
func renderBisect(w io.Writer, ax dnstime.SearchAxis, res dnstime.SearchBisectResult, jsonOut bool) error {
	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	fmt.Fprintf(w, "== search %s: bisect %s over [%s, %s] at %s ==\n",
		res.Scenario, res.Key, ax.Format(ax.Lo), ax.Format(ax.Hi), ax.Format(ax.Step))
	t := stats.NewTable("probe", res.Key, "successes", "rate %", "95% CI %")
	for i, p := range res.Probes {
		t.AddRow(i+1, p.Value,
			fmt.Sprintf("%d/%d", p.Successes, p.Runs),
			fmt.Sprintf("%.1f", 100*p.Rate),
			fmt.Sprintf("%.1f–%.1f", 100*p.CI.Lo, 100*p.CI.Hi))
	}
	fmt.Fprintln(w, t)
	fmt.Fprintf(w, "collapse threshold inside (%s, %s]: %d probes (budget %d)\n",
		res.Lo, res.Hi, len(res.Probes), res.Budget)
	return nil
}

// renderGrid prints a sweep result as JSON or a cell table.
func renderGrid(w io.Writer, res dnstime.SearchGridResult, jsonOut bool) error {
	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(res)
	}
	fmt.Fprintf(w, "== search %s: grid sweep, %d cells (%d pruned, %d subsampled away) ==\n",
		res.Scenario, len(res.Cells), res.PrunedCells, res.Dropped)
	t := stats.NewTable("cell", "successes", "rate %", "95% CI %", "pruned")
	for _, c := range res.Cells {
		keys := make([]string, 0, len(c.Params))
		for k, v := range c.Params {
			keys = append(keys, k+"="+v)
		}
		sort.Strings(keys)
		t.AddRow(strings.Join(keys, " "),
			fmt.Sprintf("%d/%d", c.Successes, c.Runs),
			fmt.Sprintf("%.1f", 100*c.Rate),
			fmt.Sprintf("%.1f–%.1f", 100*c.CI.Lo, 100*c.CI.Hi),
			c.Pruned)
	}
	fmt.Fprintln(w, t)
	return nil
}
