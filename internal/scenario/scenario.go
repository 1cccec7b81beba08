package scenario

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"dnstime/internal/obs"
)

// Config tunes how a scenario runs without changing which experiment it
// is. Every scenario runs at the one size the paper reports; the zero
// value runs it with its default params, untraced.
type Config struct {
	// Params overrides a parameterisable scenario's defaults (keys from
	// Scenario.ParamKeys — client profile, target shift, attack knobs).
	// Determinism extends to params: the same (seed, cfg) including Params
	// must produce the identical Result.
	Params Params
	// Tracer receives the run's virtual-time observability events (packet
	// sends, clock fires, attack phases; see internal/obs). nil or obs.Nop
	// disables tracing at zero cost. Tracing is observation only: a traced
	// run returns the identical Result to an untraced one, and because
	// every scenario is deterministic per (seed, Params), the emitted event
	// sequence is too.
	Tracer obs.Tracer
}

// Result is the outcome of one seeded scenario run. It is the uniform
// currency of the registry: flat, typed, and JSON-serialisable, so the
// campaign engine can aggregate any scenario without knowing what it
// measures.
type Result struct {
	// Seed identifies the run (set by the caller that invoked Run).
	Seed int64 `json:"seed"`
	// Success is the run's binary outcome — did the attack land, did every
	// sub-experiment complete — or nil for scenarios with no pass/fail
	// notion (closed-form analyses, distribution measurements).
	Success *bool `json:"success,omitempty"`
	// Metrics holds the named numeric outcomes to aggregate. encoding/json
	// marshals map keys in sorted order, so serialised Results are
	// byte-stable.
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Err is the run error, if any ("" on clean runs). Set by the campaign
	// engine, never by Run itself (Run returns its error).
	Err string `json:"err,omitempty"`
	// Detail is the run's typed result (a measure.SnoopResult, a
	// core.ChronosResult, …) for a front end that renders more than
	// Metrics, such as the single-seed `experiments` sections; nil for
	// scenarios that have nothing beyond Metrics. It is never serialised,
	// and the campaign Engine clears it as soon as Run returns, so no
	// stream, checkpoint, aggregate or cache entry holds it.
	Detail any `json:"-"`
}

// Bool returns a pointer to b, for setting Result.Success in literals.
func Bool(b bool) *bool { return &b }

// Scenario is one registered experiment: identification for the docs and
// the CLI, fixed parameters, and the seeded entry point.
type Scenario struct {
	// Name is the registry key and the CLI name
	// (`experiments campaigns -only <name>`).
	Name string
	// Title is the human experiment name ("Boot-time attack").
	Title string
	// PaperRef locates the experiment in the paper ("§IV-A, Fig. 2").
	PaperRef string
	// Impl names the Go entry point backing the scenario
	// ("core.RunBootTimeAttack") for the DESIGN.md §4 index.
	Impl string
	// CLI is the single-run command reproducing the experiment once
	// ("experiments campaigns -only boot -seeds 1").
	CLI string
	// Params documents the fixed parameters baked into this registration
	// (client profile, attack scenario, population size …).
	Params map[string]string
	// ParamKeys lists the Config.Params keys a run accepts as overrides
	// (nil: the scenario takes none). The campaign engine validates
	// requested params against this list before any run starts, so a
	// mistyped key fails fast instead of being silently ignored.
	ParamKeys []string
	// Order positions the scenario in the DESIGN.md §4 index (paper
	// order). All() sorts by Order, then Name.
	Order int
	// Run executes the experiment once at the given seed. It must be
	// deterministic in (seed, cfg) and share no mutable state with
	// concurrent runs (see the package comment for the full contract).
	// ctx is advisory: a run that observes cancellation may return
	// ctx.Err(), and the campaign engine drops such runs from aggregates
	// and checkpoints so cancellation never perturbs deterministic output.
	Run func(ctx context.Context, seed int64, cfg Config) (Result, error)
}

// AcceptsParams checks every key of p against the scenario's declared
// ParamKeys, reporting the first unknown key as an error.
func (s Scenario) AcceptsParams(p Params) error {
	if len(p) == 0 {
		return nil
	}
	accepted := make(map[string]bool, len(s.ParamKeys))
	for _, k := range s.ParamKeys {
		accepted[k] = true
	}
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !accepted[k] {
			if len(s.ParamKeys) == 0 {
				return fmt.Errorf("scenario: %s takes no params (got %s=%s)", s.Name, k, p[k])
			}
			return fmt.Errorf("scenario: %s does not accept param %q (accepts: %s)",
				s.Name, k, strings.Join(s.ParamKeys, ", "))
		}
	}
	return nil
}

// registry is the global scenario catalogue, populated by package init
// functions (import dnstime/internal/scenario/register to pull in every
// built-in scenario).
var registry = struct {
	sync.Mutex
	byName map[string]Scenario
}{byName: map[string]Scenario{}}

// Register adds a scenario to the catalogue. It panics on an empty name
// (or one the comma-separated CLI could not select), an empty Title or
// Impl (which would render blank cells in the DESIGN.md §4 index), a nil
// Run, or a duplicate name: registration happens at init time, and a
// malformed catalogue is a programming error, not a runtime condition.
func Register(s Scenario) {
	if s.Name == "" {
		panic("scenario: Register with empty Name")
	}
	if strings.ContainsAny(s.Name, ", \t\n|") {
		panic(fmt.Sprintf("scenario: Register(%q): name must be selectable by `-only a,b,...`", s.Name))
	}
	if s.Title == "" {
		panic(fmt.Sprintf("scenario: Register(%q) with empty Title", s.Name))
	}
	if s.Impl == "" {
		panic(fmt.Sprintf("scenario: Register(%q) with empty Impl", s.Name))
	}
	if s.Run == nil {
		panic(fmt.Sprintf("scenario: Register(%q) with nil Run", s.Name))
	}
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.byName[s.Name]; dup {
		panic(fmt.Sprintf("scenario: Register(%q) called twice", s.Name))
	}
	registry.byName[s.Name] = s
}

// Lookup returns the scenario registered under name.
func Lookup(name string) (Scenario, bool) {
	registry.Lock()
	defer registry.Unlock()
	s, ok := registry.byName[name]
	return s, ok
}

// All returns every registered scenario, sorted by Order then Name —
// paper order, stable regardless of package-initialisation order.
func All() []Scenario {
	registry.Lock()
	defer registry.Unlock()
	out := make([]Scenario, 0, len(registry.byName))
	for _, s := range registry.byName {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Order != out[j].Order {
			return out[i].Order < out[j].Order
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Names returns the registered scenario names in All() order.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, s := range all {
		names[i] = s.Name
	}
	return names
}

// Run looks up name and executes it once at the given seed, stamping the
// seed into the result. cfg.Params are validated against the scenario's
// ParamKeys before the run starts.
func Run(ctx context.Context, name string, seed int64, cfg Config) (Result, error) {
	s, ok := Lookup(name)
	if !ok {
		return Result{}, fmt.Errorf("scenario: unknown scenario %q (have: %s)",
			name, strings.Join(Names(), ", "))
	}
	if err := s.AcceptsParams(cfg.Params); err != nil {
		return Result{}, err
	}
	res, err := s.Run(ctx, seed, cfg)
	res.Seed = seed
	return res, err
}

// ParamString renders Params as "k=v" pairs in key order ("—" when the
// scenario has none).
func (s Scenario) ParamString() string {
	if len(s.Params) == 0 {
		return "—"
	}
	keys := make([]string, 0, len(s.Params))
	for k := range s.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	pairs := make([]string, len(keys))
	for i, k := range keys {
		pairs[i] = k + "=" + s.Params[k]
	}
	return strings.Join(pairs, " ")
}

// MarkdownIndex renders the registry as the DESIGN.md §4 experiment
// index: one markdown table row per registered scenario. DESIGN.md embeds
// this output verbatim (between the scenario-index markers) and a test
// keeps the two in sync, so the documented index cannot drift from the
// code. Regenerate with `go run ./cmd/experiments scenarios -markdown`.
func MarkdownIndex() string {
	var sb strings.Builder
	sb.WriteString("| Campaign name | Experiment | Paper | Parameters | Implementation | Single-run CLI |\n")
	sb.WriteString("|---|---|---|---|---|---|\n")
	for _, s := range All() {
		paper := s.PaperRef
		if paper == "" {
			paper = "—"
		}
		fmt.Fprintf(&sb, "| `%s` | %s | %s | %s | `%s` | `%s` |\n",
			s.Name, s.Title, paper, s.ParamString(), s.Impl, s.CLI)
	}
	return sb.String()
}
