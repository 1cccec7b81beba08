package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"dnstime/internal/netem"
	"dnstime/internal/ntpclient"
	"dnstime/internal/obs"
	"dnstime/internal/scenario"
)

// The racemargin scenario puts the paper's off-path race in quantitative
// form: the boot-time attack is re-run across a sweep of the attacker's
// latency advantage over the victim's paths, under the near-attacker
// topology preset. Each margin m gives the attacker a one-way delay of
// NearAttackerVictimDelay − m (clamped at zero) while the victim network
// keeps the preset's conditions, so a campaign over racemargin
// aggregates into a success-rate-vs-margin table — at which point does
// racing from a worse network position break the attack. The default
// grid brackets the collapse threshold; its top margin (+28 ms)
// reproduces the near-attacker preset exactly.
func init() {
	scenario.Register(scenario.Scenario{
		Name:      "racemargin",
		Title:     "Race-margin sweep",
		PaperRef:  "beyond §IV-A",
		Impl:      "core.racemarginScenario",
		CLI:       "experiments campaigns -only racemargin -seeds 1",
		Params:    map[string]string{"client": "ntpd", "margins": "10-point grid", "topo": "near-attacker"},
		ParamKeys: []string{"client", "margin", "margins", "vic-net"},
		Order:     66,
		Run:       racemarginScenario,
	})
}

// defaultMarginSpec is the default margin grid (ascending attacker
// advantage): deep disadvantage where planting can never finish, the
// empirically bracketed collapse threshold, and the preset's native
// +28 ms advantage.
const defaultMarginSpec = "-8s,-4s,-2s,-1.5s,-1.2s,-1.1s,-1s,-500ms,0s,28ms"

// parseMargins parses a comma-separated ascending margin grid. An empty
// (or all-whitespace) spec is rejected up front — strings.Split would
// otherwise yield one empty field and the error would misleadingly blame
// a "margin """ instead of the missing grid.
func parseMargins(spec string) ([]time.Duration, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, errors.New("core: empty margin grid")
	}
	parts := strings.Split(spec, ",")
	margins := make([]time.Duration, 0, len(parts))
	for _, part := range parts {
		part = strings.TrimSpace(part)
		m, err := time.ParseDuration(part)
		if err != nil {
			return nil, fmt.Errorf("core: margin %q is not a duration", part)
		}
		if len(margins) > 0 && m <= margins[len(margins)-1] {
			return nil, fmt.Errorf("core: margins must be strictly ascending (%v after %v)", m, margins[len(margins)-1])
		}
		margins = append(margins, m)
	}
	return margins, nil
}

// marginOutcome is one margin's boot-time attack result: did the
// fragment planting land, did the clock shift, and how long the shift
// took (meaningful only when Shifted).
type marginOutcome struct {
	Poisoned, Shifted bool
	TimeToShift       time.Duration
}

// marginsFromParams resolves the margin/margins params into the grid one
// run sweeps: `margin=` selects exactly one point (the single-margin
// entry the adaptive search engine drives — see internal/search),
// `margins=` a comma-separated ascending grid, and neither falls back to
// the default grid. The two are mutually exclusive: a probe that silently
// ignored one of them would measure the wrong boundary.
func marginsFromParams(p scenario.Params) ([]time.Duration, error) {
	single, haveSingle := p["margin"]
	if haveSingle {
		if _, both := p["margins"]; both {
			return nil, errors.New("core: params margin and margins are mutually exclusive")
		}
		m, err := time.ParseDuration(strings.TrimSpace(single))
		if err != nil {
			return nil, fmt.Errorf("core: margin %q is not a duration", single)
		}
		return []time.Duration{m}, nil
	}
	return parseMargins(p.Str("margins", defaultMarginSpec))
}

// runRaceMargin executes the boot-time attack from one network position:
// the near-attacker preset with the attacker's advantage set to margin
// (and, when vicNet is non-empty, the victim side swapped for that
// profile). A run that cannot poison the cache is an unsuccessful
// outcome, not an error — "the attacker lost the race from this
// position" is the measurement. The lab records into tr.
func runRaceMargin(prof ntpclient.Profile, seed int64, margin time.Duration, vicNet string, tr obs.Tracer) (marginOutcome, error) {
	topo, err := raceTopology(margin, vicNet)
	if err != nil {
		return marginOutcome{}, err
	}
	res, err := RunBootTimeAttack(prof, LabConfig{Seed: seed, Topology: topo, Tracer: tr})
	switch {
	case errors.Is(err, ErrPoisoningFailed):
		return marginOutcome{}, nil
	case err != nil:
		return marginOutcome{}, fmt.Errorf("racemargin %s at margin %s: %w", prof.Name, margin, err)
	}
	return marginOutcome{Poisoned: true, Shifted: res.Shifted, TimeToShift: res.TimeToShift}, nil
}

// racemarginScenario runs the boot-time attack once per margin at the
// given seed. Params: client selects the victim profile, margins the
// grid (comma-separated ascending durations), margin a single point
// (the probe form the adaptive search engine sweeps), vic-net replaces
// the preset's fixed victim-side conditions with a netem profile (e.g.
// vic-net=lossy-wifi sweeps the margin against bursty victim loss).
// Success reports the outcome at the grid's largest margin. The tts_s
// metric is emitted only for shifted margins — an unshifted run has no
// time-to-shift — so campaign aggregates report it over the subset of
// seeds that shifted (MetricSummary.Samples carries that denominator).
func racemarginScenario(_ context.Context, seed int64, cfg scenario.Config) (scenario.Result, error) {
	prof, err := clientFromParams(cfg.Params)
	if err != nil {
		return scenario.Result{}, err
	}
	margins, err := marginsFromParams(cfg.Params)
	if err != nil {
		return scenario.Result{}, err
	}
	vicNet := cfg.Params.Str("vic-net", "")
	if vicNet != "" {
		if _, err := netem.Profile(vicNet); err != nil {
			return scenario.Result{}, fmt.Errorf("vic-net: %w", err)
		}
	}
	metrics := make(map[string]float64, 2*len(margins))
	topShifted := false
	for _, m := range margins {
		out, err := runRaceMargin(prof, seed, m, vicNet, cfg.Tracer)
		if err != nil {
			return scenario.Result{}, err
		}
		key := m.String()
		metrics["poisoned/"+key] = boolMetric(out.Poisoned)
		metrics["shifted/"+key] = boolMetric(out.Shifted)
		topShifted = out.Shifted
		if out.Shifted {
			metrics["tts_s/"+key] = out.TimeToShift.Seconds()
		}
	}
	return scenario.Result{Success: scenario.Bool(topShifted), Metrics: metrics}, nil
}

// raceTopology builds one margin's lab topology: the near-attacker
// preset with the attacker's one-way delay moved to VictimDelay − margin
// (clamped at zero — the attacker cannot beat light) and, when vicNet is
// set, the victim side swapped for a fresh instance of that profile.
func raceTopology(margin time.Duration, vicNet string) (*netem.Topology, error) {
	topo, err := netem.TopologyPreset("near-attacker")
	if err != nil {
		return nil, err
	}
	if vicNet != "" {
		vic, err := netem.Profile(vicNet)
		if err != nil {
			return nil, err
		}
		topo.Default = vic
	}
	atk := netem.NearAttackerVictimDelay - margin
	if atk < 0 {
		atk = 0
	}
	fast := func() netem.PathModel { return &netem.Path{Delay: netem.Fixed(atk)} }
	topo.SetPath(netem.RoleAttacker, netem.RoleAny, fast)
	topo.SetPath(netem.RoleEvilServer, netem.RoleAny, fast)
	return topo, nil
}
