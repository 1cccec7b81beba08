package core

import (
	"context"
	"fmt"

	"dnstime/internal/netem"
	"dnstime/internal/ntpclient"
	"dnstime/internal/scenario"
)

// netParamKeys are the network-condition params every lab-backed scenario
// accepts: a netem profile name plus optional scalar overrides (`-param
// net=wan`, `-param rtt=200ms`, `-param loss=0.02`; DESIGN.md §8) and the
// role-based topology spec (`-param topo=near-attacker`, `-param
// atk-net=lan`, `-param cli-net=lossy-wifi`; DESIGN.md §9).
var netParamKeys = []string{"net", "rtt", "loss", "topo", "atk-net", "cli-net"}

// labParamKeys are the LabConfig knobs every attack scenario accepts as
// campaign params (`experiments campaigns -param key=value`). Each maps
// onto one LabConfig field; absent params keep the lab defaults.
var labParamKeys = append([]string{
	"offset", "honest_servers", "evil_servers", "pad_b", "pool_ttl_s",
	"ratelimit", "dnssec",
}, netParamKeys...)

// pathFromParams resolves the net/rtt/loss params into a fresh per-run
// netem.PathModel (nil when none of the three is present — the default
// lab path).
func pathFromParams(p scenario.Params) (netem.PathModel, error) {
	profile := p.Str("net", "")
	rtt, err := p.Duration("rtt", 0)
	if err != nil {
		return nil, err
	}
	loss := float64(netem.NoLossOverride)
	if _, ok := p["loss"]; ok {
		// Validate the explicit value here: a raw -1 would otherwise
		// collide with the absent-param sentinel and silently keep the
		// profile's own loss model.
		if loss, err = p.Float("loss", 0); err != nil {
			return nil, err
		}
		if loss < 0 || loss > 1 {
			return nil, fmt.Errorf("core: param loss=%v must be a fraction in [0, 1]", loss)
		}
	}
	if profile == "" && rtt == 0 && loss == netem.NoLossOverride {
		return nil, nil
	}
	return netem.FromSpec(profile, rtt, loss)
}

// netFromParams resolves the full network-condition param surface into
// one Topology: net/rtt/loss give its Default path (the §8 uniform path)
// and topo/atk-net/cli-net its role-pair links (the §9 topology). nil,
// when no param is set, means the default lab link.
func netFromParams(p scenario.Params) (*netem.Topology, error) {
	path, err := pathFromParams(p)
	if err != nil {
		return nil, err
	}
	preset := p.Str("topo", "")
	atkNet := p.Str("atk-net", "")
	cliNet := p.Str("cli-net", "")
	if path == nil && preset == "" && atkNet == "" && cliNet == "" {
		return nil, nil
	}
	return netem.TopologyFromSpec(preset, atkNet, cliNet, path)
}

// sizeParam reads a non-negative integer sizing param (0 keeps the lab
// default). Negative values are rejected here rather than flowing into
// LabConfig, whose applyDefaults only corrects the zero value — and a
// negative pool_ttl_s would otherwise wrap to a huge uint32 TTL.
func sizeParam(p scenario.Params, key string) (int, error) {
	n, err := p.Int(key, 0)
	if err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, fmt.Errorf("core: param %s=%d must not be negative", key, n)
	}
	return n, nil
}

// labFromParams builds the per-run LabConfig from the generic scenario
// params, seeding it for the run. The caller threads cfg.Tracer itself
// (labConfig below does both).
func labFromParams(seed int64, p scenario.Params) (LabConfig, error) {
	cfg := LabConfig{Seed: seed}
	var err error
	if cfg.EvilOffset, err = p.Duration("offset", 0); err != nil {
		return cfg, err
	}
	if cfg.HonestServers, err = sizeParam(p, "honest_servers"); err != nil {
		return cfg, err
	}
	if cfg.EvilServers, err = sizeParam(p, "evil_servers"); err != nil {
		return cfg, err
	}
	if cfg.PadResponses, err = sizeParam(p, "pad_b"); err != nil {
		return cfg, err
	}
	ttl, err := sizeParam(p, "pool_ttl_s")
	if err != nil {
		return cfg, err
	}
	cfg.PoolTTL = uint32(ttl)
	if _, ok := p["ratelimit"]; ok {
		rl, err := p.Bool("ratelimit", true)
		if err != nil {
			return cfg, err
		}
		cfg.RateLimitHonest = &rl
	}
	if cfg.ResolverValidatesDNSSEC, err = p.Bool("dnssec", false); err != nil {
		return cfg, err
	}
	if cfg.Topology, err = netFromParams(p); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// clientFromParams resolves the "client" param against the Table I
// profiles, defaulting to the paper's headline ntpd profile.
func clientFromParams(p scenario.Params) (ntpclient.Profile, error) {
	return ntpclient.ProfileByName(p.Str("client", "ntpd"))
}

// runtimeScenarioParam resolves the "scenario" param (P1 or P2, either
// case; default P1) of the run-time attack.
func runtimeScenarioParam(p scenario.Params) (RuntimeScenario, error) {
	switch name := p.Str("scenario", "P1"); name {
	case "P1", "p1":
		return ScenarioP1, nil
	case "P2", "p2":
		return ScenarioP2, nil
	default:
		return 0, fmt.Errorf("core: unknown run-time scenario %q (want P1 or P2)", name)
	}
}

// chronosParams resolves the Chronos attack's "N" (honest pool queries
// before poisoning lands; default 5) and "spoofed" (attacker addresses;
// default 89) params.
func chronosParams(p scenario.Params) (n, spoofed int, err error) {
	if n, err = p.Int("N", 5); err != nil {
		return 0, 0, err
	}
	if spoofed, err = p.Int("spoofed", 89); err != nil {
		return 0, 0, err
	}
	if n < 0 || spoofed < 0 {
		return 0, 0, fmt.Errorf("core: chronos params N=%d spoofed=%d must not be negative", n, spoofed)
	}
	return n, spoofed, nil
}

// labConfig builds the per-run LabConfig from the scenario Config: params
// plus the run's tracer, so a traced campaign run records its lab.
func labConfig(seed int64, cfg scenario.Config) (LabConfig, error) {
	lc, err := labFromParams(seed, cfg.Params)
	lc.Tracer = cfg.Tracer
	return lc, err
}

// The end-to-end attack experiments register themselves with the scenario
// registry (see internal/scenario): the headline boot-time, run-time and
// Chronos attacks plus the Table I and Table II matrices, all at the
// paper's default parameters. The attack scenarios are parameterisable
// (ParamKeys): any client profile, run-time scenario, target shift or lab
// sizing is an ordinary parameterised campaign.
func init() {
	scenario.Register(scenario.Scenario{
		Name:      "boot",
		Title:     "Boot-time attack",
		PaperRef:  "§IV-A, Fig. 2",
		Impl:      "core.RunBootTimeAttack",
		CLI:       "experiments campaigns -only boot -seeds 1",
		Params:    map[string]string{"client": "ntpd"},
		ParamKeys: append([]string{"client"}, labParamKeys...),
		Order:     10,
		Run:       bootScenario,
	})
	scenario.Register(scenario.Scenario{
		Name:      "runtime",
		Title:     "Run-time attack",
		PaperRef:  "§IV-B, Fig. 3",
		Impl:      "core.RunRuntimeAttack",
		CLI:       "experiments campaigns -only runtime -seeds 1",
		Params:    map[string]string{"client": "ntpd", "scenario": "P1"},
		ParamKeys: append([]string{"client", "scenario"}, labParamKeys...),
		Order:     20,
		Run:       runtimeScenario,
	})
	scenario.Register(scenario.Scenario{
		Name:      "table1",
		Title:     "Table I client matrix",
		PaperRef:  "§V-A1",
		Impl:      "core.tableIScenario",
		CLI:       "experiments -only table1",
		Params:    map[string]string{"clients": "all 7"},
		ParamKeys: netParamKeys,
		Order:     30,
		Run:       tableIScenario,
	})
	scenario.Register(scenario.Scenario{
		Name:      "table2",
		Title:     "Table II attack durations",
		PaperRef:  "§V-A2",
		Impl:      "core.tableIIScenario",
		CLI:       "experiments -only table2",
		Params:    map[string]string{"rows": "ntpd/P2 ntpd/P1 systemd/P1 chrony/P1"},
		ParamKeys: netParamKeys,
		Order:     40,
		Run:       tableIIScenario,
	})
	scenario.Register(scenario.Scenario{
		Name:      "chronos",
		Title:     "Chronos pool-poisoning attack",
		PaperRef:  "§VI-C, Fig. 4",
		Impl:      "core.RunChronosAttack",
		CLI:       "experiments -only chronos",
		Params:    map[string]string{"N": "5", "spoofed": "89"},
		ParamKeys: append([]string{"N", "spoofed"}, labParamKeys...),
		Order:     60,
		Run:       chronosScenario,
	})
}

// bootScenario runs the §IV-A attack — by default against the paper's
// headline ntpd profile; params select any client profile and lab sizing.
func bootScenario(_ context.Context, seed int64, cfg scenario.Config) (scenario.Result, error) {
	prof, err := clientFromParams(cfg.Params)
	if err != nil {
		return scenario.Result{}, err
	}
	lab, err := labConfig(seed, cfg)
	if err != nil {
		return scenario.Result{}, err
	}
	res, err := RunBootTimeAttack(prof, lab)
	if err != nil {
		return scenario.Result{}, err
	}
	return scenario.Result{
		Success: scenario.Bool(res.Shifted),
		Metrics: map[string]float64{
			"tts_s":    res.TimeToShift.Seconds(),
			"offset_s": res.ClockOffset.Seconds(),
		},
	}, nil
}

// runtimeScenario runs the §IV-B attack — by default against ntpd under
// Scenario P1; params select the client profile, P1/P2 and lab sizing.
func runtimeScenario(_ context.Context, seed int64, cfg scenario.Config) (scenario.Result, error) {
	prof, err := clientFromParams(cfg.Params)
	if err != nil {
		return scenario.Result{}, err
	}
	rs, err := runtimeScenarioParam(cfg.Params)
	if err != nil {
		return scenario.Result{}, err
	}
	lab, err := labConfig(seed, cfg)
	if err != nil {
		return scenario.Result{}, err
	}
	res, err := RunRuntimeAttack(prof, rs, lab)
	if err != nil {
		return scenario.Result{}, err
	}
	return scenario.Result{
		Success: scenario.Bool(res.Succeeded),
		Metrics: map[string]float64{
			"duration_s":  res.Duration.Seconds(),
			"dns_lookups": float64(res.DNSLookups),
			"offset_s":    res.ClockOffset.Seconds(),
		},
	}, nil
}

// tableIScenario runs one seed's whole Table I matrix: the boot-time
// attack against all seven client profiles. Per-client outcomes are keyed
// by profile name ("boot/NTPd", "tts_s/NTPd", …) so a campaign over this
// scenario aggregates into per-client Table I rows: the mean of
// boot/<client> is that client's boot-time success rate. The
// net/rtt/loss params rerun the matrix under any netem path. Table I's
// run-time column is not a run: it is RuntimeApplicability's
// classification of each profile.
func tableIScenario(_ context.Context, seed int64, cfg scenario.Config) (scenario.Result, error) {
	metrics := make(map[string]float64, 3*len(ntpclient.AllProfiles()))
	allShifted := true
	for _, pu := range ntpclient.AllProfiles() {
		topo, err := netFromParams(cfg.Params)
		if err != nil {
			return scenario.Result{}, err
		}
		boot, err := RunBootTimeAttack(pu.Profile, LabConfig{Seed: seed, Topology: topo, Tracer: cfg.Tracer})
		if err != nil {
			return scenario.Result{}, fmt.Errorf("table I %s: %w", pu.Profile.Name, err)
		}
		success := 0.0
		if boot.Shifted {
			success = 1
		} else {
			allShifted = false
		}
		metrics["boot/"+pu.Profile.Name] = success
		metrics["tts_s/"+pu.Profile.Name] = boot.TimeToShift.Seconds()
		metrics["offset_s/"+pu.Profile.Name] = boot.ClockOffset.Seconds()
	}
	return scenario.Result{Success: scenario.Bool(allShifted), Metrics: metrics}, nil
}

// tableIIScenario runs one seed's four Table II run-time attack duration
// experiments (TableIISpecs, each keyed by its Metric) under any netem
// path via the net/rtt/loss params. Each row gets a freshly built path
// model: stateful loss models must not carry state from one row's lab
// into the next (the netem one-model-per-lab rule), so the rows stay
// independent of each other's packet counts and match a standalone
// runtime run at the same seed and params.
func tableIIScenario(_ context.Context, seed int64, cfg scenario.Config) (scenario.Result, error) {
	metrics := make(map[string]float64, len(TableIISpecs))
	for _, s := range TableIISpecs {
		topo, err := netFromParams(cfg.Params)
		if err != nil {
			return scenario.Result{}, err
		}
		r, err := RunRuntimeAttack(s.Profile, s.Scenario, LabConfig{Seed: seed, Topology: topo, Tracer: cfg.Tracer})
		if err != nil {
			return scenario.Result{}, fmt.Errorf("table II %s/%s: %w", s.Profile.Name, s.Scenario, err)
		}
		if !r.Succeeded {
			return scenario.Result{}, fmt.Errorf("table II %s/%s: attack did not complete", s.Profile.Name, s.Scenario)
		}
		metrics[s.Metric()] = r.Duration.Minutes()
	}
	return scenario.Result{Success: scenario.Bool(true), Metrics: metrics}, nil
}

// chronosScenario runs the §VI-C attack — by default with the paper's
// parameters (poisoning lands after N=5 honest pool queries, 89 spoofed
// addresses); params select N, spoofed and lab sizing. Detail carries the
// ChronosResult.
func chronosScenario(_ context.Context, seed int64, cfg scenario.Config) (scenario.Result, error) {
	n, spoofed, err := chronosParams(cfg.Params)
	if err != nil {
		return scenario.Result{}, err
	}
	lab, err := labConfig(seed, cfg)
	if err != nil {
		return scenario.Result{}, err
	}
	res, err := RunChronosAttack(n, spoofed, lab)
	if err != nil {
		return scenario.Result{}, err
	}
	controls := 0.0
	if res.ControlsPool {
		controls = 1
	}
	return scenario.Result{
		Success: scenario.Bool(res.Shifted),
		Metrics: map[string]float64{
			"bound":         float64(res.Bound),
			"pool_size":     float64(res.PoolSize),
			"evil_in_pool":  float64(res.EvilInPool),
			"controls_pool": controls,
			"offset_s":      res.ClockOffset.Seconds(),
		},
		Detail: res,
	}, nil
}
