package core

import (
	"context"
	"errors"
	"fmt"

	"dnstime/internal/netem"
	"dnstime/internal/obs"
	"dnstime/internal/scenario"
)

// The netsweep scenario fans one attack across the whole netem profile
// grid in a single seeded run: every registered path profile (lan, wan,
// transcontinental, lossy-wifi, congested, plus the default lab link)
// hosts its own lab, and the per-profile outcomes land in metrics keyed
// by profile name ("shifted/lossy-wifi"). A campaign over netsweep
// therefore aggregates into a per-profile success-rate table — the
// paper's attacks re-evaluated against path conditions the testbed
// could not vary (DESIGN.md §8).
func init() {
	scenario.Register(scenario.Scenario{
		Name:      "netsweep",
		Title:     "Attack × network-profile sweep",
		PaperRef:  "beyond §IV–§VI",
		Impl:      "core.netsweepScenario",
		CLI:       "experiments campaigns -only netsweep -seeds 1",
		Params:    map[string]string{"attack": "boot", "profiles": "all", "topo": "uniform"},
		ParamKeys: []string{"attack", "client", "scenario", "N", "spoofed", "topo"},
		Order:     65,
		Run:       netsweepScenario,
	})
}

// netsweepScenario runs the selected attack (param attack=boot|runtime|
// chronos, default boot) once per netem profile at the given seed. An
// attack that fails for attack-intrinsic reasons on a degraded path —
// poisoning never lands, the client never synchronises honestly — counts
// as an unsuccessful run on that profile, not an error: "the attack does
// not survive this path" is the measurement.
//
// The topo param adds a topology axis: topo=<preset> reruns the profile
// grid under that role-based topology, each profile supplying the
// victim-side default while the preset pins the attacker's position
// (metric keys unchanged); topo=all sweeps every preset, keying metrics
// "shifted/<preset>/<profile>". Absent topo keeps the uniform grid and
// its historical metric keys byte-for-byte.
func netsweepScenario(_ context.Context, seed int64, cfg scenario.Config) (scenario.Result, error) {
	attack := cfg.Params.Str("attack", "boot")
	run, err := sweepAttack(attack, cfg.Params)
	if err != nil {
		return scenario.Result{}, err
	}
	presets := []string{""}
	keyed := false
	switch topo := cfg.Params.Str("topo", ""); topo {
	case "":
	case "all":
		presets = netem.TopologyNames()
		keyed = true
	default:
		if _, err := netem.TopologyPreset(topo); err != nil {
			return scenario.Result{}, err
		}
		presets = []string{topo}
	}
	metrics := make(map[string]float64, 2*len(presets)*len(netem.ProfileNames()))
	allShifted := true
	for _, preset := range presets {
		for _, name := range netem.ProfileNames() {
			lab, err := sweepLab(seed, preset, name, cfg.Tracer)
			if err != nil {
				return scenario.Result{}, err
			}
			shifted, extra, err := run(lab)
			if err != nil {
				return scenario.Result{}, fmt.Errorf("netsweep %s on %s: %w", attack, name, err)
			}
			key := name
			if keyed {
				key = preset + "/" + name
			}
			metrics["shifted/"+key] = boolMetric(shifted)
			if !shifted {
				allShifted = false
			}
			for k, v := range extra {
				metrics[k+"/"+key] = v
			}
		}
	}
	return scenario.Result{Success: scenario.Bool(allShifted), Metrics: metrics}, nil
}

// sweepLab builds one grid cell's lab config: a fresh topology preset
// (the uniform one for an empty preset — the uniform sweep) whose default
// path is the profile. The lab records into tr.
func sweepLab(seed int64, preset, profile string, tr obs.Tracer) (LabConfig, error) {
	path, err := netem.Profile(profile)
	if err != nil {
		return LabConfig{}, err
	}
	topo, err := netem.TopologyFromSpec(preset, "", "", path)
	if err != nil {
		return LabConfig{}, err
	}
	return LabConfig{Seed: seed, Topology: topo, Tracer: tr}, nil
}

// sweepAttack validates the selected attack and its params, before any
// lab is built, and returns the runner for one grid cell's lab: it
// classifies the outcome as shifted, per-attack extra metrics, or a
// non-attack error.
func sweepAttack(attack string, p scenario.Params) (func(LabConfig) (bool, map[string]float64, error), error) {
	switch attack {
	case "runtime":
		prof, err := clientFromParams(p)
		if err != nil {
			return nil, err
		}
		rs, err := runtimeScenarioParam(p)
		if err != nil {
			return nil, err
		}
		return func(lab LabConfig) (bool, map[string]float64, error) {
			res, err := RunRuntimeAttack(prof, rs, lab)
			if errors.Is(err, ErrNotSynced) {
				// The client never converged honestly on this path; the
				// attack precondition itself is unreachable.
				return false, map[string]float64{"synced": 0}, nil
			}
			if err != nil {
				return false, nil, err
			}
			extra := map[string]float64{"synced": 1}
			if res.Succeeded {
				extra["duration_s"] = res.Duration.Seconds()
			}
			return res.Succeeded, extra, nil
		}, nil
	case "chronos":
		n, spoofed, err := chronosParams(p)
		if err != nil {
			return nil, err
		}
		return func(lab LabConfig) (bool, map[string]float64, error) {
			res, err := RunChronosAttack(n, spoofed, lab)
			if err != nil {
				return false, nil, err
			}
			return res.Shifted, map[string]float64{"evil_in_pool": float64(res.EvilInPool)}, nil
		}, nil
	case "boot":
		prof, err := clientFromParams(p)
		if err != nil {
			return nil, err
		}
		return func(lab LabConfig) (bool, map[string]float64, error) {
			res, err := RunBootTimeAttack(prof, lab)
			if errors.Is(err, ErrPoisoningFailed) {
				// Loss broke every planting/trigger round: the attack
				// cannot even poison the cache on this path.
				return false, map[string]float64{"poisoned": 0}, nil
			}
			if err != nil {
				return false, nil, err
			}
			extra := map[string]float64{"poisoned": 1}
			if res.Shifted {
				extra["tts_s"] = res.TimeToShift.Seconds()
			}
			return res.Shifted, extra, nil
		}, nil
	default:
		return nil, fmt.Errorf("core: unknown netsweep attack %q (want boot, runtime or chronos)", attack)
	}
}

// boolMetric flattens a success flag into a 0/1 metric.
func boolMetric(v bool) float64 {
	if v {
		return 1
	}
	return 0
}
