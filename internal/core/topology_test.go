package core

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"dnstime/internal/ipv4"
	"dnstime/internal/netem"
	"dnstime/internal/ntpclient"
	"dnstime/internal/scenario"
)

// TestUniformTopologyByteIdentical is the tentpole's compatibility
// acceptance at the lab level: a lab under the uniform topology preset
// replays the topology-free lab byte-for-byte — same attack outcome,
// same metrics, same virtual timings — because the compiled uniform
// topology consumes no randomness and applies the identical default
// path. The boot and chronos attacks cover the DNS and NTP planes.
func TestUniformTopologyByteIdentical(t *testing.T) {
	uniform := func() *netem.Topology {
		topo, err := netem.TopologyPreset("uniform")
		if err != nil {
			t.Fatal(err)
		}
		return topo
	}
	for seed := int64(1); seed <= 3; seed++ {
		plain, err := RunBootTimeAttack(ntpclient.ProfileNTPd, LabConfig{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		under, err := RunBootTimeAttack(ntpclient.ProfileNTPd, LabConfig{Seed: seed, Topology: uniform()})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, under) {
			t.Errorf("seed %d: boot result differs under uniform topology:\n%+v\nvs\n%+v", seed, plain, under)
		}
	}
	plain, err := RunChronosAttack(5, 89, LabConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	under, err := RunChronosAttack(5, 89, LabConfig{Seed: 1, Topology: uniform()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, under) {
		t.Errorf("chronos result differs under uniform topology:\n%+v\nvs\n%+v", plain, under)
	}
}

// TestScenarioTopoUniformByteIdentical lifts the same acceptance to the
// scenario layer: `-param topo=uniform` produces the byte-identical
// Result JSON of a param-free run, for every lab-backed scenario.
func TestScenarioTopoUniformByteIdentical(t *testing.T) {
	for _, name := range []string{"boot", "runtime", "table1", "chronos"} {
		render := func(params scenario.Params) string {
			res, err := scenario.Run(context.Background(), name, 2, scenario.Config{Params: params})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			b, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			return string(b)
		}
		plain := render(nil)
		under := render(scenario.Params{"topo": "uniform"})
		if plain != under {
			t.Errorf("%s: Result differs under topo=uniform:\n%s\nvs\n%s", name, plain, under)
		}
	}
}

// TestLabFromParamsTopology: every network param builds the one
// Topology — net/rtt/loss as its default path, topo/atk-net/cli-net as
// its links — no param leaves the default lab link, and bad names fail
// per parameter.
func TestLabFromParamsTopology(t *testing.T) {
	cfg, err := labFromParams(1, scenario.Params{"topo": "near-attacker"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Topology == nil {
		t.Error("topo param built no topology")
	}
	cfg, err = labFromParams(1, scenario.Params{"atk-net": "lan", "net": "wan"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Topology == nil || cfg.Topology.Default == nil {
		t.Error("atk-net + net should fold into a topology with net= as its default")
	}
	cfg, err = labFromParams(1, scenario.Params{"net": "wan"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Topology == nil || cfg.Topology.Default == nil {
		t.Error("plain net= should become the default of a topology")
	}
	cfg, err = labFromParams(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Topology != nil {
		t.Error("no network param should keep the default lab link")
	}
	for name, p := range map[string]scenario.Params{
		"unknown preset":  {"topo": "backbone"},
		"unknown atk-net": {"atk-net": "dialup"},
		"unknown cli-net": {"cli-net": "dialup"},
	} {
		if _, err := labFromParams(1, p); err == nil {
			t.Errorf("%s accepted (%v)", name, p)
		}
	}
}

// TestRacemarginMonotone is the racemargin acceptance: under the
// near-attacker preset the per-seed success-vs-margin table is monotone
// non-decreasing in the attacker's advantage, shows both a losing and a
// winning margin, and succeeds at the preset's native margin.
func TestRacemarginMonotone(t *testing.T) {
	margins, err := parseMargins(defaultMarginSpec)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 3; seed++ {
		res, err := scenario.Run(context.Background(), "racemargin", seed, scenario.Config{})
		if err != nil {
			t.Fatal(err)
		}
		prev := 0.0
		lost, won := false, false
		for _, m := range margins {
			v, ok := res.Metrics["shifted/"+m.String()]
			if !ok {
				t.Fatalf("seed %d: no shifted metric for margin %s", seed, m)
			}
			if v < prev {
				t.Errorf("seed %d: success-vs-margin not monotone at %s (%v after %v)", seed, m, v, prev)
			}
			prev = v
			if v == 0 {
				lost = true
			} else {
				won = true
			}
		}
		if !lost || !won {
			t.Errorf("seed %d: margin table does not bracket the threshold (lost=%t won=%t)", seed, lost, won)
		}
		if res.Success == nil || !*res.Success {
			t.Errorf("seed %d: attack should succeed at the grid's top margin", seed)
		}
	}
}

// TestRacemarginParams: the margins grid is validated (ascending,
// durations, non-empty) and vic-net must name a profile.
func TestRacemarginParams(t *testing.T) {
	for name, p := range map[string]scenario.Params{
		"not a duration": {"margins": "fast"},
		"not ascending":  {"margins": "0s,-1s"},
		"duplicate":      {"margins": "1s,1s"},
		"bad vic-net":    {"vic-net": "dialup"},
	} {
		if _, err := scenario.Run(context.Background(), "racemargin", 1, scenario.Config{
			Params: p,
		}); err == nil {
			t.Errorf("%s accepted (%v)", name, p)
		}
	}
	if _, err := parseMargins(""); err == nil {
		t.Error("empty margin spec accepted")
	}
	// A custom two-point grid runs and keys its metrics by margin.
	res, err := scenario.Run(context.Background(), "racemargin", 1, scenario.Config{
		Params: scenario.Params{"margins": "-1.1s,28ms"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"shifted/-1.1s", "shifted/28ms"} {
		if _, ok := res.Metrics[key]; !ok {
			t.Errorf("metric %q missing (have %v)", key, res.Metrics)
		}
	}
}

// TestParseMarginsEdgeCases pins the margin-grid parser against the
// malformed specs a CLI round trip can produce: trailing commas,
// duplicate or unsorted entries, empty and all-whitespace specs.
func TestParseMarginsEdgeCases(t *testing.T) {
	for name, spec := range map[string]string{
		"empty":            "",
		"whitespace only":  "   ",
		"trailing comma":   "-1s,",
		"leading comma":    ",-1s",
		"double comma":     "-2s,,-1s",
		"duplicate":        "-1s,-1s",
		"unsorted":         "-1s,-2s",
		"equal after trim": " -1s , -1s ",
		"not a duration":   "-2s,fast",
		"unitless":         "-2s,-1",
	} {
		if got, err := parseMargins(spec); err == nil {
			t.Errorf("%s: parseMargins(%q) = %v, want error", name, spec, got)
		}
	}
	got, err := parseMargins(" -2s, -1.2s ,28ms ")
	if err != nil {
		t.Fatalf("spaced spec rejected: %v", err)
	}
	want := []time.Duration{-2 * time.Second, -1200 * time.Millisecond, 28 * time.Millisecond}
	if len(got) != len(want) {
		t.Fatalf("parseMargins = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("margin[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if ms, err := parseMargins("-1.15s"); err != nil || len(ms) != 1 || ms[0] != -1150*time.Millisecond {
		t.Errorf("single-point grid = %v, %v", ms, err)
	}
}

// TestRacemarginSingleMarginParam: `margin=` runs exactly one point and
// reproduces the same metrics the full grid reports for that point — the
// probe contract the adaptive search engine (internal/search) drives —
// and is mutually exclusive with `margins=`.
func TestRacemarginSingleMarginParam(t *testing.T) {
	const seed = 2
	single, err := scenario.Run(context.Background(), "racemargin", seed, scenario.Config{
		Params: scenario.Params{"margin": "-1.1s"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(single.Metrics) == 0 {
		t.Fatal("single-margin run reported no metrics")
	}
	for key := range single.Metrics {
		if !strings.HasSuffix(key, "/-1.1s") {
			t.Errorf("single-margin run leaked metric %q", key)
		}
	}
	grid, err := scenario.Run(context.Background(), "racemargin", seed, scenario.Config{
		Params: scenario.Params{"margins": "-2s,-1.1s,28ms"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"poisoned/-1.1s", "shifted/-1.1s"} {
		if single.Metrics[key] != grid.Metrics[key] {
			t.Errorf("metric %s: single %v != grid %v", key, single.Metrics[key], grid.Metrics[key])
		}
	}
	if shifted := single.Metrics["shifted/-1.1s"] == 1; (single.Success != nil && *single.Success) != shifted {
		t.Errorf("Success = %v, want the -1.1s outcome %t", single.Success, shifted)
	}
	for name, p := range map[string]scenario.Params{
		"margin with margins": {"margin": "-1s", "margins": "-2s,-1s"},
		"margin not duration": {"margin": "soon"},
		"margin empty":        {"margin": ""},
	} {
		if _, err := scenario.Run(context.Background(), "racemargin", seed, scenario.Config{Params: p}); err == nil {
			t.Errorf("%s accepted (%v)", name, p)
		}
	}
}

// TestNetsweepTopoAxis: topo=<preset> reruns the profile grid under a
// role-based topology without changing the metric keys, and topo=all
// fans out over every preset with preset-qualified keys.
func TestNetsweepTopoAxis(t *testing.T) {
	res, err := scenario.Run(context.Background(), "netsweep", 1, scenario.Config{
		Params: scenario.Params{"topo": "near-attacker"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, profile := range netem.ProfileNames() {
		if _, ok := res.Metrics["shifted/"+profile]; !ok {
			t.Errorf("topo=near-attacker: metric shifted/%s missing", profile)
		}
	}
	res, err = scenario.Run(context.Background(), "netsweep", 1, scenario.Config{
		Params: scenario.Params{"topo": "all"},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, preset := range netem.TopologyNames() {
		for _, profile := range netem.ProfileNames() {
			if _, ok := res.Metrics["shifted/"+preset+"/"+profile]; !ok {
				t.Errorf("topo=all: metric shifted/%s/%s missing", preset, profile)
			}
		}
	}
	if _, err := scenario.Run(context.Background(), "netsweep", 1, scenario.Config{
		Params: scenario.Params{"topo": "backbone"},
	}); err == nil {
		t.Error("unknown netsweep topo accepted")
	}
}

// TestNearAttackerFasterAttack: under the near-attacker preset the
// boot-time attack still lands, and the colo preset (attacker beside the
// resolver) completes no slower than the far-attacker preset — the
// position advantage is visible end to end.
func TestNearAttackerFasterAttack(t *testing.T) {
	times := map[string]time.Duration{}
	for _, preset := range []string{"near-attacker", "colo", "far-attacker"} {
		topo, err := netem.TopologyPreset(preset)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunBootTimeAttack(ntpclient.ProfileNTPd, LabConfig{Seed: 1, Topology: topo})
		if err != nil {
			t.Fatalf("%s: %v", preset, err)
		}
		if !res.Shifted {
			t.Fatalf("%s: boot attack did not shift the clock", preset)
		}
		times[preset] = res.TimeToShift
	}
	if times["colo"] > times["far-attacker"] {
		t.Errorf("colo attack (%v) slower than far-attacker (%v)", times["colo"], times["far-attacker"])
	}
}

// TestTopologyDeterministicAcrossRuns: an asymmetric, stateful topology
// (near-attacker over bursty victim loss) replays byte-identically for
// equal seeds — the per-run property campaign workers rely on.
func TestTopologyDeterministicAcrossRuns(t *testing.T) {
	run := func() string {
		res, err := scenario.Run(context.Background(), "racemargin", 3, scenario.Config{
			Params: scenario.Params{"margins": "-1.2s,28ms", "vic-net": "lossy-wifi"},
		})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if a, b := run(), run(); a != b {
		t.Errorf("racemargin over lossy-wifi differs between identical runs:\n%s\nvs\n%s", a, b)
	}
}

// TestRacemarginRegistered: the scenario is registered with the
// documented parameter surface.
func TestRacemarginRegistered(t *testing.T) {
	sc, ok := scenario.Lookup("racemargin")
	if !ok {
		t.Fatal("racemargin not registered")
	}
	keys := strings.Join(sc.ParamKeys, ",")
	for _, want := range []string{"client", "margins", "vic-net"} {
		if !strings.Contains(keys, want) {
			t.Errorf("racemargin ParamKeys missing %q (have %s)", want, keys)
		}
	}
}

// TestLateClientTakesTopologyLink: the attacker sends to a client's
// address before the client's host is attached, so those packets follow
// the default path and are dropped; once NewClient attaches the host, the
// next packet takes the topology's attacker-side link. It runs in a fresh
// lab and again in the same lab reset, where the client's spare host is
// re-attached.
func TestLateClientTakesTopologyLink(t *testing.T) {
	cfg := func() LabConfig {
		topo, err := netem.TopologyPreset("near-attacker")
		if err != nil {
			t.Fatal(err)
		}
		return LabConfig{Seed: 1, Topology: topo}
	}
	lab := MustNewLab(cfg())
	dst := ipv4.Addr{192, 0, 2, 101} // the first client slot
	for run := 0; run < 2; run++ {
		if run > 0 {
			if err := lab.Reset(cfg()); err != nil {
				t.Fatal(err)
			}
		}
		eve := lab.Eve.Host()
		for i := 0; i < 3; i++ {
			if _, err := eve.SendUDP(dst, 4000, 4000, []byte("early")); err != nil {
				t.Fatal(err)
			}
		}
		lab.Clock.RunFor(time.Second)
		if _, err := lab.NewClient(ntpclient.ProfileNTPd, 0); err != nil {
			t.Fatal(err)
		}
		var took time.Duration
		sent := lab.Clock.Now()
		if err := lab.Net.Host(dst).HandleUDP(4000, func(ipv4.Addr, uint16, []byte) {
			took = lab.Clock.Now().Sub(sent)
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := eve.SendUDP(dst, 4000, 4000, []byte("late")); err != nil {
			t.Fatal(err)
		}
		lab.Clock.RunFor(time.Second)
		if took != netem.NearAttackerDelay {
			t.Errorf("run %d: attacker→client took %v, want the attacker-side link's %v", run, took, netem.NearAttackerDelay)
		}
	}
}
