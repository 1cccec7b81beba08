package core

import (
	"context"
	"testing"
	"time"

	"dnstime/internal/ntpclient"
	"dnstime/internal/scenario"
)

func TestPoisonResolverEndToEnd(t *testing.T) {
	lab, err := NewLab(LabConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if lab.CachePoisoned() {
		t.Fatal("cache poisoned before attack")
	}
	if err := lab.PoisonResolver(86400); err != nil {
		t.Fatalf("PoisonResolver: %v", err)
	}
	if !lab.CachePoisoned() {
		t.Fatal("CachePoisoned() false after successful poisoning")
	}
	if lab.Resolver.Host().ChecksumErrors != 0 {
		t.Errorf("resolver checksum errors: %d", lab.Resolver.Host().ChecksumErrors)
	}
}

func TestBootTimeAttackNTPd(t *testing.T) {
	res, err := RunBootTimeAttack(ntpclient.ProfileNTPd, LabConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Poisoned {
		t.Fatal("poisoning did not land")
	}
	if !res.Shifted {
		t.Fatalf("boot-time attack failed: offset=%v", res.ClockOffset)
	}
	if res.TimeToShift <= 0 || res.TimeToShift > 45*time.Minute {
		t.Errorf("TimeToShift = %v", res.TimeToShift)
	}
}

func TestBootTimeAttackSystemd(t *testing.T) {
	res, err := RunBootTimeAttack(ntpclient.ProfileSystemd, LabConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Shifted {
		t.Fatalf("systemd boot-time attack failed: offset=%v", res.ClockOffset)
	}
}

func TestRuntimeAttackP1NTPd(t *testing.T) {
	res, err := RunRuntimeAttack(ntpclient.ProfileNTPd, ScenarioP1, LabConfig{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Synced {
		t.Fatal("client never synced honestly")
	}
	if !res.Succeeded {
		t.Fatalf("P1 attack failed: offset=%v lookups=%d", res.ClockOffset, res.DNSLookups)
	}
	if res.DNSLookups == 0 {
		t.Error("no run-time DNS lookups recorded")
	}
	// Paper: 17 minutes. Accept the right order of magnitude.
	if res.Duration < 5*time.Minute || res.Duration > 60*time.Minute {
		t.Errorf("P1 duration = %v, want tens of minutes (paper: 17m)", res.Duration)
	}
}

func TestRuntimeAttackP2NTPd(t *testing.T) {
	res, err := RunRuntimeAttack(ntpclient.ProfileNTPd, ScenarioP2, LabConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Succeeded {
		t.Fatalf("P2 attack failed: offset=%v", res.ClockOffset)
	}
	// P2 must be slower than P1 (sequential discovery).
	p1, err := RunRuntimeAttack(ntpclient.ProfileNTPd, ScenarioP1, LabConfig{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration <= p1.Duration {
		t.Errorf("P2 (%v) should take longer than P1 (%v)", res.Duration, p1.Duration)
	}
}

func TestRuntimeAttackOpenNTPDFails(t *testing.T) {
	res, err := RunRuntimeAttack(ntpclient.ProfileOpenNTPD, ScenarioP1, LabConfig{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Succeeded {
		t.Error("openntpd (no run-time DNS) should not be attackable at run-time")
	}
	if res.DNSLookups != 0 {
		t.Errorf("openntpd did %d run-time lookups", res.DNSLookups)
	}
}

// TestTableIMatchesPaper: one table1 scenario run reproduces every
// Table I cell — the boot-time column from the live attacks' boot/<client>
// metrics, the run-time column from RuntimeApplicability.
func TestTableIMatchesPaper(t *testing.T) {
	res, err := scenario.Run(context.Background(), "table1", 7, scenario.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]struct{ boot, run Applicability }{
		"NTPd":              {Yes, Yes},
		"openntpd":          {Yes, No},
		"chrony":            {Yes, Yes},
		"ntpdate":           {Yes, NotApplicable},
		"Android":           {Yes, Yes},
		"ntpclient":         {Yes, No},
		"systemd-timesyncd": {Yes, Yes},
	}
	profiles := ntpclient.AllProfiles()
	if len(profiles) != len(want) {
		t.Fatalf("profiles = %d, want %d", len(profiles), len(want))
	}
	for _, pu := range profiles {
		name := pu.Profile.Name
		w, ok := want[name]
		if !ok {
			t.Errorf("unexpected client %q", name)
			continue
		}
		boot, ok := res.Metrics["boot/"+name]
		if !ok {
			t.Errorf("%s: no boot/%s metric", name, name)
			continue
		}
		got := No
		if boot == 1 {
			got = Yes
		}
		if got != w.boot {
			t.Errorf("%s boot-time = %v, want %v", name, got, w.boot)
		}
		if got := RuntimeApplicability(pu.Profile); got != w.run {
			t.Errorf("%s run-time = %v, want %v", name, got, w.run)
		}
	}
}

// TestTableIIShape: one table2 scenario run keeps the paper's ordering of
// the Table II durations.
func TestTableIIShape(t *testing.T) {
	if testing.Short() {
		t.Skip("four full run-time attacks")
	}
	res, err := scenario.Run(context.Background(), "table2", 8, scenario.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(TableIISpecs) {
		t.Fatalf("metrics = %v, want one per Table II row", res.Metrics)
	}
	p1 := res.Metrics["minutes/NTPd-P1"]
	p2 := res.Metrics["minutes/NTPd-P2"]
	if p1 == 0 || p2 == 0 {
		t.Fatalf("missing NTPd rows: %v", res.Metrics)
	}
	if p2 <= p1 {
		t.Errorf("NTPd P2 (%v min) should exceed P1 (%v min), as in the paper (47m vs 17m)", p2, p1)
	}
	if chrony := res.Metrics["minutes/chrony-P1"]; chrony <= p1 {
		t.Errorf("chrony P1 (%v min) should exceed NTPd P1 (%v min), as in the paper (57m vs 17m)", chrony, p1)
	}
}

func TestChronosAttackWithinBound(t *testing.T) {
	res, err := RunChronosAttack(5, 89, LabConfig{Seed: 9, HonestServers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bound != 11 {
		t.Errorf("bound = %d, want 11", res.Bound)
	}
	if !res.ControlsPool {
		t.Fatalf("attacker does not control pool: %d/%d", res.EvilInPool, res.PoolSize)
	}
	if !res.Shifted {
		t.Fatalf("Chronos clock not shifted: offset=%v", res.ClockOffset)
	}
}

func TestChronosAttackBeyondBoundFails(t *testing.T) {
	// With 30 honest servers and poisoning landing only after N=20 hourly
	// queries, the attacker cannot reach 2/3 control.
	res, err := RunChronosAttack(20, 89, LabConfig{Seed: 10, HonestServers: 90})
	if err != nil {
		t.Fatal(err)
	}
	if res.ControlsPool {
		t.Fatalf("attacker controls pool beyond the bound: %d/%d", res.EvilInPool, res.PoolSize)
	}
	if res.Shifted {
		t.Errorf("Chronos shifted despite sub-2/3 control: offset=%v", res.ClockOffset)
	}
}

// eventTimes is a test tracer: it records when every event and span
// started, keyed "cat/name".
type eventTimes map[string][]time.Time

func (eventTimes) Enabled() bool { return true }

func (e eventTimes) Event(at time.Time, cat, name, _ string) {
	e[cat+"/"+name] = append(e[cat+"/"+name], at)
}

func (e eventTimes) Span(from, _ time.Time, cat, name, _ string) {
	e[cat+"/"+name] = append(e[cat+"/"+name], from)
}

// TestCampaignLowVolume: §IV-A's planting loop needs "only one low
// bandwidth attacking host". Its rounds fire exactly 30 s apart from the
// campaign's start, so any half-open 150 s pool-record TTL window holds 5
// of them (the EXPERIMENTS.md "planting rounds per 150 s TTL" row);
// RunFor(150 s) covers the closed window and sees a sixth at 150 s.
func TestCampaignLowVolume(t *testing.T) {
	events := eventTimes{}
	lab, err := NewLab(LabConfig{Seed: 11, Tracer: events})
	if err != nil {
		t.Fatal(err)
	}
	start := lab.Clock.Now()
	campaign := lab.StartPoisonCampaign(30*time.Second, 0)
	lab.Clock.RunFor(150 * time.Second)
	campaign.Stop()
	rounds := events["attack/plant-round"]
	if len(rounds) != 6 || campaign.Rounds != len(rounds) {
		t.Fatalf("%d plant-round events, %d rounds counted; want 6 in [0, 150 s]", len(rounds), campaign.Rounds)
	}
	for i, at := range rounds {
		if want := start.Add(time.Duration(i) * 30 * time.Second); !at.Equal(want) {
			t.Errorf("round %d at %v, want %v", i+1, at.Sub(start), want.Sub(start))
		}
	}
	// Each round injects at most an ICMP, the spoofed fragments and a
	// few probes.
	if lab.Eve.InjectedPackets > 25*len(rounds) {
		t.Errorf("attack volume = %d packets in %d rounds, want ≤ 25 per round", lab.Eve.InjectedPackets, len(rounds))
	}
}

// TestNetsweepRejectsBadAttackParams: netsweep checks the selected
// attack's params with the parsers its standalone scenario uses, before
// any lab is built — an unknown run-time scenario no longer runs P1.
func TestNetsweepRejectsBadAttackParams(t *testing.T) {
	for _, p := range []scenario.Params{
		{"attack": "runtime", "scenario": "P3"},
		{"attack": "runtime", "client": "swatch"},
		{"attack": "chronos", "N": "-1"},
		{"attack": "chronos", "spoofed": "many"},
		{"attack": "boot", "client": "swatch"},
		{"attack": "replay"},
	} {
		events := eventTimes{}
		if _, err := scenario.Run(context.Background(), "netsweep", 1, scenario.Config{Params: p, Tracer: events}); err == nil {
			t.Errorf("params %v accepted", p)
		}
		if len(events) != 0 {
			t.Errorf("params %v: a lab ran before the params were rejected (%d event kinds)", p, len(events))
		}
	}
}

// TestScenarioParamsRejectNegativeSizes: negative sizing params must fail
// the run instead of wrapping (pool_ttl_s through uint32) or flowing a
// nonsensical lab into the simulation.
func TestScenarioParamsRejectNegativeSizes(t *testing.T) {
	for _, p := range []scenario.Params{
		{"pool_ttl_s": "-1"},
		{"honest_servers": "-3"},
		{"evil_servers": "-2"},
		{"pad_b": "-9"},
	} {
		if _, err := scenario.Run(context.Background(), "boot", 1, scenario.Config{Params: p}); err == nil {
			t.Errorf("params %v accepted", p)
		}
	}
	if _, err := scenario.Run(context.Background(), "chronos", 1, scenario.Config{Params: scenario.Params{"N": "-1"}}); err == nil {
		t.Error("negative chronos N accepted")
	}
}
