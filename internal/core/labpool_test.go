package core

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"dnstime/internal/ipv4"
	"dnstime/internal/ntpclient"
	"dnstime/internal/obs"
	"dnstime/internal/scenario"
)

// runBootJSON runs one boot-time attack and returns the marshalled result,
// so tests compare complete result bytes rather than cherry-picked fields.
func runBootJSON(t *testing.T, cfg LabConfig) string {
	t.Helper()
	res, err := RunBootTimeAttack(ntpclient.ProfileNTPd, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestLabPoolDirtyReuse is the reset-contract regression: it deliberately
// trashes a pooled laboratory between seeds — dragging its virtual clock
// forward, arming booby-trap events, registering a stray UDP handler, and
// burning ephemeral ports — then re-runs the same seed through the pool.
// The hard reset must erase every trace: the re-run's bytes must match a
// fresh-lab run (so no cross-seed state leakage and no RNG consumption
// drift), and no stale event may ever fire.
func TestLabPoolDirtyReuse(t *testing.T) {
	cfg := LabConfig{Seed: 7}
	SetLabPooling(false)
	want := runBootJSON(t, cfg)

	SetLabPooling(true)
	// Drain the poisoned-era pool when done, then restore the default.
	t.Cleanup(func() { SetLabPooling(false); SetLabPooling(true) })

	// Prime the pool with one released lab, then grab it for poisoning.
	_ = runBootJSON(t, cfg)
	labPool.mu.Lock()
	if len(labPool.labs) == 0 {
		labPool.mu.Unlock()
		t.Fatal("no lab returned to the pool after the run")
	}
	l := labPool.labs[len(labPool.labs)-1]
	labPool.mu.Unlock()

	// Booby trap: if Reset fails to clear pending events, the recycled
	// run's clock advance fires these and fails the test.
	l.Clock.After(30*time.Minute, func() {
		t.Error("stale pre-reset event fired inside a recycled lab")
	})
	l.Clock.RunFor(10 * time.Minute) // drag virtual time away from labEpoch
	l.Clock.After(2*time.Hour, func() {
		t.Error("stale post-advance event fired inside a recycled lab")
	})

	host := l.Net.Host(ResolverAddr)
	if host == nil {
		t.Fatal("resolver host missing from pooled lab")
	}
	for i := 0; i < 100; i++ {
		host.AllocPort() // skew the ephemeral port allocator
	}
	if err := host.HandleUDP(40000, func(ipv4.Addr, uint16, []byte) {
		t.Error("stale UDP handler from a recycled lab received traffic")
	}); err != nil {
		t.Fatal(err)
	}

	// The next acquire must take the poisoned lab (LIFO pool) and reset it
	// to a state observably identical to a fresh build.
	if got := runBootJSON(t, cfg); got != want {
		t.Errorf("poisoned pooled lab re-run differs from fresh lab:\n%s\nvs\n%s", got, want)
	}
}

// TestLabPoolReuseAcrossConfigs re-acquires one pooled lab under a
// different topology-bearing config and back: shrinking/growing the server
// population and switching path models through Reset must keep results
// byte-identical to fresh builds.
func TestLabPoolReuseAcrossConfigs(t *testing.T) {
	cfgA := LabConfig{Seed: 3}
	cfgB := LabConfig{Seed: 11, HonestServers: 7, EvilServers: 2}

	SetLabPooling(false)
	wantA := runBootJSON(t, cfgA)
	wantB := runBootJSON(t, cfgB)

	SetLabPooling(true)
	t.Cleanup(func() { SetLabPooling(false); SetLabPooling(true) })

	// A → B → A through one pooled lab: every hop reshapes the host set.
	if got := runBootJSON(t, cfgA); got != wantA {
		t.Errorf("pooled first run differs from fresh:\n%s\nvs\n%s", got, wantA)
	}
	if got := runBootJSON(t, cfgB); got != wantB {
		t.Errorf("pooled grown-config run differs from fresh:\n%s\nvs\n%s", got, wantB)
	}
	if got := runBootJSON(t, cfgA); got != wantA {
		t.Errorf("pooled shrunk-config run differs from fresh:\n%s\nvs\n%s", got, wantA)
	}
}

// TestTableISeedReusesLabStreams: the seven labs of one table1 seed seed
// their resolver, attacker and stub streams with the same values, so
// with the seed cache they cause no more cache misses (streams produced
// by math/rand's seeding) than the first lab alone, and rerunning the
// seed causes none. The seeds are far from every other test's, so
// nothing of theirs is cached when the test starts.
func TestTableISeedReusesLabStreams(t *testing.T) {
	misses := obs.Default.Counter("dnstime_rng_seed_cache_misses_total", "")
	const firstLabSeed, tableSeed = 1 << 40, 1<<40 + 1<<20
	before := misses.Value()
	if _, err := RunBootTimeAttack(ntpclient.AllProfiles()[0].Profile, LabConfig{Seed: firstLabSeed}); err != nil {
		t.Fatal(err)
	}
	firstLab := misses.Value() - before
	if firstLab == 0 {
		t.Fatal("a lab at an unseen seed caused no seed-cache miss")
	}
	for run := 0; run < 2; run++ {
		before = misses.Value()
		if _, err := tableIScenario(context.Background(), tableSeed, scenario.Config{}); err != nil {
			t.Fatal(err)
		}
		got := misses.Value() - before
		switch {
		case run == 0 && got > firstLab:
			t.Errorf("table1 seed: %d misses, more than its first lab's %d", got, firstLab)
		case run == 1 && got != 0:
			t.Errorf("rerun of the table1 seed: %d misses, want 0", got)
		}
	}
}
