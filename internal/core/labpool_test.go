package core

import (
	"encoding/json"
	"testing"
	"time"

	"dnstime/internal/chronos"
	"dnstime/internal/ipv4"
	"dnstime/internal/netem"
	"dnstime/internal/ntpclient"
	"dnstime/internal/ntpwire"
	"dnstime/internal/obs"
	"dnstime/internal/udp"
)

// resultJSON marshals a run's result and appends the digest of its trace,
// so tests compare complete result bytes and every event of the run
// (packet addresses, IPIDs and lengths, clock fires) rather than
// cherry-picked fields.
func resultJSON(t *testing.T, res any, err error, trace *obs.Digest) string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + " trace " + trace.Sum()
}

// runBootJSON runs one ntpd boot-time attack and returns its result and
// trace digest.
func runBootJSON(t *testing.T, cfg LabConfig) string {
	t.Helper()
	return runProfileJSON(t, ntpclient.ProfileNTPd, cfg)
}

// runProfileJSON runs one boot-time attack on prof and returns its result
// and trace digest.
func runProfileJSON(t *testing.T, prof ntpclient.Profile, cfg LabConfig) string {
	t.Helper()
	d := obs.NewDigest()
	cfg.Tracer = d
	res, err := RunBootTimeAttack(prof, cfg)
	return resultJSON(t, res, err, d)
}

// runChronosJSON runs one Chronos attack and returns its result and trace
// digest.
func runChronosJSON(t *testing.T, cfg LabConfig) string {
	t.Helper()
	d := obs.NewDigest()
	cfg.Tracer = d
	res, err := RunChronosAttack(5, 89, cfg)
	return resultJSON(t, res, err, d)
}

// pooledLab returns the lab the next acquire takes (the pool is LIFO),
// leaving it in the pool.
func pooledLab(t *testing.T) *Lab {
	t.Helper()
	labPool.mu.Lock()
	defer labPool.mu.Unlock()
	if len(labPool.labs) == 0 {
		t.Fatal("no lab returned to the pool after the run")
	}
	return labPool.labs[len(labPool.labs)-1]
}

// dirtyClients leaves two client slots of l in flight, in slot order
// ntpd then Chronos, or Chronos then ntpd: an ntpd client mid-lookup (its
// stub's timeout pending and ephemeral port bound) with associations
// mobilised and one KoD seen, and a Chronos client mid-round (its queries'
// ports bound and timeouts pending). l's resolver must hold the poisoned
// four-address answer for another 64 s: it keeps ntpd, short of its six
// servers, looking up at its first poll, which is also the first round of
// a Chronos client that polls at ntpd's 64 s.
func dirtyClients(t *testing.T, l *Lab, chronosFirst bool) {
	t.Helper()
	start := l.Clock.Now()
	var ntp *ntpclient.Client
	var chr *chronos.Client
	for i, isChronos := range []bool{chronosFirst, !chronosFirst} {
		var err error
		if isChronos {
			chr, err = l.NewChronos(chronos.Config{PollInterval: 64 * time.Second})
		} else {
			ntp, err = l.NewClient(ntpclient.ProfileNTPd, 0)
		}
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if err := ntp.Start(); err != nil {
		t.Fatal(err)
	}
	if err := chr.Start(); err != nil {
		t.Fatal(err)
	}
	// The first lookup is answered 20 ms in and its polls are answered 40
	// ms in: a KoD spoofed from the first association lands in between.
	l.Clock.RunFor(25 * time.Millisecond)
	if len(ntp.Events) < 2 || ntp.Events[1].Kind != ntpclient.EventMobilize {
		t.Fatalf("ntpd mobilised nothing: %v", ntp.Events)
	}
	server := ntp.Events[1].Addr
	kod := ntpwire.NewKoD(&ntpwire.Packet{}, ntpwire.KissRATE).Marshal()
	d := &udp.Datagram{Header: udp.Header{SrcPort: ntpwire.Port, DstPort: ntpwire.Port}, Payload: kod}
	l.Net.Inject(&ipv4.Packet{Src: server, Dst: ntp.HostAddr(), Proto: ipv4.ProtoUDP, TTL: ipv4.DefaultTTL,
		Payload: udp.WithChecksum(server, ntp.HostAddr(), d.Marshal())})
	l.Clock.RunUntil(start.Add(64*time.Second + 5*time.Millisecond))

	last := ntp.Events[len(ntp.Events)-1]
	if last.Kind != ntpclient.EventDNSLookup || last.At != start.Add(64*time.Second) || ntp.MobilizedCount() == 0 {
		t.Fatalf("ntpd is not mid-lookup with associations: last event %v, %d mobilised", last, ntp.MobilizedCount())
	}
	kods := 0
	for _, e := range ntp.Events {
		if e.Kind == ntpclient.EventKoD {
			kods++
		}
	}
	if kods != 1 {
		t.Fatalf("ntpd saw %d KoDs, want 1", kods)
	}
	if chr.PoolSize() == 0 || len(chr.Rounds) != 0 {
		t.Fatalf("Chronos is not mid-round: pool %d, %d rounds done", chr.PoolSize(), len(chr.Rounds))
	}
}

// TestLabPoolDirtyReuse is the reset-contract regression: it deliberately
// trashes a pooled laboratory between seeds — dragging its virtual clock
// forward, arming booby-trap events, registering a stray UDP handler,
// burning ephemeral ports and leaving clients in flight — then runs
// another seed through the pool. The hard reset must erase every trace:
// the run's bytes must match a fresh-lab run at that seed (so no
// cross-seed state leakage and no RNG consumption drift), and no stale
// event may ever fire. The clients left in flight are the spares the next
// run's NewClient and NewChronos reset in place: an ntpd client for the
// boot-time attack, and on a second pass a Chronos client for the Chronos
// attack.
func TestLabPoolDirtyReuse(t *testing.T) {
	cfg, bootCfg, chronosCfg := LabConfig{Seed: 7}, LabConfig{Seed: 8}, LabConfig{Seed: 9}
	SetLabPooling(false)
	wantBoot := runBootJSON(t, bootCfg)
	wantChronos := runChronosJSON(t, chronosCfg)

	SetLabPooling(true)
	// Drain the poisoned-era pool when done, then restore the default.
	t.Cleanup(func() { SetLabPooling(false); SetLabPooling(true) })

	// Prime the pool with one released lab, then grab it for poisoning.
	_ = runBootJSON(t, cfg)
	l := pooledLab(t)

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
	// Leave the run's ntpd client slot to a second ntpd client mid-lookup,
	// and a Chronos client mid-round in the next slot.
	if err := l.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	if err := l.PoisonResolver(86400); err != nil {
		t.Fatal(err)
	}
	dirtyClients(t, l, false)

	// The next acquire must take the poisoned lab (LIFO pool) and reset it
	// to a state observably identical to a fresh build.
	if got := runBootJSON(t, bootCfg); got != wantBoot {
		t.Errorf("poisoned pooled lab's boot-time attack differs from a fresh lab's:\n%s\nvs\n%s", got, wantBoot)
	}

	// Again with the Chronos client in the first slot, for the Chronos
	// attack to take over.
	l = pooledLab(t)
	if err := l.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	if err := l.PoisonResolver(86400); err != nil {
		t.Fatal(err)
	}
	dirtyClients(t, l, true)
	if got := runChronosJSON(t, chronosCfg); got != wantChronos {
		t.Errorf("poisoned pooled lab's Chronos attack differs from a fresh lab's:\n%s\nvs\n%s", got, wantChronos)
	}
}

// TestLabPoolReuseAcrossConfigs re-acquires one pooled lab under a
// sequence of configs: shrinking and growing the server population,
// switching the victim's profile on the spare client (chrony, then ntpd)
// and switching path models through Reset (racemargin's near-attacker
// topology at two margins, then a uniform path) must keep results and
// traces byte-identical to fresh builds.
func TestLabPoolReuseAcrossConfigs(t *testing.T) {
	race := func(margin time.Duration) func() LabConfig {
		return func() LabConfig {
			topo, err := raceTopology(margin, "")
			if err != nil {
				t.Fatal(err)
			}
			return LabConfig{Seed: 5, Topology: topo}
		}
	}
	uniform := func() LabConfig {
		path, err := netem.Profile("wan")
		if err != nil {
			t.Fatal(err)
		}
		return LabConfig{Seed: 6, Topology: &netem.Topology{Default: path}}
	}
	runs := []struct {
		name string
		prof ntpclient.Profile
		cfg  func() LabConfig
	}{
		{"first run", ntpclient.ProfileNTPd, func() LabConfig { return LabConfig{Seed: 3} }},
		{"grown config", ntpclient.ProfileNTPd, func() LabConfig { return LabConfig{Seed: 11, HonestServers: 7, EvilServers: 2} }},
		{"shrunk config", ntpclient.ProfileNTPd, func() LabConfig { return LabConfig{Seed: 3} }},
		{"chrony", ntpclient.ProfileChrony, func() LabConfig { return LabConfig{Seed: 4} }},
		{"ntpd after chrony", ntpclient.ProfileNTPd, func() LabConfig { return LabConfig{Seed: 4} }},
		{"near-attacker topology", ntpclient.ProfileNTPd, race(20 * time.Millisecond)},
		{"near-attacker topology at another margin", ntpclient.ProfileNTPd, race(5 * time.Millisecond)},
		{"uniform path after a topology", ntpclient.ProfileNTPd, uniform},
	}

	SetLabPooling(false)
	want := make([]string, len(runs))
	for i, r := range runs {
		want[i] = runProfileJSON(t, r.prof, r.cfg())
	}

	SetLabPooling(true)
	t.Cleanup(func() { SetLabPooling(false); SetLabPooling(true) })

	// Every hop goes through one pooled lab and reshapes its host set,
	// its client or its links.
	for i, r := range runs {
		if got := runProfileJSON(t, r.prof, r.cfg()); got != want[i] {
			t.Errorf("pooled %s differs from fresh:\n%s\nvs\n%s", r.name, got, want[i])
		}
	}
}
