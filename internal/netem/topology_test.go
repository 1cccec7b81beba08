package netem

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"dnstime/internal/ipv4"
)

// Lab-like addresses for topology compilation tests.
var (
	topoAttacker = ipv4.MustParseAddr("203.0.113.66")
	topoResolver = ipv4.MustParseAddr("192.0.2.53")
	topoNS       = ipv4.MustParseAddr("198.51.100.53")
	topoClient   = ipv4.MustParseAddr("192.0.2.101")
	topoNTP      = ipv4.MustParseAddr("10.0.0.1")
	topoEvil     = ipv4.MustParseAddr("6.6.0.1")
)

// compileLabTopology compiles t over the standard six-role host set.
func compileLabTopology(t *Topology) *Compiler {
	c := t.Compiler()
	c.Add(topoNS, RoleNameserver)
	c.Add(topoResolver, RoleResolver)
	c.Add(topoAttacker, RoleAttacker)
	c.Add(topoNTP, RoleNTPServer)
	c.Add(topoEvil, RoleEvilServer)
	c.Add(topoClient, RoleClient)
	return c
}

// TestZeroTopologyIsDefaultLink: an empty topology compiles to the
// historical default link on every pair and consumes no randomness — the
// uniform special case that keeps topology-free labs byte-identical.
func TestZeroTopologyIsDefaultLink(t *testing.T) {
	c := compileLabTopology(NewTopology())
	m := c.Model()
	rng := rand.New(rand.NewSource(11))
	before := rng.Int63()
	rng = rand.New(rand.NewSource(11))
	for _, pair := range [][2]ipv4.Addr{
		{topoAttacker, topoResolver},
		{topoClient, topoNTP},
		{topoResolver, topoNS},
	} {
		if d := m.Latency(pair[0], pair[1], rng); d != DefaultLatency {
			t.Errorf("latency %s→%s = %v, want %v", pair[0], pair[1], d, DefaultLatency)
		}
		if m.Drop(pair[0], pair[1], rng) {
			t.Errorf("zero topology dropped %s→%s", pair[0], pair[1])
		}
	}
	if rng.Int63() != before {
		t.Error("zero topology consumed randomness")
	}
}

// TestLinkFreeModelIsDefault: a topology without links compiles to its
// Default itself (the zero Path when nil), so a uniform lab's packets
// skip the per-link lookup; one link makes the model the compiler.
func TestLinkFreeModelIsDefault(t *testing.T) {
	wan, err := Profile("wan")
	if err != nil {
		t.Fatal(err)
	}
	if m := compileLabTopology(&Topology{Default: wan}).Model(); m != wan {
		t.Errorf("link-free topology's model = %T %p, want its Default %p", m, m, wan)
	}
	if m, ok := compileLabTopology(NewTopology()).Model().(*Path); !ok || *m != (Path{}) {
		t.Errorf("link-free topology without Default: model %#v, want the zero Path", m)
	}
	topo := &Topology{Default: wan}
	topo.SetLink(RoleClient, RoleResolver, fixedPath(time.Millisecond))
	c := compileLabTopology(topo)
	if m := c.Model(); m != PathModel(c) {
		t.Errorf("one-link topology's model = %T, want its compiler", m)
	}
}

// TestTopologyRolePairResolution: exact role pairs beat src-wildcards,
// which beat dst-wildcards; unlisted pairs follow Default.
func TestTopologyRolePairResolution(t *testing.T) {
	topo := NewTopology()
	topo.Default = &Path{Delay: Fixed(30 * time.Millisecond)}
	topo.SetPath(RoleAttacker, RoleAny, fixedPath(2*time.Millisecond))
	topo.SetLink(RoleAttacker, RoleResolver, fixedPath(1*time.Millisecond))
	topo.SetLink(RoleAny, RoleNameserver, fixedPath(7*time.Millisecond))

	m := compileLabTopology(topo).Model()
	rng := rand.New(rand.NewSource(12))
	cases := []struct {
		src, dst ipv4.Addr
		want     time.Duration
	}{
		{topoAttacker, topoResolver, 1 * time.Millisecond}, // exact pair
		{topoAttacker, topoNTP, 2 * time.Millisecond},      // (attacker, *)
		{topoNTP, topoAttacker, 2 * time.Millisecond},      // (*, attacker) via SetPath
		{topoAttacker, topoNS, 2 * time.Millisecond},       // src-wildcard beats dst-wildcard
		{topoResolver, topoNS, 7 * time.Millisecond},       // (*, nameserver)
		{topoClient, topoResolver, 30 * time.Millisecond},  // Default
		{topoResolver, topoAttacker, 2 * time.Millisecond}, // reverse leg of SetPath
	}
	for _, c := range cases {
		if d := m.Latency(c.src, c.dst, rng); d != c.want {
			t.Errorf("latency %s→%s = %v, want %v", c.src, c.dst, d, c.want)
		}
	}
}

// idPath is a fixed-latency model whose delay in milliseconds is its
// construction number, so a packet's latency names the instance that
// carried it.
type idPath struct{ id int }

func (p *idPath) Latency(_, _ ipv4.Addr, _ *rand.Rand) time.Duration {
	return time.Duration(p.id) * time.Millisecond
}

func (p *idPath) Drop(_, _ ipv4.Addr, _ *rand.Rand) bool { return false }

// TestCompilerIncrementalAndFresh: through the compiled model, each
// listed directed link owns one fresh instance, built when its first
// packet crosses it and kept for the packets after; an unlisted pair
// follows Default; a packet to a host not yet added follows Default, and
// adding the host forgets that answer, so the host gets its links once
// added, even after traffic started; re-adding an address keeps its
// first role; a reset compiler forgets every role and link, the last one
// resolved included.
func TestCompilerIncrementalAndFresh(t *testing.T) {
	built := 0
	topo := NewTopology()
	topo.SetPath(RoleAttacker, RoleAny, func() PathModel {
		built++
		return &idPath{id: 100 + built}
	})
	c := topo.Compiler()
	m := c.Model()
	c.Add(topoAttacker, RoleAttacker)
	c.Add(topoResolver, RoleResolver)
	rng := rand.New(rand.NewSource(13))
	lat := func(src, dst ipv4.Addr) time.Duration { return m.Latency(src, dst, rng) }

	if built != 0 {
		t.Fatalf("Add built %d links before any packet", built)
	}
	if d := lat(topoAttacker, topoResolver); d != 101*time.Millisecond {
		t.Fatalf("attacker→resolver latency = %v, want the first instance (101ms)", d)
	}
	if d := lat(topoResolver, topoAttacker); d != 102*time.Millisecond {
		t.Errorf("resolver→attacker latency = %v, want its own instance (102ms)", d)
	}
	if d := lat(topoAttacker, topoResolver); d != 101*time.Millisecond || built != 2 {
		t.Errorf("second attacker→resolver packet: latency %v after %d builds, want 101ms after 2", d, built)
	}
	// The client is not added yet: its packets follow Default, and that
	// answer must not outlive its arrival.
	if d := lat(topoAttacker, topoClient); d != DefaultLatency || built != 2 {
		t.Errorf("attacker→unknown client: latency %v after %d builds, want default after 2", d, built)
	}
	c.Add(topoClient, RoleClient)
	if d := lat(topoAttacker, topoClient); d != 103*time.Millisecond {
		t.Errorf("attacker→client added mid-run: latency %v, want a fresh instance (103ms)", d)
	}
	if d := lat(topoClient, topoResolver); d != DefaultLatency || built != 3 {
		t.Errorf("client→resolver (unlisted): latency %v after %d builds, want default after 3", d, built)
	}
	if c.Role(topoClient) != RoleClient || c.Role(ipv4.Addr{9, 9, 9, 9}) != "" {
		t.Error("Compiler.Role lookup wrong")
	}
	// Re-adding keeps the first role: the NTP server re-added as an
	// attacker still talks to the resolver over Default.
	c.Add(topoNTP, RoleNTPServer)
	c.Add(topoNTP, RoleAttacker)
	if d := lat(topoNTP, topoResolver); d != DefaultLatency || c.Role(topoNTP) != RoleNTPServer {
		t.Errorf("re-added NTP server: latency %v, role %q; want default, %q", d, c.Role(topoNTP), RoleNTPServer)
	}
	lat(topoAttacker, topoResolver)
	c.Reset(topo)
	if d := lat(topoAttacker, topoResolver); d != DefaultLatency {
		t.Errorf("attacker→resolver after Reset, before Add: latency %v, want default", d)
	}
	c.Add(topoAttacker, RoleAttacker)
	c.Add(topoResolver, RoleResolver)
	if d := lat(topoAttacker, topoResolver); d != 104*time.Millisecond || built != 4 {
		t.Errorf("attacker→resolver after Reset: latency %v after %d builds, want a fresh instance (104ms) after 4", d, built)
	}
}

// eagerCompiler is the reference the Compiler is checked against: it
// builds every listed directed link when the second of its hosts is
// Add-ed, and a link it did not build follows Default.
type eagerCompiler struct {
	topo  *Topology
	base  PathModel
	roles map[ipv4.Addr]Role
	order []ipv4.Addr
	links map[[2]ipv4.Addr]PathModel
}

func newEagerCompiler(t *Topology) *eagerCompiler {
	base := t.Default
	if base == nil {
		base = &Path{}
	}
	return &eagerCompiler{topo: t, base: base, roles: map[ipv4.Addr]Role{}, links: map[[2]ipv4.Addr]PathModel{}}
}

func (e *eagerCompiler) Add(addr ipv4.Addr, role Role) {
	if _, ok := e.roles[addr]; ok {
		return
	}
	for _, h := range e.order {
		if f := e.topo.linkBuild(role, e.roles[h]); f != nil {
			e.links[[2]ipv4.Addr{addr, h}] = f()
		}
		if f := e.topo.linkBuild(e.roles[h], role); f != nil {
			e.links[[2]ipv4.Addr{h, addr}] = f()
		}
	}
	e.roles[addr] = role
	e.order = append(e.order, addr)
}

func (e *eagerCompiler) model(src, dst ipv4.Addr) PathModel {
	if m := e.links[[2]ipv4.Addr{src, dst}]; m != nil {
		return m
	}
	return e.base
}

// TestCompilerMatchesEagerReference: for every preset, bare and with
// stateful per-side profiles, a jittery default and a one-directional
// link, the Compiler's
// per-packet latency and drop decisions equal the eager reference's
// over every ordered pair of lab hosts, an address never added, and a
// client added after traffic started, under one seeded rng per side.
func TestCompilerMatchesEagerReference(t *testing.T) {
	hosts := []struct {
		addr ipv4.Addr
		role Role
	}{
		{topoNS, RoleNameserver},
		{topoResolver, RoleResolver},
		{topoAttacker, RoleAttacker},
		{topoNTP, RoleNTPServer},
		{ipv4.Addr{10, 0, 0, 2}, RoleNTPServer},
		{topoEvil, RoleEvilServer},
		{ipv4.Addr{6, 6, 0, 2}, RoleEvilServer},
		{topoClient, RoleClient},
	}
	late := ipv4.Addr{192, 0, 2, 102}
	addrs := []ipv4.Addr{late, {9, 9, 9, 9}}
	for _, h := range hosts {
		addrs = append(addrs, h.addr)
	}
	variants := []struct {
		atk, cli, dflt string
		oneWay         bool // add a one-directional nameserver→resolver link
	}{
		{}, {atk: "lossy-wifi", cli: "congested"}, {atk: "wan", cli: "lossy-wifi", dflt: "transcontinental", oneWay: true},
	}
	for _, name := range TopologyNames() {
		for _, v := range variants {
			build := func() *Topology {
				var dflt PathModel
				if v.dflt != "" {
					var err error
					if dflt, err = Profile(v.dflt); err != nil {
						t.Fatal(err)
					}
				}
				topo, err := TopologyFromSpec(name, v.atk, v.cli, dflt)
				if err != nil {
					t.Fatal(err)
				}
				if v.oneWay {
					f, err := profileFactory("congested")
					if err != nil {
						t.Fatal(err)
					}
					topo.SetLink(RoleNameserver, RoleResolver, f)
				}
				return topo
			}
			lazy, eager := build().Compiler(), newEagerCompiler(build())
			for _, h := range hosts {
				lazy.Add(h.addr, h.role)
				eager.Add(h.addr, h.role)
			}
			m := lazy.Model()
			rngL, rngE := rand.New(rand.NewSource(31)), rand.New(rand.NewSource(31))
			for round := 0; round < 40; round++ {
				if round == 20 {
					lazy.Add(late, RoleClient)
					eager.Add(late, RoleClient)
				}
				for _, src := range addrs {
					for _, dst := range addrs {
						if src == dst {
							continue
						}
						ref := eager.model(src, dst)
						dl, de := m.Drop(src, dst, rngL), ref.Drop(src, dst, rngE)
						ll, le := m.Latency(src, dst, rngL), ref.Latency(src, dst, rngE)
						if dl != de || ll != le {
							t.Fatalf("%s %+v round %d %s→%s: compiled (drop %v, %v), eager (drop %v, %v)",
								name, v, round, src, dst, dl, ll, de, le)
						}
					}
				}
			}
		}
	}
}

// TestTopologyPresets: every preset builds, compiles against the lab
// role set, replays deterministically under equal seeds, and has a
// description; unknown presets are rejected by name.
func TestTopologyPresets(t *testing.T) {
	for _, name := range TopologyNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			run := func() ([]float64, []bool) {
				topo, err := TopologyPreset(name)
				if err != nil {
					t.Fatal(err)
				}
				m := compileLabTopology(topo).Model()
				rng := rand.New(rand.NewSource(21))
				lat := make([]float64, 500)
				drop := make([]bool, 500)
				pairs := [][2]ipv4.Addr{
					{topoAttacker, topoResolver},
					{topoClient, topoResolver},
					{topoResolver, topoNS},
					{topoEvil, topoClient},
				}
				for i := range lat {
					p := pairs[i%len(pairs)]
					drop[i] = m.Drop(p[0], p[1], rng)
					lat[i] = m.Latency(p[0], p[1], rng).Seconds()
				}
				return lat, drop
			}
			lat1, drop1 := run()
			lat2, drop2 := run()
			for i := range lat1 {
				if lat1[i] != lat2[i] || drop1[i] != drop2[i] {
					t.Fatalf("packet %d differs between identically seeded preset instances", i)
				}
			}
			if TopologyDescription(name) == "" {
				t.Errorf("preset %q has no description", name)
			}
		})
	}
	if _, err := TopologyPreset("backbone"); err == nil || !strings.Contains(err.Error(), "backbone") {
		t.Errorf("unknown preset error = %v", err)
	}
}

// TestNearAttackerAsymmetry: under the near-attacker preset the
// attacker's path to the resolver is strictly faster than the client's
// and the resolver's nameserver leg — the race advantage the preset
// exists to model.
func TestNearAttackerAsymmetry(t *testing.T) {
	topo, err := TopologyPreset("near-attacker")
	if err != nil {
		t.Fatal(err)
	}
	m := compileLabTopology(topo).Model()
	rng := rand.New(rand.NewSource(22))
	atk := m.Latency(topoAttacker, topoResolver, rng)
	cli := m.Latency(topoClient, topoResolver, rng)
	ns := m.Latency(topoNS, topoResolver, rng)
	if atk >= cli || atk >= ns {
		t.Errorf("attacker latency %v not below victim paths (client %v, ns %v)", atk, cli, ns)
	}
}

// TestTopologyFromSpec: preset + per-side profile overrides compose —
// atk-net rewires the attacker's links, cli-net the victim access paths
// (winning over attacker wildcards where they overlap), net= becomes the
// Default — and unknown names are rejected per parameter.
func TestTopologyFromSpec(t *testing.T) {
	topo, err := TopologyFromSpec("near-attacker", "lan", "congested", Fixed(40*time.Millisecond).asPath())
	if err != nil {
		t.Fatal(err)
	}
	m := compileLabTopology(topo).Model()
	rng := rand.New(rand.NewSource(23))
	// atk-net=lan: fixed 200 µs attacker legs.
	if d := m.Latency(topoAttacker, topoResolver, rng); d != 200*time.Microsecond {
		t.Errorf("atk-net latency = %v, want 200µs", d)
	}
	// cli-net=congested is lognormal 40 ms median — not the preset's fixed
	// 30 ms default, and it wins over the evilserver wildcard.
	if d := m.Latency(topoClient, topoEvil, rng); d == 30*time.Millisecond || d == 200*time.Microsecond {
		t.Errorf("cli-net did not win the client↔evilserver link (latency %v)", d)
	}
	// The uniform dflt replaces the preset default on unlisted pairs.
	if d := m.Latency(topoNTP, topoResolver, rng); d != 40*time.Millisecond {
		t.Errorf("default-path latency = %v, want 40ms", d)
	}

	for _, bad := range [][3]string{
		{"backbone", "", ""},
		{"", "dialup", ""},
		{"", "", "dialup"},
	} {
		if _, err := TopologyFromSpec(bad[0], bad[1], bad[2], nil); err == nil {
			t.Errorf("TopologyFromSpec(%q, %q, %q) accepted", bad[0], bad[1], bad[2])
		}
	}

	// The empty spec is the uniform preset with the zero-path default.
	topo, err = TopologyFromSpec("", "", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	m = compileLabTopology(topo).Model()
	if d := m.Latency(topoClient, topoResolver, rng); d != DefaultLatency {
		t.Errorf("empty-spec latency = %v, want default", d)
	}
}

// asPath adapts a latency distribution into a lossless Path model for
// spec tests.
func (f Fixed) asPath() PathModel { return &Path{Delay: f} }

// TestGilbertElliottPerLinkConvergence: a topology whose victim links
// carry Gilbert–Elliott loss compiles to one independent chain per
// directed link, and each link's long-run loss rate converges to the
// stationary mixture PGB/(PGB+PBG) — the statistical contract per-link
// state exists to uphold.
func TestGilbertElliottPerLinkConvergence(t *testing.T) {
	const pgb, pbg = 0.05, 0.5
	topo := NewTopology()
	victimSide(topo, func() PathModel {
		return &Path{Loss: &GilbertElliott{PGB: pgb, PBG: pbg, LossGood: 0, LossBad: 1}}
	})
	m := compileLabTopology(topo).Model()
	rng := rand.New(rand.NewSource(24))
	wantRate := pgb / (pgb + pbg)
	links := [][2]ipv4.Addr{
		{topoClient, topoResolver},
		{topoResolver, topoClient},
		{topoClient, topoNTP},
		{topoResolver, topoNS},
		{topoNS, topoResolver},
	}
	const n = 200000
	for _, link := range links {
		drops := 0
		for i := 0; i < n; i++ {
			if m.Drop(link[0], link[1], rng) {
				drops++
			}
		}
		rate := float64(drops) / float64(n)
		if math.Abs(rate-wantRate) > wantRate/10 {
			t.Errorf("link %s→%s loss rate = %.4f, want ≈%.4f", link[0], link[1], rate, wantRate)
		}
	}
	// Attacker links are unlisted: lossless default, zero drops.
	for i := 0; i < 1000; i++ {
		if m.Drop(topoAttacker, topoResolver, rng) {
			t.Fatal("unlisted attacker link dropped a packet")
		}
	}
}

// TestCompilerNilLinkFallsBack: a link factory that returns nil leaves
// the link on the default path — the zero-value Path when Default is nil
// (default latency, lossless, consuming no randomness), Default
// otherwise — so no nil model escapes to a packet.
func TestCompilerNilLinkFallsBack(t *testing.T) {
	topo := NewTopology()
	topo.SetLink(RoleClient, RoleResolver, func() PathModel { return nil })
	m := compileLabTopology(topo).Model()
	rng := rand.New(rand.NewSource(25))
	before := rng.Int63()
	rng = rand.New(rand.NewSource(25))
	if d := m.Latency(topoClient, topoResolver, rng); d != DefaultLatency {
		t.Errorf("nil-link latency = %v, want %v", d, DefaultLatency)
	}
	if m.Drop(topoClient, topoResolver, rng) {
		t.Error("nil link dropped a packet")
	}
	if rng.Int63() != before {
		t.Error("nil link consumed randomness")
	}
	topo.Default = &Path{Delay: Fixed(4 * time.Millisecond)}
	m = compileLabTopology(topo).Model()
	if d := m.Latency(topoClient, topoResolver, rng); d != 4*time.Millisecond {
		t.Errorf("nil-link latency with Default = %v, want 4ms", d)
	}
}
