package netem

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"dnstime/internal/ipv4"
)

// Role names a host's network position in the simulated lab — the victim
// resolver, the off-path attacker, the pool nameserver, and so on. The
// paper's races are won or lost on *which position* a packet travels
// from, so a Topology assigns path conditions by role pair instead of
// forcing one global model onto every link.
type Role string

// The lab's built-in roles. A Topology may use any Role strings; these
// are the positions core.Lab tags its hosts with.
const (
	// RoleAttacker is the off-path attacker's vantage point.
	RoleAttacker Role = "attacker"
	// RoleEvilServer is an attacker-operated NTP server.
	RoleEvilServer Role = "evilserver"
	// RoleResolver is the victim network's recursive resolver.
	RoleResolver Role = "resolver"
	// RoleNameserver is the pool.ntp.org authoritative nameserver.
	RoleNameserver Role = "nameserver"
	// RoleNTPServer is an honest pool NTP server.
	RoleNTPServer Role = "ntpserver"
	// RoleClient is a victim NTP (or Chronos) client.
	RoleClient Role = "client"
	// RoleAny is the wildcard: a link entry under (r, RoleAny) or
	// (RoleAny, r) matches every counterpart role. Exact pairs win over
	// src-wildcards, which win over dst-wildcards.
	RoleAny Role = "*"
)

// RolePair is one directed src→dst link class between roles — the
// Topology link key.
type RolePair struct {
	// Src and Dst identify the directed role pair.
	Src, Dst Role
}

// Topology assigns PathModels by role pair: the attacker↔resolver path
// may be fast while the client↔resolver path is lossy, modelling the
// attacker racing the legitimate answer from a better network position.
// A Compiler turns it into per-directed-link models as hosts join a lab
// (see DESIGN.md §9).
//
// Each registered link holds a *factory*, not an instance: the compiler
// builds a fresh model per directed address pair, so stateful models
// (Gilbert–Elliott loss) never share burst state between links. The
// Default model is deliberately shared by every unlisted pair — that is
// exactly the PR-4 uniform behaviour, and the zero Topology (no links,
// nil Default) is byte-identical to a lab with no topology at all.
type Topology struct {
	// Default handles every role pair without a link entry (nil: the
	// zero-value Path — fixed 10 ms, lossless, consuming no randomness).
	Default PathModel

	links map[RolePair]func() PathModel
}

// NewTopology returns an empty topology: every link follows Default.
func NewTopology() *Topology {
	return &Topology{links: make(map[RolePair]func() PathModel)}
}

// SetLink registers build for the directed src→dst role link. Either
// side may be RoleAny. build must be non-nil and is invoked once per
// compiled directed link; it must return a fresh model on every call,
// unless the model holds no state (a fixed, lossless, in-order Path),
// which links may share exactly.
func (t *Topology) SetLink(src, dst Role, build func() PathModel) {
	if build == nil {
		panic("netem: Topology.SetLink with nil build")
	}
	if t.links == nil {
		t.links = make(map[RolePair]func() PathModel)
	}
	t.links[RolePair{Src: src, Dst: dst}] = build
}

// SetPath registers build for both directions between roles a and b —
// the symmetric convenience over SetLink. Each direction still gets its
// own fresh instance at compile time.
func (t *Topology) SetPath(a, b Role, build func() PathModel) {
	t.SetLink(a, b, build)
	t.SetLink(b, a, build)
}

// linkBuild resolves the factory owning a directed role pair (nil when
// the pair follows Default). Exact pairs win over (src, RoleAny), which
// wins over (RoleAny, dst) — so "everything the attacker sends" can be
// overridden for one specific destination role.
func (t *Topology) linkBuild(src, dst Role) func() PathModel {
	if f, ok := t.links[RolePair{Src: src, Dst: dst}]; ok {
		return f
	}
	if f, ok := t.links[RolePair{Src: src, Dst: RoleAny}]; ok {
		return f
	}
	if f, ok := t.links[RolePair{Src: RoleAny, Dst: dst}]; ok {
		return f
	}
	return nil
}

// Compiler compiles a Topology into per-directed-link models as hosts
// join a lab. The lab registers each host's address and role with Add;
// Model returns the live compiled PathModel.
//
// A directed link's model is built on the first packet between two
// Add-ed hosts, not for every host pair at Add, so a lab builds only the
// links its traffic uses. Deferring is exact: compilation consumes no
// randomness — factories only construct instances — and no packet
// crosses a link before its first one. A packet with an end not yet
// Add-ed follows Default, and that answer is not kept past the next Add,
// so a host added mid-run still gets its links.
//
// Roles and resolved links live in flat open-addressing tables keyed by
// address and by directed address pair, which a Reset empties and keeps,
// so a pooled lab's compiler stores its roles and links without
// allocating, and a packet's link costs one probe of a table.
type Compiler struct {
	topo  *Topology
	base  PathModel
	roles table[uint32, Role]      // by addrKey
	links table[uint64, PathModel] // directed links resolved so far, by pairKey
	// last and lastModel are the pair resolved last and its model (nil:
	// none), since a packet asks Drop and then Latency for the same pair.
	// Reset and Add forget them.
	last      uint64
	lastModel PathModel
	zero      Path // base when Default is nil, kept to spare an allocation per Reset
}

// Compiler returns a fresh compiler for the topology: an allocation plus
// Reset.
func (t *Topology) Compiler() *Compiler {
	c := &Compiler{}
	c.Reset(t)
	return c
}

// Reset re-targets the compiler at t, forgetting every role and link, and
// keeps its table storage: a reset compiler is a fresh t.Compiler().
// Links the topology does not list follow Default (or the zero Path when
// Default is nil). Models compiled for t's links are built from t's
// factories, so they are fresh per Reset, as a topology's stateful models
// must be per lab.
func (c *Compiler) Reset(t *Topology) {
	c.topo = t
	c.base = t.Default
	if c.base == nil {
		c.zero = Path{}
		c.base = &c.zero
	}
	c.roles.reset()
	c.links.reset()
	c.lastModel = nil
}

// Add assigns role to addr; its links are built as packets cross them.
// Re-adding an address is a no-op (the first role wins, matching
// simnet's duplicate-host rejection).
func (c *Compiler) Add(addr ipv4.Addr, role Role) {
	if _, ok := c.roles.get(addrKey(addr)); !ok {
		c.roles.put(addrKey(addr), role)
		c.lastModel = nil
	}
}

// Model returns the compiled PathModel. It is live: hosts added later
// get their links too, which is how labs that attach clients mid-run
// keep their topology consistent. A topology without links compiles to
// its Default itself (the zero Path when nil), so a uniform lab's packets
// reach their path model with no per-link lookup.
func (c *Compiler) Model() PathModel {
	if len(c.topo.links) == 0 {
		return c.base
	}
	return c
}

// Role reports the role addr was Add-ed under ("" when unknown).
func (c *Compiler) Role(addr ipv4.Addr) Role {
	r, _ := c.roles.get(addrKey(addr))
	return r
}

// link resolves the model owning the src→dst link, building it on the
// first packet between two Add-ed hosts. A factory that returns nil
// leaves the link on the base model, so no nil model escapes.
func (c *Compiler) link(src, dst ipv4.Addr) PathModel {
	key := pairKey(src, dst)
	if c.lastModel != nil && key == c.last {
		return c.lastModel
	}
	m, ok := c.links.get(key)
	if !ok {
		m = c.base
		srcRole, srcKnown := c.roles.get(addrKey(src))
		dstRole, dstKnown := c.roles.get(addrKey(dst))
		if srcKnown && dstKnown {
			if f := c.topo.linkBuild(srcRole, dstRole); f != nil {
				if built := f(); built != nil {
					m = built
				}
			}
			c.links.put(key, m)
		}
	}
	c.last, c.lastModel = key, m
	return m
}

// Latency delegates to the model owning the src→dst link.
func (c *Compiler) Latency(src, dst ipv4.Addr, rng *rand.Rand) time.Duration {
	return c.link(src, dst).Latency(src, dst, rng)
}

// Drop delegates to the model owning the src→dst link.
func (c *Compiler) Drop(src, dst ipv4.Addr, rng *rand.Rand) bool {
	return c.link(src, dst).Drop(src, dst, rng)
}

// topologySpec is one named topology preset: a short description for the
// docs and a factory returning a fresh Topology (fresh because compiled
// links build stateful models; two labs must never share instances).
type topologySpec struct {
	desc  string
	build func() *Topology
}

// attackerSide registers build on every link touching the attacker's
// infrastructure (the attacker host and its NTP servers).
func attackerSide(t *Topology, build func() PathModel) {
	t.SetPath(RoleAttacker, RoleAny, build)
	t.SetPath(RoleEvilServer, RoleAny, build)
}

// victimSide registers build on the victim network's access paths: the
// client's links (to the resolver and to honest and attacker NTP
// servers) and the resolver's path to the nameserver. These exact pairs
// win over attacker-side wildcards, so the client↔evilserver last hop
// follows the victim's access conditions.
func victimSide(t *Topology, build func() PathModel) {
	t.SetPath(RoleClient, RoleResolver, build)
	t.SetPath(RoleClient, RoleNTPServer, build)
	t.SetPath(RoleClient, RoleEvilServer, build)
	t.SetPath(RoleResolver, RoleNameserver, build)
}

// fixedPath returns a factory for a fixed-latency lossless path. Such a
// path holds no state, so every link it builds shares one instance.
func fixedPath(oneWay time.Duration) func() PathModel {
	p := &Path{Delay: Fixed(oneWay)}
	return func() PathModel { return p }
}

// The near-attacker preset's one-way delays: the victim network's links
// and the attacker's better path. The racemargin scenario sweeps the
// attacker's delay around NearAttackerVictimDelay, so the margin scale
// is anchored to these constants.
const (
	// NearAttackerVictimDelay is the preset's victim-side one-way delay.
	NearAttackerVictimDelay = 30 * time.Millisecond
	// NearAttackerDelay is the preset's attacker-side one-way delay.
	NearAttackerDelay = 2 * time.Millisecond
)

// topologies is the built-in topology-preset catalogue (DESIGN.md §9
// documents the table; keep the two in sync).
var topologies = map[string]topologySpec{
	"uniform": {
		desc:  "every link follows the default path — the single global PathModel labs have always run",
		build: NewTopology,
	},
	"near-attacker": {
		desc: "attacker-side links fixed 2 ms one-way, everything else fixed 30 ms — the attacker races from a better path",
		build: func() *Topology {
			t := NewTopology()
			t.Default = &Path{Delay: Fixed(NearAttackerVictimDelay)}
			attackerSide(t, fixedPath(NearAttackerDelay))
			return t
		},
	},
	"far-attacker": {
		desc: "attacker-side links fixed 120 ms one-way, everything else the 10 ms default — the attacker races from across the world",
		build: func() *Topology {
			t := NewTopology()
			attackerSide(t, fixedPath(120*time.Millisecond))
			return t
		},
	},
	"colo": {
		desc: "attacker co-located with the victim resolver: attacker↔resolver and evilserver↔resolver fixed 200 µs, everything else the 10 ms default",
		build: func() *Topology {
			t := NewTopology()
			t.SetPath(RoleAttacker, RoleResolver, fixedPath(200*time.Microsecond))
			t.SetPath(RoleEvilServer, RoleResolver, fixedPath(200*time.Microsecond))
			return t
		},
	},
}

// DefaultTopology names the preset a lab runs when none is requested.
const DefaultTopology = "uniform"

// TopologyPreset returns a fresh Topology for the named preset. Every
// call constructs a new topology whose compiled links build fresh model
// instances, so concurrent labs never share loss state.
func TopologyPreset(name string) (*Topology, error) {
	spec, ok := topologies[name]
	if !ok {
		return nil, fmt.Errorf("netem: unknown topology preset %q (have: %s)",
			name, strings.Join(TopologyNames(), ", "))
	}
	return spec.build(), nil
}

// TopologyNames lists the built-in topology presets, sorted — the
// iteration order sweeps and docs rely on.
func TopologyNames() []string {
	names := make([]string, 0, len(topologies))
	for name := range topologies {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TopologyDescription returns the one-line description of a preset (""
// if unknown) — the DESIGN.md §9 table text.
func TopologyDescription(name string) string { return topologies[name].desc }

// profileFactory validates a profile name once and returns a factory
// building fresh instances of it.
func profileFactory(name string) (func() PathModel, error) {
	if _, err := Profile(name); err != nil {
		return nil, err
	}
	return func() PathModel {
		m, err := Profile(name)
		if err != nil {
			panic(err) // validated above; profiles never disappear
		}
		return m
	}, nil
}

// TopologyFromSpec builds a per-run Topology from a preset name plus
// optional per-side profile overrides — the `topo=` / `atk-net=` /
// `cli-net=` scenario params. An empty preset name means
// DefaultTopology; atkNet replaces every attacker-side link with the
// named profile; cliNet replaces the victim network's access paths
// (client links plus resolver→nameserver, which win over attacker-side
// wildcards where they overlap); dflt, when non-nil, becomes the
// topology's Default path (the `net=`/`rtt=`/`loss=` uniform spec).
// Every call returns a fresh topology.
func TopologyFromSpec(preset, atkNet, cliNet string, dflt PathModel) (*Topology, error) {
	if preset == "" {
		preset = DefaultTopology
	}
	t, err := TopologyPreset(preset)
	if err != nil {
		return nil, err
	}
	if dflt != nil {
		t.Default = dflt
	}
	if atkNet != "" {
		f, err := profileFactory(atkNet)
		if err != nil {
			return nil, fmt.Errorf("atk-net: %w", err)
		}
		attackerSide(t, f)
	}
	if cliNet != "" {
		f, err := profileFactory(cliNet)
		if err != nil {
			return nil, fmt.Errorf("cli-net: %w", err)
		}
		victimSide(t, f)
	}
	return t, nil
}
