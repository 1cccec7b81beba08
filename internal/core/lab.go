// Package core wires the full attack laboratory of the paper — victim
// resolver, pool.ntp.org authoritative nameserver, honest and attacker NTP
// servers, NTP/Chronos clients and the off-path attacker — and implements
// the end-to-end experiments behind Tables I and II, the boot-time and
// run-time attacks (Section IV/V) and the Chronos attack (Section VI).
package core

import (
	"errors"
	"slices"
	"strconv"
	"time"

	"dnstime/internal/attack"
	"dnstime/internal/chronos"
	"dnstime/internal/dnsauth"
	"dnstime/internal/dnsres"
	"dnstime/internal/dnswire"
	"dnstime/internal/ipv4"
	"dnstime/internal/netem"
	"dnstime/internal/ntpclient"
	"dnstime/internal/ntpserv"
	"dnstime/internal/obs"
	"dnstime/internal/simclock"
	"dnstime/internal/simnet"
)

// Well-known lab addresses.
var (
	// NSAddr is the pool.ntp.org authoritative nameserver.
	NSAddr = ipv4.MustParseAddr("198.51.100.53")
	// ResolverAddr is the victim network's recursive resolver.
	ResolverAddr = ipv4.MustParseAddr("192.0.2.53")
	// AttackerAddr is the off-path attacker's vantage point.
	AttackerAddr = ipv4.MustParseAddr("203.0.113.66")
)

// PoolDomain is the NTP server-discovery domain.
const PoolDomain = "pool.ntp.org"

// Errors returned by the lab.
var (
	ErrPoisoningFailed = errors.New("core: cache poisoning did not take effect")
	ErrNotSynced       = errors.New("core: client failed to synchronise honestly")
)

// LabConfig sizes and parameterises the laboratory.
type LabConfig struct {
	// Seed drives every random choice (deterministic per seed).
	Seed int64
	// HonestServers is the honest pool size (default 8).
	HonestServers int
	// EvilServers is the number of attacker NTP servers (default 4).
	EvilServers int
	// EvilOffset is the time shift the attacker serves (default −500 s,
	// the paper's lab value).
	EvilOffset time.Duration
	// RateLimitHonest enables rate limiting on every honest server
	// (default true — the run-time attack's precondition; Section VII-A
	// found 38% of real pool servers behave this way).
	RateLimitHonest *bool
	// PadResponses is the nameserver's response padding (default 400 B:
	// large enough that every pool response carries a padding record whose
	// bytes land in the second fragment — the attacker's checksum slack).
	PadResponses int
	// PoolTTL is the pool record TTL (default 150 s, as measured).
	PoolTTL uint32
	// ResolverValidatesDNSSEC enables validation at the victim resolver
	// (default false; pool.ntp.org is unsigned so it would not help).
	ResolverValidatesDNSSEC bool
	// Topology models the network conditions on the lab's links —
	// latency distribution, loss, reordering (internal/netem; DESIGN.md
	// §8). Its Default path covers every link, and role-pair entries
	// (attacker↔resolver, client↔resolver, resolver↔nameserver, …)
	// override it by network position; the lab compiles them into
	// per-directed-link models as hosts join (DESIGN.md §9). A uniform
	// path is Topology{Default: path}. nil keeps the default lab path:
	// fixed 10 ms one-way, lossless. All link randomness derives from
	// Seed, so lossy labs stay deterministic per seed. Stateful models
	// must be fresh per lab (netem.Profile and netem.FromSpec return
	// fresh instances each call).
	Topology *netem.Topology
	// Tracer receives the lab's virtual-time observability events: every
	// simnet packet event, every clock fire and the attacker's phase spans
	// (internal/obs; DESIGN.md §12). nil (the default) installs obs.Nop —
	// the hooks are then never wired, so untraced labs pay nothing. The
	// emitted sequence is deterministic per Seed, like everything else in
	// the lab.
	Tracer obs.Tracer
}

func (c *LabConfig) applyDefaults() {
	if c.HonestServers == 0 {
		c.HonestServers = 8
	}
	if c.EvilServers == 0 {
		c.EvilServers = 4
	}
	if c.EvilOffset == 0 {
		c.EvilOffset = -500 * time.Second
	}
	if c.RateLimitHonest == nil {
		t := true
		c.RateLimitHonest = &t
	}
	if c.PadResponses == 0 {
		c.PadResponses = 400
	}
	if c.PoolTTL == 0 {
		c.PoolTTL = 150
	}
	if c.Tracer == nil {
		c.Tracer = obs.Nop
	}
}

// Lab is a fully wired attack laboratory.
type Lab struct {
	Clock    *simclock.Clock
	Net      *simnet.Network
	Auth     *dnsauth.Server
	Resolver *dnsres.Resolver
	Honest   []*ntpserv.Server
	Evil     []*ntpserv.Server
	Eve      *attack.Attacker

	cfg LabConfig
	// topo is the live topology compiler, nil without a topology; when
	// set it is compiler, which the lab keeps across Resets and
	// re-targets at each run's topology.
	topo       *netem.Compiler
	compiler   *netem.Compiler
	honestAddr []ipv4.Addr
	evilAddr   []ipv4.Addr
	nextClient byte
	seedStep   int64
	// clients holds, per client slot, the host NewClient or NewChronos
	// attached at 192.0.2.(100+slot) and the last client of each kind
	// bound to it. Reset detaches the hosts; they and their clients stay
	// here as spares, which the next run's NewClient and NewChronos
	// re-attach and reset in place, as addServer does with servers.
	clients []clientSlot
}

// clientSlot is one client slot's spare host and clients (nil until a
// run first fills them).
type clientSlot struct {
	host    *simnet.Host
	ntp     *ntpclient.Client
	chronos *chronos.Client
}

// labEpoch is the virtual start time of every laboratory.
var labEpoch = time.Date(2020, 2, 1, 0, 0, 0, 0, time.UTC)

// netOptions translates the config into network options for a lab whose
// live topology compiler is topo (nil without a topology).
func (c *LabConfig) netOptions(topo *netem.Compiler) []simnet.Option {
	// Link randomness (loss, jitter, reordering under non-default path
	// models) derives from the lab seed — never from a global or pinned
	// source — so campaigns replay byte-identically at any worker count.
	opts := []simnet.Option{simnet.WithSeed(c.Seed + 3)}
	if c.Tracer.Enabled() {
		opts = append(opts, simnet.WithTrace(simnet.TraceTo(c.Tracer)))
	}
	if topo == nil {
		return opts
	}
	// The compiled model is live: every host the lab adds (including
	// clients attached mid-run) registers its role and receives the
	// topology's per-directed-link models.
	return append(opts, simnet.WithPathModel(topo.Model()))
}

// NewLab builds the laboratory: nameserver serving pool.ntp.org backed by
// the honest servers, victim resolver, attacker servers and attacker host.
// It builds an empty clock and network, then runs Reset.
func NewLab(cfg LabConfig) (*Lab, error) {
	clk := simclock.New(labEpoch)
	l := &Lab{Clock: clk, Net: simnet.New(clk)}
	if err := l.Reset(cfg); err != nil {
		return nil, err
	}
	return l, nil
}

// Reset rebuilds the laboratory in place for a new configuration, reusing
// the clock's event queue, the network's packet pools, the topology
// compiler and the attached server hosts. The contract is hard: a reset
// lab is observably identical to NewLab(cfg) — same component wiring,
// same RNG streams (all derived from cfg.Seed), same virtual start time.
// It holds by construction, since NewLab is an empty lab plus Reset, and
// the engine equivalence suite checks it byte-for-byte. Client hosts from
// the previous run and servers beyond the new population are detached;
// in-flight events die with the clock reset, and their packets return to
// the network's free lists. Detached client hosts and their clients stay
// as spares for the next NewClient and NewChronos: a client obtained
// before a Reset must not be used after it.
func (l *Lab) Reset(cfg LabConfig) error {
	cfg.applyDefaults()
	l.topo = nil
	if cfg.Topology != nil {
		if l.compiler == nil {
			l.compiler = cfg.Topology.Compiler()
		} else {
			l.compiler.Reset(cfg.Topology)
		}
		l.topo = l.compiler
	}
	// Clock first: every pending timer and ticker callback dies before any
	// component state is touched, so nothing fires mid-reset.
	l.Clock.Reset(labEpoch)
	l.Net.Reset(cfg.netOptions(l.topo)...)
	for _, c := range l.clients {
		if c.host != nil {
			l.Net.RemoveHost(c.host.Addr())
		}
	}
	for i := cfg.HonestServers; i < len(l.honestAddr); i++ {
		l.Net.RemoveHost(l.honestAddr[i])
	}
	for i := cfg.EvilServers; i < len(l.evilAddr); i++ {
		l.Net.RemoveHost(l.evilAddr[i])
	}
	l.nextClient, l.seedStep = 0, 0
	l.Honest, l.Evil = l.Honest[:0], l.Evil[:0]
	l.honestAddr, l.evilAddr = l.honestAddr[:0], l.evilAddr[:0]
	l.cfg = cfg
	return l.wire()
}

// labDelegations is the victim resolver's delegation table. Shared across
// labs: the resolver only reads it.
var labDelegations = map[string]ipv4.Addr{"ntp.org": NSAddr}

// wire attaches (or re-attaches) every lab component onto the clock and
// network, in a fixed order: nameserver, resolver, attacker, honest
// servers, evil servers, pool. Components that survived a pool Reset
// still bound to their (hard-reset) hosts are reset in place rather than
// rebuilt — each constructor is an allocation plus that same Reset, but
// their RNGs, maps and scratch buffers are recycled instead of
// reallocated every seed.
func (l *Lab) wire() error {
	cfg := l.cfg
	if tr := cfg.Tracer; tr.Enabled() {
		// The clock hook dies with Clock.Reset, so it is installed here,
		// before any event can fire.
		l.Clock.SetFireHook(simclock.TraceTo(tr))
	}
	authHost, err := l.labHost(NSAddr, netem.RoleNameserver, simnet.HostConfig{})
	if err != nil {
		return err
	}
	authCfg := dnsauth.Config{PadResponsesTo: cfg.PadResponses}
	if l.Auth != nil && l.Auth.Host() == authHost {
		err = l.Auth.Reset(authCfg)
	} else {
		l.Auth, err = dnsauth.New(authHost, authCfg)
	}
	if err != nil {
		return err
	}
	resHost, err := l.labHost(ResolverAddr, netem.RoleResolver, simnet.HostConfig{})
	if err != nil {
		return err
	}
	resCfg := dnsres.Config{
		Delegations:    labDelegations,
		ValidateDNSSEC: cfg.ResolverValidatesDNSSEC,
		RandSeed:       cfg.Seed + 1,
	}
	if l.Resolver != nil && l.Resolver.Host() == resHost {
		err = l.Resolver.Reset(resCfg)
	} else {
		l.Resolver, err = dnsres.New(resHost, resCfg)
	}
	if err != nil {
		return err
	}
	eveHost, err := l.labHost(AttackerAddr, netem.RoleAttacker, simnet.HostConfig{})
	if err != nil {
		return err
	}
	if l.Eve != nil && l.Eve.Host() == eveHost {
		l.Eve.Reset(cfg.Seed + 2)
	} else {
		l.Eve = attack.New(eveHost, cfg.Seed+2)
	}
	l.Eve.SetTracer(cfg.Tracer)
	for i := 0; i < cfg.HonestServers; i++ {
		if err := l.addHonest(); err != nil {
			return err
		}
	}
	for i := 0; i < cfg.EvilServers; i++ {
		if err := l.addEvil(); err != nil {
			return err
		}
	}
	// The pool answers with the full honest set per response, keeping the
	// template predictable (rotation-vs-prediction is an ablation in
	// internal/attack's tests and bench_test.go).
	l.Auth.AddPool(&dnsauth.Pool{
		Name:        PoolDomain,
		Addrs:       append([]ipv4.Addr(nil), l.honestAddr...),
		PerResponse: len(l.honestAddr),
		TTL:         cfg.PoolTTL,
	})
	return nil
}

// MustNewLab is NewLab for examples and benchmarks.
func MustNewLab(cfg LabConfig) *Lab {
	l, err := NewLab(cfg)
	if err != nil {
		panic(err)
	}
	return l
}

// Config returns the lab configuration (with defaults applied).
func (l *Lab) Config() LabConfig { return l.cfg }

// addHost attaches a host and, when the lab runs a topology, registers
// its network role so the compiled per-link models cover it.
func (l *Lab) addHost(addr ipv4.Addr, role netem.Role, hc simnet.HostConfig) (*simnet.Host, error) {
	host, err := l.Net.AddHost(addr, hc)
	if err != nil {
		return nil, err
	}
	if l.topo != nil {
		l.topo.Add(addr, role)
	}
	return host, nil
}

// labHost returns a ready host at addr: a host kept across a pool Reset is
// hard-reset to cfg (handlers, ports, caches, stats all cleared), otherwise
// a fresh one is attached. Both paths register the topology role.
func (l *Lab) labHost(addr ipv4.Addr, role netem.Role, hc simnet.HostConfig) (*simnet.Host, error) {
	if host := l.Net.Host(addr); host != nil {
		host.Reset(hc)
		if l.topo != nil {
			l.topo.Add(addr, role)
		}
		return host, nil
	}
	return l.addHost(addr, role, hc)
}

// HonestAddrs returns the honest NTP server addresses.
func (l *Lab) HonestAddrs() []ipv4.Addr { return append([]ipv4.Addr(nil), l.honestAddr...) }

// spareServer returns the server a previous wiring left in s's backing
// array at slot idx, provided it is still bound to host (lab Reset only
// truncates l.Honest/l.Evil, so the pointers survive between runs; a slot
// whose host was detached compares unequal and forces a rebuild).
func spareServer(s []*ntpserv.Server, idx int, host *simnet.Host) *ntpserv.Server {
	if idx < cap(s) {
		if sv := s[: idx+1 : cap(s)][idx]; sv != nil && sv.Host() == host {
			return sv
		}
	}
	return nil
}

func (l *Lab) addServer(list *[]*ntpserv.Server, addrs *[]ipv4.Addr, addr ipv4.Addr, role netem.Role, cfg ntpserv.Config) error {
	host, err := l.labHost(addr, role, simnet.HostConfig{})
	if err != nil {
		return err
	}
	s := spareServer(*list, len(*list), host)
	if s != nil {
		err = s.Reset(cfg)
	} else {
		s, err = ntpserv.New(host, cfg)
	}
	if err != nil {
		return err
	}
	*list = append(*list, s)
	*addrs = append(*addrs, addr)
	return nil
}

func (l *Lab) addHonest() error {
	addr := ipv4.Addr{10, 0, byte(len(l.honestAddr) >> 8), byte(len(l.honestAddr) + 1)}
	return l.addServer(&l.Honest, &l.honestAddr, addr, netem.RoleNTPServer, ntpserv.Config{
		RateLimit: ntpserv.RateLimitConfig{Enabled: *l.cfg.RateLimitHonest},
	})
}

func (l *Lab) addEvil() error {
	addr := ipv4.Addr{6, 6, byte(len(l.evilAddr) >> 8), byte(len(l.evilAddr) + 1)}
	return l.addServer(&l.Evil, &l.evilAddr, addr, netem.RoleEvilServer, ntpserv.Config{Offset: l.cfg.EvilOffset})
}

// NewClient attaches the next client host running the given profile. The
// host and client are the slot's spares from an earlier run, reset in
// place, when the lab has them.
func (l *Lab) NewClient(prof ntpclient.Profile, clockErr time.Duration) (*ntpclient.Client, error) {
	l.seedStep++
	slot, err := l.clientHost()
	if err != nil {
		return nil, err
	}
	seed := l.cfg.Seed + 100 + l.seedStep
	if slot.ntp != nil {
		slot.ntp.Reset(prof, ResolverAddr, PoolDomain, clockErr, seed)
	} else {
		slot.ntp = ntpclient.New(slot.host, prof, ResolverAddr, PoolDomain, clockErr, seed)
	}
	return slot.ntp, nil
}

// NewChronos attaches the next client host running a Chronos client, the
// slot's spares reset in place when the lab has them.
func (l *Lab) NewChronos(cfg chronos.Config) (*chronos.Client, error) {
	slot, err := l.clientHost()
	if err != nil {
		return nil, err
	}
	if cfg.Seed == 0 {
		cfg.Seed = l.cfg.Seed + 500
	}
	if slot.chronos != nil {
		slot.chronos.Reset(cfg, ResolverAddr, 0)
	} else {
		slot.chronos = chronos.New(slot.host, cfg, ResolverAddr, 0)
	}
	return slot.chronos, nil
}

// clientHost attaches the host of the next client slot at
// 192.0.2.(100+slot) and returns the slot: its spare host re-attached and
// reset, or a new one. Either way the host joins the network and the
// topology here, where a fresh lab adds it, so a packet sent to a client
// not yet attached is dropped as in a fresh lab.
func (l *Lab) clientHost() (*clientSlot, error) {
	l.nextClient++
	addr := ipv4.Addr{192, 0, 2, 100 + l.nextClient}
	i := int(l.nextClient) - 1
	for len(l.clients) <= i {
		l.clients = append(l.clients, clientSlot{})
	}
	slot := &l.clients[i]
	if slot.host == nil {
		host, err := l.addHost(addr, netem.RoleClient, simnet.HostConfig{})
		if err != nil {
			return nil, err
		}
		slot.host = host
		return slot, nil
	}
	if err := l.Net.Reattach(slot.host, simnet.HostConfig{}); err != nil {
		return nil, err
	}
	if l.topo != nil {
		l.topo.Add(addr, netem.RoleClient)
	}
	return slot, nil
}

// Campaign is a running poisoning campaign (§IV-A option 3): every round it
// re-probes the nameserver's IPID, rebuilds spoofed second fragments and
// plants them in the resolver's defragmentation cache.
type Campaign struct {
	lab     *Lab
	ticker  *simclock.Ticker
	stopped bool
	// Rounds counts planting rounds.
	Rounds int
	// TTL overrides record TTLs in the spoofed fragments (0 keeps them).
	TTL uint32
}

// StartPoisonCampaign begins a planting campaign with the given round
// interval (the paper uses 30 s, matching the Linux defragmentation cache
// timeout).
func (l *Lab) StartPoisonCampaign(interval time.Duration, ttl uint32) *Campaign {
	c := &Campaign{lab: l, TTL: ttl}
	round := func() {
		if c.stopped {
			return
		}
		c.Rounds++
		c.plantOnce()
	}
	round()
	c.ticker = l.Clock.Tick(interval, round)
	return c
}

// Stop ends the campaign.
func (c *Campaign) Stop() {
	c.stopped = true
	c.ticker.Stop()
}

// plantOnce runs one §III round: fetch template, probe IPID, build spoofed
// fragments, inject.
func (c *Campaign) plantOnce() {
	l := c.lab
	if tr := l.cfg.Tracer; tr.Enabled() {
		tr.Event(l.Clock.Now(), "attack", "plant-round", "round="+strconv.Itoa(c.Rounds))
	}
	l.Eve.ForceFragmentation(NSAddr, ResolverAddr, 68)
	l.Eve.FetchTemplate(NSAddr, PoolDomain, func(template []byte, err error) {
		if err != nil {
			return
		}
		l.Eve.ProbeIPIDs(NSAddr, PoolDomain, 2, 200*time.Millisecond, func(ids []uint16, err error) {
			if err != nil {
				return
			}
			frags, err := l.Eve.BuildSpoofedFragments(attack.PoisonPlan{
				NS:        NSAddr,
				Resolver:  ResolverAddr,
				Template:  template,
				Malicious: l.evilAddr,
				TTL:       c.TTL,
				MTU:       68,
				IPIDs:     attack.PredictIPIDs(ids, 1, 16),
			})
			if err != nil {
				return
			}
			for _, f := range frags {
				l.Eve.Inject(f)
			}
		})
	})
}

// PoisonResolver performs one complete poisoning: plant, trigger the
// resolver's query from the attacker's own host (the open-resolver /
// shared-system trigger of §IV-A), and verify the malicious record landed.
// A round takes ≈3 s (ICMP + template fetch + two IPID probes + planting);
// up to five trigger attempts are made, re-planting between them.
func (l *Lab) PoisonResolver(ttl uint32) error {
	campaign := l.StartPoisonCampaign(30*time.Second, ttl)
	defer campaign.Stop()
	for attempt := 0; attempt < 5; attempt++ {
		// Let the current planting round finish.
		l.Clock.RunFor(5 * time.Second)
		l.Resolver.Evict(PoolDomain, dnswire.TypeA)
		l.Eve.TriggerOpenResolverQuery(ResolverAddr, PoolDomain)
		l.Clock.RunFor(5 * time.Second)
		if l.CachePoisoned() {
			return nil
		}
		// Wait out the rest of the round and try again.
		l.Clock.RunFor(25 * time.Second)
	}
	return ErrPoisoningFailed
}

// CachePoisoned reports whether the resolver's pool.ntp.org entry currently
// maps to an attacker server.
func (l *Lab) CachePoisoned() bool {
	entry, ok := l.Resolver.Peek(PoolDomain, dnswire.TypeA)
	if !ok {
		return false
	}
	for _, rr := range entry.RRs {
		if rr.Type == dnswire.TypeA && slices.Contains(l.evilAddr, rr.Addr) {
			return true
		}
	}
	return false
}

// FloodAllHonest starts rate-limit-abuse floods against every honest server
// on behalf of victim; the returned stop function ends them.
func (l *Lab) FloodAllHonest(victim ipv4.Addr) func() {
	stops := make([]func(), 0, len(l.Honest))
	for _, s := range l.Honest {
		stops = append(stops, l.Eve.RateLimitFlood(s.Addr(), victim, 20*time.Second))
	}
	return func() {
		for _, stop := range stops {
			stop()
		}
	}
}

// isHonest reports whether addr is one of the lab's honest servers.
func (l *Lab) isHonest(addr ipv4.Addr) bool {
	for _, a := range l.honestAddr {
		if a == addr {
			return true
		}
	}
	return false
}

// evilRRSet builds the poisoned RRset used by the Chronos experiment.
func (l *Lab) evilRRSet(ttl uint32) []dnswire.RR {
	rrs := make([]dnswire.RR, 0, len(l.evilAddr))
	for _, a := range l.evilAddr {
		rrs = append(rrs, dnswire.RR{
			Name: PoolDomain, Type: dnswire.TypeA, Class: dnswire.ClassIN,
			TTL: ttl, Addr: a,
		})
	}
	return rrs
}

func waitUntil(clk *simclock.Clock, limit time.Duration, cond func() bool) (time.Duration, bool) {
	start := clk.Now()
	deadline := start.Add(limit)
	for !cond() {
		if !clk.Now().Before(deadline) {
			return limit, false
		}
		if !clk.Step() {
			return clk.Now().Sub(start), cond()
		}
	}
	return clk.Now().Sub(start), true
}
