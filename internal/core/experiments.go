package core

import (
	"time"

	"dnstime/internal/chronos"
	"dnstime/internal/dnsauth"
	"dnstime/internal/dnswire"
	"dnstime/internal/ipv4"
	"dnstime/internal/ntpclient"
)

// shiftTolerance decides when the victim's clock counts as shifted: within
// 20% of the attacker's offset.
func shifted(offset, target time.Duration) bool {
	lo, hi := target-target/5, target+target/5
	if lo > hi {
		lo, hi = hi, lo
	}
	return offset >= lo && offset <= hi
}

// ---------------------------------------------------------------------------
// Boot-time attack (§IV-A, Figure 2).

// BootTimeResult reports one boot-time attack run.
type BootTimeResult struct {
	Profile     string
	Poisoned    bool          // cache poisoning landed before boot
	Shifted     bool          // the client accepted the attacker's time
	ClockOffset time.Duration // final clock error
	TimeToShift time.Duration // from client boot to the malicious step
}

// RunBootTimeAttack poisons the resolver before the client boots, then
// boots it and waits for the malicious time step.
func RunBootTimeAttack(prof ntpclient.Profile, cfg LabConfig) (BootTimeResult, error) {
	lab, err := acquireLab(cfg)
	if err != nil {
		return BootTimeResult{}, err
	}
	defer releaseLab(lab)
	tr := lab.cfg.Tracer
	res := BootTimeResult{Profile: prof.Name}
	poisonStart := lab.Clock.Now()
	if err := lab.PoisonResolver(86400); err != nil {
		tr.Span(poisonStart, lab.Clock.Now(), "run", "poison", "failed")
		return res, err
	}
	tr.Span(poisonStart, lab.Clock.Now(), "run", "poison", "ok")
	res.Poisoned = true

	client, err := lab.NewClient(prof, 0)
	if err != nil {
		return res, err
	}
	bootAt := lab.Clock.Now()
	if err := client.Start(); err != nil {
		return res, err
	}
	d, ok := waitUntil(lab.Clock, 45*time.Minute, func() bool {
		return shifted(client.ClockOffset(), lab.cfg.EvilOffset)
	})
	res.Shifted = ok
	res.ClockOffset = client.ClockOffset()
	res.TimeToShift = d
	tr.Span(bootAt, lab.Clock.Now(), "run", "boot-wait", traceOutcome(ok))
	return res, nil
}

// traceOutcome renders a success flag for span details without
// allocating.
func traceOutcome(ok bool) string {
	if ok {
		return "shifted"
	}
	return "not-shifted"
}

// ---------------------------------------------------------------------------
// Run-time attack (§IV-B, Figure 3; Table II).

// RuntimeScenario selects the upstream-discovery model.
type RuntimeScenario int

// Scenarios from §V-A2.
const (
	// ScenarioP1: the attacker knows all upstream addresses upfront (pool
	// enumeration or config-interface leak) and starves them concurrently.
	ScenarioP1 RuntimeScenario = iota + 1
	// ScenarioP2: the attacker discovers upstreams one at a time via the
	// victim's RefID and starves them sequentially.
	ScenarioP2
)

// String names the scenario.
func (s RuntimeScenario) String() string {
	if s == ScenarioP2 {
		return "P2"
	}
	return "P1"
}

// RuntimeResult reports one run-time attack.
type RuntimeResult struct {
	Profile     string
	Scenario    RuntimeScenario
	Synced      bool          // client synchronised honestly before attack
	Succeeded   bool          // clock shifted to the attacker's offset
	Duration    time.Duration // attack start → malicious step
	DNSLookups  int           // client DNS queries during the attack
	ClockOffset time.Duration
}

// RunRuntimeAttack boots a client, lets it synchronise honestly, then runs
// the §IV-B attack: continuous §III poisoning campaign plus rate-limit
// starvation of the client's upstream servers (concurrent in P1, RefID-
// discovered in P2), until the client re-queries DNS, associates to the
// attacker's servers and accepts the shifted time.
func RunRuntimeAttack(prof ntpclient.Profile, scenario RuntimeScenario, cfg LabConfig) (RuntimeResult, error) {
	lab, err := acquireLab(cfg)
	if err != nil {
		return RuntimeResult{}, err
	}
	defer releaseLab(lab)
	tr := lab.cfg.Tracer
	res := RuntimeResult{Profile: prof.Name, Scenario: scenario}

	client, err := lab.NewClient(prof, 30*time.Second)
	if err != nil {
		return res, err
	}
	syncStart := lab.Clock.Now()
	if err := client.Start(); err != nil {
		return res, err
	}
	// Honest convergence.
	if _, ok := waitUntil(lab.Clock, time.Hour, func() bool {
		return shifted(client.ClockOffset(), 0) || absd(client.ClockOffset()) < time.Second
	}); !ok {
		tr.Span(syncStart, lab.Clock.Now(), "run", "honest-sync", "failed")
		return res, ErrNotSynced
	}
	tr.Span(syncStart, lab.Clock.Now(), "run", "honest-sync", "ok")
	res.Synced = true
	lookupsBefore := client.DNSLookups
	attackStart := lab.Clock.Now()

	// Attack begins: keep the defragmentation cache loaded so the client's
	// eventual DNS re-query is answered with the attacker's servers.
	campaign := lab.StartPoisonCampaign(30*time.Second, 86400)
	defer campaign.Stop()

	victim := clientAddr(client)
	var stopFloods []func()
	defer func() {
		for _, stop := range stopFloods {
			stop()
		}
	}()

	switch scenario {
	case ScenarioP2:
		// Discover-and-starve loop: every minute, read the victim's RefID
		// and flood the revealed upstream.
		flooded := make(map[ipv4.Addr]bool)
		tick := lab.Clock.Tick(time.Minute, func() {
			lab.Eve.DiscoverUpstreamViaRefID(victim, func(up ipv4.Addr, err error) {
				if err != nil || flooded[up] || !lab.isHonest(up) {
					return
				}
				flooded[up] = true
				stopFloods = append(stopFloods, lab.Eve.RateLimitFlood(up, victim, 20*time.Second))
			})
		})
		defer tick.Stop()
	default:
		stopFloods = append(stopFloods, lab.FloodAllHonest(victim))
	}

	d, ok := waitUntil(lab.Clock, 4*time.Hour, func() bool {
		return shifted(client.ClockOffset(), lab.cfg.EvilOffset)
	})
	tr.Span(attackStart, lab.Clock.Now(), "run", "starve-attack", traceOutcome(ok))
	res.Succeeded = ok
	res.Duration = d
	res.DNSLookups = client.DNSLookups - lookupsBefore
	res.ClockOffset = client.ClockOffset()
	return res, nil
}

func clientAddr(c *ntpclient.Client) ipv4.Addr { return c.HostAddr() }

func absd(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

// ---------------------------------------------------------------------------
// Table I: attack applicability matrix.

// Applicability marks a Table I cell.
type Applicability int

// Cell values.
const (
	No Applicability = iota
	Yes
	NotApplicable
)

// String renders the cell as in the paper.
func (a Applicability) String() string {
	switch a {
	case Yes:
		return "yes"
	case NotApplicable:
		return "n/a"
	default:
		return "no"
	}
}

// RuntimeApplicability classifies a profile's run-time attack cell from
// its DNS-lookup behaviour (as in the paper's source-code analysis).
func RuntimeApplicability(prof ntpclient.Profile) Applicability {
	switch {
	case prof.OneShot:
		return NotApplicable
	case prof.RuntimeLookup:
		return Yes
	default:
		return No
	}
}

// ---------------------------------------------------------------------------
// Table II: run-time attack durations.

// TableIISpec is one Table II row: the client, its upstream-discovery
// scenario and the paper's measured duration.
type TableIISpec struct {
	Profile  ntpclient.Profile
	Scenario RuntimeScenario
	Paper    time.Duration
}

// Metric names the row's measured duration in the table2 scenario's
// result: "minutes/<client>-<P1|P2>".
func (s TableIISpec) Metric() string {
	return "minutes/" + s.Profile.Name + "-" + s.Scenario.String()
}

// TableIISpecs are the four Table II rows in the paper's order. The table2
// scenario runs them and the single-seed CLI renders them. Note: the
// paper's table prints "openntpd P1 84 minutes", but §V-A2 states openntpd
// does not support run-time DNS lookups and that the three practically
// evaluated clients were ntpd, chrony and systemd-timesyncd; we therefore
// run systemd-timesyncd for that row and record the discrepancy in
// EXPERIMENTS.md.
var TableIISpecs = []TableIISpec{
	{ntpclient.ProfileNTPd, ScenarioP2, 47 * time.Minute},
	{ntpclient.ProfileNTPd, ScenarioP1, 17 * time.Minute},
	{ntpclient.ProfileSystemd, ScenarioP1, 84 * time.Minute},
	{ntpclient.ProfileChrony, ScenarioP1, 57 * time.Minute},
}

// ---------------------------------------------------------------------------
// Chronos attack (§VI-C, Figure 4).

// ChronosResult reports one Chronos attack run.
type ChronosResult struct {
	// N is the number of honest pool-generation queries completed before
	// poisoning landed.
	N int
	// Bound is the analytic maximum N for success (11 with the paper's
	// parameters).
	Bound int
	// PoolSize and EvilInPool describe the final generated pool.
	PoolSize   int
	EvilInPool int
	// ControlsPool: the 2/3 condition held.
	ControlsPool bool
	// Shifted: the Chronos clock accepted the attacker's time.
	Shifted     bool
	ClockOffset time.Duration
}

// RunChronosAttack lets the Chronos client complete n honest hourly pool
// queries, then poisons the resolver with spoofedAddrs attacker addresses
// and a TTL longer than the remaining pool-generation window (the §VI-C
// attack), and reports whether the client's clock shifted.
//
// The poisoned cache entry is installed via the resolver's OverrideCache
// experiment hook: the fragment-replacement vector demonstrated in
// internal/attack cannot change the answer *count* of a response (ANCOUNT
// lives in the first fragment), while §VI-C assumes the attacker fits up to
// 89 addresses into the spoofed response; EXPERIMENTS.md documents this
// substitution.
func RunChronosAttack(n, spoofedAddrs int, cfg LabConfig) (ChronosResult, error) {
	cfg.applyDefaults()
	cfg.EvilServers = spoofedAddrs
	lab, err := acquireLab(cfg)
	if err != nil {
		return ChronosResult{}, err
	}
	defer releaseLab(lab)
	perQuery := 4
	// The Chronos pool nameserver hands out 4 addresses per query (§VI-C);
	// override the lab's default all-at-once pool.
	lab.Auth.AddPool(&dnsauth.Pool{
		Name:        PoolDomain,
		Addrs:       lab.HonestAddrs(),
		PerResponse: perQuery,
		TTL:         lab.cfg.PoolTTL,
	})

	client, err := lab.NewChronos(chronos.Config{
		PoolDomain:    PoolDomain,
		QueryInterval: time.Hour,
		QueryCount:    24,
	})
	if err != nil {
		return ChronosResult{}, err
	}
	if err := client.Start(); err != nil {
		return ChronosResult{}, err
	}

	res := ChronosResult{N: n, Bound: chronos.AttackBound(perQuery, spoofedAddrs)}
	tr := lab.cfg.Tracer

	// Let n honest hourly queries complete.
	honestStart := lab.Clock.Now()
	lab.Clock.RunFor(time.Duration(n)*time.Hour + 30*time.Minute)
	tr.Span(honestStart, lab.Clock.Now(), "run", "honest-window", "")

	// Poisoning lands: attacker addresses with TTL > 24 h, so every
	// remaining hourly query is answered from cache.
	lab.Resolver.OverrideCache(PoolDomain, dnswire.TypeA, lab.evilRRSet(25*3600), 25*time.Hour)

	// Run out the 24-hour pool-generation window plus sampling time.
	poisonedStart := lab.Clock.Now()
	lab.Clock.RunFor(26 * time.Hour)
	tr.Span(poisonedStart, lab.Clock.Now(), "run", "poisoned-window", "")

	res.PoolSize = client.PoolSize()
	for _, a := range lab.evilAddr {
		if client.PoolContains(a) {
			res.EvilInPool++
		}
	}
	res.ControlsPool = chronos.ControlsPool(res.EvilInPool, res.PoolSize)
	res.Shifted = shifted(client.ClockOffset(), lab.cfg.EvilOffset)
	res.ClockOffset = client.ClockOffset()
	return res, nil
}
