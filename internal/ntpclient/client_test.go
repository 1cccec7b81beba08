package ntpclient

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"dnstime/internal/dnsauth"
	"dnstime/internal/dnsres"
	"dnstime/internal/ipv4"
	"dnstime/internal/ntpserv"
	"dnstime/internal/ntpwire"
	"dnstime/internal/simclock"
	"dnstime/internal/simnet"
)

var (
	t0         = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	nsAddr     = ipv4.MustParseAddr("198.51.100.53")
	resAddr    = ipv4.MustParseAddr("192.0.2.53")
	clientAddr = ipv4.MustParseAddr("192.0.2.10")
)

// lab wires a network with an authoritative server for pool.ntp.org, a
// recursive resolver, and a set of honest NTP servers.
type lab struct {
	t       *testing.T
	clk     *simclock.Clock
	net     *simnet.Network
	auth    *dnsauth.Server
	res     *dnsres.Resolver
	honest  []*ntpserv.Server
	hAddrs  []ipv4.Addr
	evil    []*ntpserv.Server
	eAddrs  []ipv4.Addr
	nextIP  byte
	clients int
}

func newLab(t *testing.T, honestServers int) *lab {
	t.Helper()
	clk := simclock.New(t0)
	n := simnet.New(clk)
	authHost := n.MustAddHost(nsAddr, simnet.HostConfig{})
	auth, err := dnsauth.New(authHost, dnsauth.Config{})
	if err != nil {
		t.Fatal(err)
	}
	resHost := n.MustAddHost(resAddr, simnet.HostConfig{})
	res, err := dnsres.New(resHost, dnsres.Config{Delegations: map[string]ipv4.Addr{"ntp.org": nsAddr}})
	if err != nil {
		t.Fatal(err)
	}
	l := &lab{t: t, clk: clk, net: n, auth: auth, res: res, nextIP: 1}
	for i := 0; i < honestServers; i++ {
		l.addHonest()
	}
	l.syncPool()
	return l
}

func (l *lab) addHonest() *ntpserv.Server {
	addr := ipv4.Addr{10, 0, 0, l.nextIP}
	l.nextIP++
	h := l.net.MustAddHost(addr, simnet.HostConfig{})
	s, err := ntpserv.New(h, ntpserv.Config{RateLimit: ntpserv.RateLimitConfig{Enabled: true}})
	if err != nil {
		l.t.Fatal(err)
	}
	l.honest = append(l.honest, s)
	l.hAddrs = append(l.hAddrs, addr)
	return s
}

func (l *lab) addEvil(offset time.Duration) *ntpserv.Server {
	addr := ipv4.Addr{6, 6, 6, l.nextIP}
	l.nextIP++
	h := l.net.MustAddHost(addr, simnet.HostConfig{})
	s, err := ntpserv.New(h, ntpserv.Config{Offset: offset})
	if err != nil {
		l.t.Fatal(err)
	}
	l.evil = append(l.evil, s)
	l.eAddrs = append(l.eAddrs, addr)
	return s
}

// syncPool rebuilds the pool.ntp.org zone from the honest servers.
func (l *lab) syncPool() {
	l.auth.AddPool(&dnsauth.Pool{Name: "pool.ntp.org", Addrs: append([]ipv4.Addr(nil), l.hAddrs...), PerResponse: 4, TTL: 150})
}

// poisonCache plants attacker addresses for pool.ntp.org directly into the
// resolver cache (the poisoning pipeline itself is exercised in
// internal/attack; here we test client reaction).
func (l *lab) poisonCache(ttl uint32) {
	l.auth.AddPool(&dnsauth.Pool{Name: "pool.ntp.org", Addrs: append([]ipv4.Addr(nil), l.eAddrs...), PerResponse: len(l.eAddrs), TTL: ttl})
}

func (l *lab) newClient(prof Profile, clockErr time.Duration) *Client {
	addr := ipv4.Addr{192, 0, 2, 100 + l.nextIP}
	l.nextIP++
	h := l.net.MustAddHost(addr, simnet.HostConfig{})
	l.clients++
	return New(h, prof, resAddr, "pool.ntp.org", clockErr, int64(l.clients))
}

func TestNTPdBootSynchronises(t *testing.T) {
	l := newLab(t, 12)
	c := l.newClient(ProfileNTPd, -300*time.Second)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	l.clk.RunFor(20 * time.Minute)
	if off := c.ClockOffset(); abs(off) > time.Second {
		t.Errorf("clock offset = %v after boot, want ≈0", off)
	}
	if len(c.Steps) == 0 {
		t.Fatal("no clock steps recorded")
	}
	if c.MobilizedCount() < ProfileNTPd.TargetServers {
		t.Errorf("mobilized = %d, want %d", c.MobilizedCount(), ProfileNTPd.TargetServers)
	}
}

func TestSNTPBootSynchronises(t *testing.T) {
	l := newLab(t, 8)
	c := l.newClient(ProfileSystemd, 45*time.Second)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	l.clk.RunFor(5 * time.Minute)
	if off := c.ClockOffset(); abs(off) > time.Second {
		t.Errorf("clock offset = %v, want ≈0", off)
	}
	if c.MobilizedCount() != 1 {
		t.Errorf("SNTP mobilized = %d, want 1", c.MobilizedCount())
	}
}

func TestBootTimePoisoningShiftsAllProfiles(t *testing.T) {
	// Table I: every client implementation is vulnerable at boot-time.
	for _, pu := range AllProfiles() {
		pu := pu
		t.Run(pu.Profile.Name, func(t *testing.T) {
			l := newLab(t, 8)
			for i := 0; i < 4; i++ {
				l.addEvil(-500 * time.Second)
			}
			l.poisonCache(86400) // resolver cache poisoned before boot
			c := l.newClient(pu.Profile, 0)
			if err := c.Start(); err != nil {
				t.Fatal(err)
			}
			l.clk.RunFor(30 * time.Minute)
			off := c.ClockOffset()
			if off > -499*time.Second || off < -501*time.Second {
				t.Errorf("%s: offset = %v, want ≈ −500 s", pu.Profile.Name, off)
			}
		})
	}
}

func TestMajorityHonestPreventsShift(t *testing.T) {
	// With honest majority, a minority of attacker servers cannot shift
	// the ntpd client (the property Chronos relies on).
	l := newLab(t, 4)
	for i := 0; i < 2; i++ {
		l.addEvil(-500 * time.Second)
	}
	// Pool mixes 4 honest + 2 evil.
	mixed := append(append([]ipv4.Addr(nil), l.hAddrs...), l.eAddrs...)
	l.auth.AddPool(&dnsauth.Pool{Name: "pool.ntp.org", Addrs: mixed, PerResponse: 6, TTL: 150})
	c := l.newClient(ProfileNTPd, 0)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	l.clk.RunFor(30 * time.Minute)
	if off := abs(c.ClockOffset()); off > time.Second {
		t.Errorf("offset = %v with honest majority, want ≈0", c.ClockOffset())
	}
}

func TestUnreachableServersDemobilized(t *testing.T) {
	l := newLab(t, 8)
	c := l.newClient(ProfileNTPd, 0)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	l.clk.RunFor(10 * time.Minute)
	before := c.MobilizedCount()
	if before < 6 {
		t.Fatalf("mobilized = %d before attack", before)
	}
	// Rate-limit every honest server against the client (simulating the
	// spoofed flood) by driving the server-side limiter directly.
	for _, s := range l.honest {
		floodServer(l, s, clientOf(c))
	}
	l.clk.RunFor(30 * time.Minute)
	// All upstreams are starved, so usable associations collapse. (The
	// client keeps re-mobilising pool servers from DNS — they are still
	// listed — but they never answer, so they are not usable.)
	if got := c.UsableCount(); got > 1 {
		t.Errorf("usable = %d after flood (before: %d mobilized), want ≤1", got, before)
	}
	demob := 0
	for _, e := range c.Events {
		if e.Kind == EventDemobilize {
			demob++
		}
	}
	if demob < 4 {
		t.Errorf("demobilize events = %d, want ≥4", demob)
	}
}

func TestRuntimeRequeryAfterStarvation(t *testing.T) {
	// ntpd re-queries DNS once usable servers drop below MinServers; the
	// poisoned cache then redirects it to attacker servers (−500 s).
	l := newLab(t, 8)
	for i := 0; i < 4; i++ {
		l.addEvil(-500 * time.Second)
	}
	c := l.newClient(ProfileNTPd, 0)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	l.clk.RunFor(15 * time.Minute) // boot and sync honestly
	if abs(c.ClockOffset()) > time.Second {
		t.Fatalf("client did not sync honestly first: %v", c.ClockOffset())
	}
	lookupsBefore := c.DNSLookups
	// Poison the future: DNS now returns attacker servers.
	l.poisonCache(86400)
	l.res.Evict("pool.ntp.org", 1)
	// Starve all current upstreams.
	for _, s := range l.honest {
		floodServer(l, s, clientOf(c))
	}
	l.clk.RunFor(90 * time.Minute)
	if c.DNSLookups <= lookupsBefore {
		t.Fatal("client never re-queried DNS at run-time")
	}
	off := c.ClockOffset()
	if off > -499*time.Second || off < -501*time.Second {
		t.Errorf("offset = %v, want ≈ −500 s after run-time attack", off)
	}
}

func TestOpenNTPDNoRuntimeLookup(t *testing.T) {
	l := newLab(t, 8)
	c := l.newClient(ProfileOpenNTPD, 0)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	l.clk.RunFor(15 * time.Minute)
	lookups := c.DNSLookups
	for _, s := range l.honest {
		floodServer(l, s, clientOf(c))
	}
	l.clk.RunFor(60 * time.Minute)
	if c.DNSLookups != lookups {
		t.Errorf("openntpd issued %d run-time lookups, want 0", c.DNSLookups-lookups)
	}
	// Clock simply stops being disciplined; no shift.
	if abs(c.ClockOffset()) > time.Second {
		t.Errorf("offset = %v, want unchanged", c.ClockOffset())
	}
}

func TestSystemdUsesCachedAddressesBeforeDNS(t *testing.T) {
	l := newLab(t, 8)
	c := l.newClient(ProfileSystemd, 0)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	l.clk.RunFor(5 * time.Minute)
	lookups := c.DNSLookups
	first := c.Selected()
	if first.IsZero() {
		t.Fatal("no server selected")
	}
	// Kill only the current server.
	for _, s := range l.honest {
		if s.Addr() == first {
			floodServer(l, s, clientOf(c))
		}
	}
	l.clk.RunFor(90 * time.Minute)
	if c.Selected() == first || c.Selected().IsZero() {
		t.Fatalf("client did not move off dead server (selected %v)", c.Selected())
	}
	if c.DNSLookups != lookups {
		t.Errorf("systemd did DNS lookup despite cached addresses (%d new)", c.DNSLookups-lookups)
	}
}

func TestNtpdateOneShot(t *testing.T) {
	l := newLab(t, 4)
	c := l.newClient(ProfileNtpdate, -42*time.Second)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	l.clk.RunFor(2 * time.Minute)
	if !c.Done {
		t.Fatal("ntpdate did not finish")
	}
	if abs(c.ClockOffset()) > time.Second {
		t.Errorf("offset = %v after one-shot sync", c.ClockOffset())
	}
	steps := len(c.Steps)
	l.clk.RunFor(30 * time.Minute)
	if len(c.Steps) != steps {
		t.Error("one-shot client kept adjusting after Done")
	}
}

func TestRefIDLeaksSelectedSource(t *testing.T) {
	l := newLab(t, 8)
	c := l.newClient(ProfileNTPd, 0)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	l.clk.RunFor(20 * time.Minute)
	if c.Selected().IsZero() {
		t.Fatal("no sync source selected")
	}
	// Third party queries the client (which acts as a server).
	probe := l.net.MustAddHost(ipv4.MustParseAddr("203.0.113.99"), simnet.HostConfig{})
	var leaked ipv4.Addr
	port := probe.AllocPort()
	probe.HandleUDP(port, func(_ ipv4.Addr, _ uint16, payload []byte) {
		if p, err := ntpwire.Unmarshal(payload); err == nil {
			if a, ok := p.RefIDAddr(); ok {
				leaked = a
			}
		}
	})
	q := ntpwire.NewClientPacket(l.clk.Now())
	probe.SendUDP(clientOf(c), port, ntpwire.Port, q.Marshal())
	l.clk.RunFor(5 * time.Second)
	if leaked != c.Selected() {
		t.Errorf("leaked refid = %v, selected = %v", leaked, c.Selected())
	}
}

func TestSNTPClientDoesNotServe(t *testing.T) {
	l := newLab(t, 4)
	c := l.newClient(ProfileSystemd, 0)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	l.clk.RunFor(5 * time.Minute)
	probe := l.net.MustAddHost(ipv4.MustParseAddr("203.0.113.99"), simnet.HostConfig{})
	answered := false
	port := probe.AllocPort()
	probe.HandleUDP(port, func(ipv4.Addr, uint16, []byte) { answered = true })
	q := ntpwire.NewClientPacket(l.clk.Now())
	probe.SendUDP(clientOf(c), port, ntpwire.Port, q.Marshal())
	l.clk.RunFor(5 * time.Second)
	if answered {
		t.Error("SNTP client answered a mode-3 query")
	}
}

func TestPanicThresholdBlocksHugeShiftAfterSync(t *testing.T) {
	l := newLab(t, 8)
	for i := 0; i < 6; i++ {
		l.addEvil(-2000 * time.Second) // beyond ntpd's 1000 s panic limit
	}
	c := l.newClient(ProfileNTPd, 0)
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	l.clk.RunFor(15 * time.Minute) // sync honestly
	l.poisonCache(86400)
	l.res.Evict("pool.ntp.org", 1)
	for _, s := range l.honest {
		floodServer(l, s, clientOf(c))
	}
	l.clk.RunFor(90 * time.Minute)
	if abs(c.ClockOffset()) > time.Second {
		t.Errorf("offset = %v; panic threshold should have blocked ±2000 s", c.ClockOffset())
	}
	var panicked bool
	for _, e := range c.Events {
		if e.Kind == EventPanic {
			panicked = true
		}
	}
	if !panicked {
		t.Error("no panic event logged")
	}
}

func TestEventStringsNonEmpty(t *testing.T) {
	kinds := []EventKind{EventDNSLookup, EventMobilize, EventDemobilize, EventStep, EventPanic, EventKoD, EventKind(99)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Errorf("empty string for kind %d", k)
		}
	}
	// An empty note leaves no trailing separator, and demobilisations,
	// steps and panics render their values as the log once formatted
	// them eagerly.
	for _, tc := range []struct {
		e    Event
		want string
	}{
		{Event{Kind: EventMobilize, Note: "revived"}, "00:00:00 mobilize    198.51.100.53 revived"},
		{Event{Kind: EventMobilize}, "00:00:00 mobilize    198.51.100.53"},
		{Event{Kind: EventDemobilize, Count: 3}, "00:00:00 demobilize  198.51.100.53 after 3 misses"},
		{Event{Kind: EventStep, Count: 3, Offset: -500 * time.Second}, "00:00:00 step        198.51.100.53 -8m20s (3 sources)"},
		{Event{Kind: EventPanic, Offset: 2000 * time.Second}, "00:00:00 panic       198.51.100.53 offset 33m20s exceeds panic threshold"},
	} {
		tc.e.At, tc.e.Addr = t0, nsAddr
		if got := tc.e.String(); got != tc.want {
			t.Errorf("%+v: event string %q, want %q", tc.e, got, tc.want)
		}
	}
}

// clientOf returns the client's host address.
func clientOf(c *Client) ipv4.Addr { return c.host.Addr() }

// floodServer makes srv rate-limit victim by injecting spoofed mode-3
// queries at high rate for a sustained period, re-poked periodically so the
// hold-down never expires (the attacker's cheap background flood).
func floodServer(l *lab, srv *ntpserv.Server, victim ipv4.Addr) {
	q := ntpwire.NewClientPacket(l.clk.Now()).Marshal()
	inject := func() {
		d := buildSpoofed(victim, srv.Addr(), q)
		l.net.Inject(d)
	}
	// Initial burst (beyond the 12-token bucket) to trip the limiter.
	for i := 0; i < 40; i++ {
		i := i
		l.clk.Schedule(time.Duration(i)*100*time.Millisecond, inject)
	}
	// Periodic re-poke (well inside the 60 s hold-down) for 3 hours.
	tk := l.clk.Tick(20*time.Second, inject)
	l.clk.Schedule(3*time.Hour, tk.Stop)
}

// TestProfileByName: every Table I profile resolves under its CLI
// spelling, case-insensitively; unknown names are rejected.
func TestProfileByName(t *testing.T) {
	for _, name := range []string{"ntpd", "chrony", "openntpd", "ntpdate", "android", "ntpclient", "systemd", "systemd-timesyncd", "NTPd", "Chrony"} {
		if _, err := ProfileByName(name); err != nil {
			t.Errorf("ProfileByName(%q): %v", name, err)
		}
	}
	// Round trip: every registered profile's own Name resolves back to
	// the identical profile (the campaign Spec shim depends on this).
	for _, pu := range AllProfiles() {
		got, err := ProfileByName(pu.Profile.Name)
		if err != nil {
			t.Errorf("ProfileByName(%q): %v", pu.Profile.Name, err)
		} else if got != pu.Profile {
			t.Errorf("ProfileByName(%q) returned a different profile", pu.Profile.Name)
		}
	}
	if _, err := ProfileByName("sundial"); err == nil {
		t.Error("unknown profile accepted")
	}
}

// reset rewinds the lab as the lab pool does between runs: the clock,
// the network, every host and server (re-attaching any a run detached),
// the nameserver's pool and the resolver.
func (l *lab) reset() {
	l.clk.Reset(t0)
	l.net.Reset()
	for _, h := range []*simnet.Host{l.auth.Host(), l.res.Host()} {
		h.Reset(simnet.HostConfig{})
	}
	if err := l.auth.Reset(dnsauth.Config{}); err != nil {
		l.t.Fatal(err)
	}
	l.syncPool()
	if err := l.res.Reset(dnsres.Config{Delegations: map[string]ipv4.Addr{"ntp.org": nsAddr}}); err != nil {
		l.t.Fatal(err)
	}
	for _, s := range l.honest {
		if l.net.Host(s.Addr()) == nil {
			if err := l.net.Reattach(s.Host(), simnet.HostConfig{}); err != nil {
				l.t.Fatal(err)
			}
		} else {
			s.Host().Reset(simnet.HostConfig{})
		}
		if err := s.Reset(ntpserv.Config{RateLimit: ntpserv.RateLimitConfig{Enabled: true}}); err != nil {
			l.t.Fatal(err)
		}
	}
}

// TestClientResetIsFreshClient: a client dirtied by a run under another
// profile — booted, synchronised and stepped, its server lost to an
// outage, backed off or done, a lookup or polls in flight — and then
// reset with its host and lab behaves exactly like a New client under the
// same traffic: the same sync source from the start, the same log, steps,
// lookups and clock. A dirtied client that is not reset behaves
// differently, so the probe sees that state.
func TestClientResetIsFreshClient(t *testing.T) {
	probe := func(l *lab, c *Client) string {
		var b strings.Builder
		err := c.Start()
		fmt.Fprintf(&b, "start %v, source %v\n", err, c.Selected())
		l.clk.RunFor(20 * time.Minute)
		// Lose the sync source for a while: misses, backoff, demobilising
		// and the cached addresses come into play.
		if sel := c.Selected(); !sel.IsZero() {
			l.net.RemoveHost(sel)
			l.clk.RunFor(40 * time.Minute)
		}
		fmt.Fprintf(&b, "source %v, offset %v, lookups %d, usable %d, mobilised %d, done %t\n",
			c.Selected(), c.ClockOffset(), c.DNSLookups, c.UsableCount(), c.MobilizedCount(), c.Done)
		for _, e := range c.Events {
			fmt.Fprintln(&b, e)
		}
		for _, s := range c.Steps {
			fmt.Fprintf(&b, "%+v\n", s)
		}
		return b.String()
	}
	for _, tc := range []struct{ dirty, prof Profile }{
		{ProfileNTPd, ProfileSystemd},
		{ProfileSystemd, ProfileSystemd},
		{ProfileNtpdate, ProfileNtpdate},
		{ProfileSystemd, ProfileNTPd},
		{ProfileChrony, ProfileAndroid},
	} {
		fresh := newLab(t, 12)
		want := probe(fresh, fresh.newClient(tc.prof, -300*time.Second))
		dirtied := func() (*lab, *Client) {
			l := newLab(t, 12)
			c := l.newClient(tc.dirty, 45*time.Second)
			if got := probe(l, c); got == want {
				t.Fatalf("%s run probes like the %s one it should dirty", tc.dirty.Name, tc.prof.Name)
			}
			l.clk.RunFor(64*time.Second + 15*time.Millisecond) // leave a poll or lookup in flight
			l.reset()
			c.host.Reset(simnet.HostConfig{})
			return l, c
		}
		l, c := dirtied()
		c.Reset(tc.prof, resAddr, "pool.ntp.org", -300*time.Second, 1)
		if got := probe(l, c); got != want {
			t.Errorf("%s client reset to %s:\n%s\nwant (a New client):\n%s", tc.dirty.Name, tc.prof.Name, got, want)
		}
		if got := probe(dirtied()); got == want {
			t.Errorf("a dirtied %s client that was not reset probes like a fresh %s one:\n%s", tc.dirty.Name, tc.prof.Name, got)
		}
	}
}
