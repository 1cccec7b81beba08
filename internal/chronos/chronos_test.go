package chronos

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"dnstime/internal/dnsauth"
	"dnstime/internal/dnsres"
	"dnstime/internal/ipv4"
	"dnstime/internal/ntpserv"
	"dnstime/internal/simclock"
	"dnstime/internal/simnet"
)

var (
	t0      = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	nsAddr  = ipv4.MustParseAddr("198.51.100.53")
	resAddr = ipv4.MustParseAddr("192.0.2.53")
)

type lab struct {
	t      *testing.T
	clk    *simclock.Clock
	net    *simnet.Network
	auth   *dnsauth.Server
	res    *dnsres.Resolver
	hAddrs []ipv4.Addr
	eAddrs []ipv4.Addr
	next   byte
	honest []*ntpserv.Server
}

func newLab(t *testing.T, honest int) *lab {
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
	l := &lab{t: t, clk: clk, net: n, auth: auth, res: res, next: 1}
	for i := 0; i < honest; i++ {
		addr := ipv4.Addr{10, 0, byte(i >> 8), byte(i)}
		h := n.MustAddHost(addr, simnet.HostConfig{})
		s, err := ntpserv.New(h, ntpserv.Config{})
		if err != nil {
			t.Fatal(err)
		}
		l.hAddrs = append(l.hAddrs, addr)
		l.honest = append(l.honest, s)
	}
	l.auth.AddPool(&dnsauth.Pool{Name: "pool.ntp.org", Addrs: l.hAddrs, PerResponse: 4, TTL: 150})
	return l
}

func (l *lab) addEvil(count int, offset time.Duration) {
	for i := 0; i < count; i++ {
		addr := ipv4.Addr{6, 6, byte(i >> 8), byte(i)}
		h := l.net.MustAddHost(addr, simnet.HostConfig{})
		if _, err := ntpserv.New(h, ntpserv.Config{Offset: offset}); err != nil {
			l.t.Fatal(err)
		}
		l.eAddrs = append(l.eAddrs, addr)
	}
}

func (l *lab) client(cfg Config) *Client {
	host := l.net.MustAddHost(ipv4.MustParseAddr("192.0.2.99"), simnet.HostConfig{})
	return New(host, cfg, resAddr, 0)
}

func TestPoolGenerationUnionsHourlyQueries(t *testing.T) {
	l := newLab(t, 40)
	c := l.client(Config{Seed: 1})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	l.clk.RunFor(24*time.Hour + time.Minute)
	// 24 queries × 4 fresh addresses each (rotating through 40 servers):
	// the pool converges to the whole population.
	if got := c.PoolSize(); got != 40 {
		t.Errorf("pool size = %d, want 40", got)
	}
	if c.PoolQueries < 20 {
		t.Errorf("pool queries = %d, want ≈24", c.PoolQueries)
	}
}

func TestPoolStopsGrowingAfter24Queries(t *testing.T) {
	l := newLab(t, 40)
	c := l.client(Config{Seed: 1})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	l.clk.RunFor(30 * time.Hour)
	q := c.PoolQueries
	l.clk.RunFor(10 * time.Hour)
	if c.PoolQueries != q {
		t.Errorf("pool queries grew past 24: %d -> %d", q, c.PoolQueries)
	}
}

func TestHonestPoolKeepsClockCorrect(t *testing.T) {
	l := newLab(t, 30)
	c := l.client(Config{Seed: 2})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	l.clk.RunFor(6 * time.Hour)
	if off := absDur(c.ClockOffset()); off > 100*time.Millisecond {
		t.Errorf("offset = %v with honest pool, want ≈0", c.ClockOffset())
	}
	// Rounds should be normal, not panic.
	var panics int
	for _, r := range c.Rounds {
		if r.Kind == RoundPanic {
			panics++
		}
	}
	if panics > len(c.Rounds)/4 {
		t.Errorf("%d/%d rounds panicked with an honest pool", panics, len(c.Rounds))
	}
}

func TestMinorityAttackerCannotShift(t *testing.T) {
	// Attacker controls < 2/3 of the pool: Chronos holds (its design
	// guarantee, which the DNS attack bypasses rather than breaks).
	l := newLab(t, 60)
	l.addEvil(20, -500*time.Second)
	mixed := append(append([]ipv4.Addr(nil), l.hAddrs...), l.eAddrs...)
	l.auth.AddPool(&dnsauth.Pool{Name: "pool.ntp.org", Addrs: mixed, PerResponse: 4, TTL: 150})
	c := l.client(Config{Seed: 3})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	l.clk.RunFor(26 * time.Hour)
	if off := absDur(c.ClockOffset()); off > time.Second {
		t.Errorf("offset = %v with minority attacker, want ≈0", c.ClockOffset())
	}
}

func TestTwoThirdsAttackerShiftsViaPanic(t *testing.T) {
	// Attacker controls ≥ 2/3 of the pool (the post-poisoning situation):
	// the panic-mode middle third is attacker-only and the clock shifts.
	l := newLab(t, 10)
	l.addEvil(89, -500*time.Second)
	mixed := append(append([]ipv4.Addr(nil), l.hAddrs...), l.eAddrs...)
	l.auth.AddPool(&dnsauth.Pool{Name: "pool.ntp.org", Addrs: mixed, PerResponse: len(mixed), TTL: 150})
	c := l.client(Config{Seed: 4})
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	l.clk.RunFor(2 * time.Hour)
	off := c.ClockOffset()
	if off > -499*time.Second || off < -501*time.Second {
		t.Errorf("offset = %v, want ≈ −500 s with 2/3 pool control", off)
	}
	var sawPanic bool
	for _, r := range c.Rounds {
		if r.Kind == RoundPanic {
			sawPanic = true
		}
	}
	if !sawPanic {
		t.Error("no panic round recorded during the shift")
	}
}

func TestAttackBoundMatchesPaper(t *testing.T) {
	// §VI-C: 2/3·(89+4N) ≤ 89 ⇒ N ≤ 11.
	if got := AttackBound(4, 89); got != 11 {
		t.Errorf("AttackBound(4, 89) = %d, want 11", got)
	}
}

func TestAttackBoundTable(t *testing.T) {
	tests := []struct {
		perQuery, spoofed, want int
	}{
		{4, 89, 11},
		{4, 30, 3}, // 2(30+4N)≤90 ⇒ N ≤ 3.75
		{8, 89, 5}, // 2(89+8N)≤267 ⇒ N ≤ 5.5
		{4, 8, 1},  // 2(8+4N)≤24 ⇒ N ≤ 1
		{4, 2, 0},  // one spoofed pair still beats zero honest queries
	}
	for _, tt := range tests {
		if got := AttackBound(tt.perQuery, tt.spoofed); got != tt.want {
			t.Errorf("AttackBound(%d,%d) = %d, want %d", tt.perQuery, tt.spoofed, got, tt.want)
		}
	}
}

func TestAttackBoundConsistentWithControlsPool(t *testing.T) {
	for perQuery := 1; perQuery <= 8; perQuery++ {
		for spoofed := 1; spoofed <= 120; spoofed++ {
			n := AttackBound(perQuery, spoofed)
			if n >= 0 && !ControlsPool(spoofed, spoofed+perQuery*n) {
				t.Fatalf("AttackBound(%d,%d)=%d does not control pool", perQuery, spoofed, n)
			}
			if ControlsPool(spoofed, spoofed+perQuery*(n+1)) {
				t.Fatalf("AttackBound(%d,%d)=%d is not maximal", perQuery, spoofed, n)
			}
		}
	}
}

func TestControlsPool(t *testing.T) {
	if !ControlsPool(2, 3) || !ControlsPool(89, 133) {
		t.Error("2/3 control not recognised")
	}
	if ControlsPool(1, 2) || ControlsPool(89, 134) {
		t.Error("sub-2/3 control misclassified")
	}
}

func TestRoundKindString(t *testing.T) {
	for _, k := range []RoundKind{RoundNormal, RoundPanic, RoundInconclusive, RoundKind(9)} {
		if k.String() == "" {
			t.Errorf("empty string for %d", k)
		}
	}
}

// reset rewinds the lab as the lab pool does between runs: the clock,
// the network, the nameserver, the resolver and every honest server,
// their hosts included.
func (l *lab) reset() {
	l.clk.Reset(t0)
	l.net.Reset()
	l.auth.Host().Reset(simnet.HostConfig{})
	if err := l.auth.Reset(dnsauth.Config{}); err != nil {
		l.t.Fatal(err)
	}
	l.auth.AddPool(&dnsauth.Pool{Name: "pool.ntp.org", Addrs: l.hAddrs, PerResponse: 4, TTL: 150})
	l.res.Host().Reset(simnet.HostConfig{})
	if err := l.res.Reset(dnsres.Config{Delegations: map[string]ipv4.Addr{"ntp.org": nsAddr}}); err != nil {
		l.t.Fatal(err)
	}
	for _, s := range l.honest {
		s.Host().Reset(simnet.HostConfig{})
		if err := s.Reset(ntpserv.Config{}); err != nil {
			l.t.Fatal(err)
		}
	}
}

// TestClientResetIsFreshClient: a Chronos client dirtied by a run under
// another config — its pool generated, rounds logged, queries in flight —
// and then reset with its host and lab behaves exactly like a New client
// under the same traffic: the same DNS queries (TXIDs included), pool,
// sampled servers, rounds and clock. A dirtied client that is not reset behaves
// differently, so the probe sees that state.
func TestClientResetIsFreshClient(t *testing.T) {
	cfg := Config{Seed: 5, QueryInterval: 10 * time.Minute, QueryCount: 6}
	probe := func(l *lab, c *Client) string {
		var b strings.Builder
		l.res.Host().ObserveRaw(func(p *ipv4.Packet) {
			if p.Src == c.host.Addr() {
				fmt.Fprintf(&b, "query %x\n", p.Payload)
			}
		})
		c.host.ObserveRaw(func(p *ipv4.Packet) {
			if p.Src != resAddr {
				fmt.Fprintf(&b, "reply from %v\n", p.Src)
			}
		})
		err := c.Start()
		l.clk.RunFor(3 * time.Hour)
		fmt.Fprintf(&b, "start %v, pool %d, pool queries %d, offset %v\n", err, c.PoolSize(), c.PoolQueries, c.ClockOffset())
		for _, r := range c.Rounds {
			fmt.Fprintf(&b, "%+v\n", r)
		}
		return b.String()
	}
	fresh := newLab(t, 40)
	want := probe(fresh, fresh.client(cfg))
	dirtied := func() (*lab, *Client) {
		l := newLab(t, 40)
		c := l.client(Config{Seed: 9, PollInterval: time.Minute})
		if got := probe(l, c); got == want {
			t.Fatal("the dirtying run probes like the fresh one")
		}
		l.clk.RunFor(time.Minute + 5*time.Millisecond) // leave a round in flight
		l.reset()
		c.host.Reset(simnet.HostConfig{})
		return l, c
	}
	l, c := dirtied()
	c.Reset(cfg, resAddr, 0)
	if got := probe(l, c); got != want {
		t.Errorf("reset client:\n%s\nwant (a New client):\n%s", got, want)
	}
	if got := probe(dirtied()); got == want {
		t.Errorf("a dirtied client that was not reset probes like a fresh one:\n%s", got)
	}
}

// TestSampleServersMatchesMathRand: sampleServers, which decides each
// Fisher–Yates draw from the client's Source with a table of Intn
// deciders, samples exactly what the same loop drawing rand.Intn on
// rand.New(rand.NewSource(seed)) samples, round after round while the
// pool grows from 1 to 120 servers (and its decider table with it), and
// leaves the stream where math/rand's is: the next draws agree.
func TestSampleServersMatchesMathRand(t *testing.T) {
	const rounds, maxPool, m = 60, 120, 15
	pool := make([]ipv4.Addr, maxPool)
	for i := range pool {
		pool[i] = ipv4.Addr{10, 1, byte(i >> 8), byte(i)}
	}
	for _, seed := range []int64{0, 1, -1, 500} {
		c := &Client{}
		c.src.Seed(seed)
		ref := rand.New(rand.NewSource(seed))
		for r := range rounds {
			c.poolOrder = pool[:1+r*(maxPool-1)/(rounds-1)]
			n := len(c.poolOrder)
			perm := make([]int, n)
			for i := 0; i < n; i++ {
				j := ref.Intn(i + 1)
				perm[i] = perm[j]
				perm[j] = i
			}
			k := min(m, n)
			want := make([]ipv4.Addr, k)
			for i, j := range perm[:k] {
				want[i] = c.poolOrder[j]
			}
			if got := c.sampleServers(k); !slices.Equal(got, want) {
				t.Fatalf("seed %d, round %d (pool %d): sampled %v, math/rand samples %v", seed, r, n, got, want)
			}
		}
		for i := range 3 {
			if got, want := c.src.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d: draw %d after the rounds is %d, math/rand's %d", seed, i, got, want)
			}
		}
	}
}
