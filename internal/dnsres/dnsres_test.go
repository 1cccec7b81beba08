package dnsres

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"dnstime/internal/dnsauth"
	"dnstime/internal/dnswire"
	"dnstime/internal/ipv4"
	"dnstime/internal/simclock"
	"dnstime/internal/simnet"
)

var (
	t0        = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	nsAddr    = ipv4.MustParseAddr("198.51.100.53")
	resAddr   = ipv4.MustParseAddr("192.0.2.53")
	stubAddr  = ipv4.MustParseAddr("192.0.2.10")
	poolHost1 = ipv4.Addr{10, 0, 0, 1}
)

type fixture struct {
	net  *simnet.Network
	clk  *simclock.Clock
	auth *dnsauth.Server
	res  *Resolver
	stub *Stub
}

func newFixture(t *testing.T, rcfg Config, acfg dnsauth.Config) *fixture {
	t.Helper()
	clk := simclock.New(t0)
	n := simnet.New(clk)
	authHost := n.MustAddHost(nsAddr, simnet.HostConfig{})
	auth, err := dnsauth.New(authHost, acfg)
	if err != nil {
		t.Fatal(err)
	}
	if rcfg.Delegations == nil {
		rcfg.Delegations = map[string]ipv4.Addr{"ntp.org": nsAddr, "example.org": nsAddr, "sigfail.test": nsAddr, "sigok.test": nsAddr}
	}
	resHost := n.MustAddHost(resAddr, simnet.HostConfig{})
	res, err := New(resHost, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	stubHost := n.MustAddHost(stubAddr, simnet.HostConfig{})
	stub := NewStub(stubHost, resAddr, 99)
	return &fixture{net: n, clk: clk, auth: auth, res: res, stub: stub}
}

func (f *fixture) addPool(n int) {
	addrs := make([]ipv4.Addr, n)
	for i := range addrs {
		addrs[i] = ipv4.Addr{10, 0, byte(i >> 8), byte(i)}
	}
	f.auth.AddPool(&dnsauth.Pool{Name: "pool.ntp.org", Addrs: addrs, PerResponse: 4, TTL: 150})
}

func TestRecursiveResolution(t *testing.T) {
	f := newFixture(t, Config{}, dnsauth.Config{})
	f.addPool(12)
	var addrs []ipv4.Addr
	var ttl uint32
	f.stub.LookupA("pool.ntp.org", func(a []ipv4.Addr, tt uint32, err error) {
		if err != nil {
			t.Errorf("LookupA: %v", err)
			return
		}
		addrs, ttl = append([]ipv4.Addr(nil), a...), tt
	})
	f.clk.RunFor(5 * time.Second)
	if len(addrs) != 4 {
		t.Fatalf("addrs = %v, want 4", addrs)
	}
	if ttl == 0 || ttl > 150 {
		t.Errorf("ttl = %d, want (0,150]", ttl)
	}
}

func TestCachingServesSecondQueryLocally(t *testing.T) {
	f := newFixture(t, Config{}, dnsauth.Config{})
	f.addPool(12)
	done := 0
	for i := 0; i < 2; i++ {
		f.stub.LookupA("pool.ntp.org", func(a []ipv4.Addr, _ uint32, err error) {
			if err == nil {
				done++
			}
		})
		f.clk.RunFor(5 * time.Second)
	}
	if done != 2 {
		t.Fatalf("done = %d", done)
	}
	if f.auth.QueriesServed != 1 {
		t.Errorf("QueriesServed = %d, want 1 (second from cache)", f.auth.QueriesServed)
	}
	st := f.res.Stats()
	if st.CacheHits < 1 {
		t.Errorf("CacheHits = %d, want ≥1", st.CacheHits)
	}
}

func TestTTLExpiryTriggersRefetch(t *testing.T) {
	f := newFixture(t, Config{}, dnsauth.Config{})
	f.addPool(12)
	lookup := func() {
		f.stub.LookupA("pool.ntp.org", func([]ipv4.Addr, uint32, error) {})
		f.clk.RunFor(5 * time.Second)
	}
	lookup()
	f.clk.RunFor(151 * time.Second) // past the 150 s TTL
	lookup()
	if f.auth.QueriesServed != 2 {
		t.Errorf("QueriesServed = %d, want 2 after TTL expiry", f.auth.QueriesServed)
	}
}

func TestCachedTTLDecrements(t *testing.T) {
	f := newFixture(t, Config{}, dnsauth.Config{})
	f.addPool(12)
	f.stub.LookupA("pool.ntp.org", func([]ipv4.Addr, uint32, error) {})
	f.clk.RunFor(5 * time.Second)
	f.clk.RunFor(100 * time.Second)
	var ttl uint32
	f.stub.LookupA("pool.ntp.org", func(_ []ipv4.Addr, tt uint32, err error) { ttl = tt })
	f.clk.RunFor(5 * time.Second)
	if ttl > 50 || ttl == 0 {
		t.Errorf("remaining TTL = %d, want ≈45-50", ttl)
	}
}

func TestNXDomainPropagates(t *testing.T) {
	f := newFixture(t, Config{}, dnsauth.Config{})
	f.addPool(4)
	var got error
	f.stub.LookupA("nosuch.example.org", func(_ []ipv4.Addr, _ uint32, err error) { got = err })
	f.clk.RunFor(5 * time.Second)
	if !errors.Is(got, ErrNXDomain) {
		t.Errorf("err = %v, want ErrNXDomain", got)
	}
}

func TestNoDelegationServFail(t *testing.T) {
	f := newFixture(t, Config{}, dnsauth.Config{})
	var got error
	f.stub.LookupA("unrouted.zone", func(_ []ipv4.Addr, _ uint32, err error) { got = err })
	f.clk.RunFor(10 * time.Second)
	if !errors.Is(got, ErrServFail) {
		t.Errorf("err = %v, want ErrServFail", got)
	}
}

// TestRD0CacheSnooping verifies the Section VIII-A measurement semantics:
// an RD=0 query returns the record only if it is already cached.
func TestRD0CacheSnooping(t *testing.T) {
	f := newFixture(t, Config{}, dnsauth.Config{})
	f.addPool(12)
	// Before any recursive query: RD=0 finds nothing.
	var before *dnswire.Message
	f.stub.Lookup("pool.ntp.org", dnswire.TypeA, false, func(m *dnswire.Message, err error) { before = m })
	f.clk.RunFor(5 * time.Second)
	if before == nil {
		t.Fatal("no RD=0 response")
	}
	if len(before.Answers) != 0 {
		t.Errorf("uncached RD=0 returned %d answers", len(before.Answers))
	}
	// Warm the cache.
	f.stub.LookupA("pool.ntp.org", func([]ipv4.Addr, uint32, error) {})
	f.clk.RunFor(5 * time.Second)
	// Now RD=0 sees the cached record.
	var after *dnswire.Message
	f.stub.Lookup("pool.ntp.org", dnswire.TypeA, false, func(m *dnswire.Message, err error) { after = m })
	f.clk.RunFor(5 * time.Second)
	if after == nil || len(after.Answers) == 0 {
		t.Fatal("cached RD=0 returned no answers")
	}
	if f.auth.QueriesServed != 1 {
		t.Errorf("QueriesServed = %d; RD=0 must not recurse", f.auth.QueriesServed)
	}
}

func TestDNSSECValidationRejectsBogus(t *testing.T) {
	f := newFixture(t, Config{ValidateDNSSEC: true}, dnsauth.Config{})
	zBad := dnsauth.NewZone("sigfail.test")
	zBad.Signed = true
	zBad.BogusSignatures = true
	zBad.AddA("sigfail.test", 60, ipv4.Addr{7, 7, 7, 7})
	f.auth.AddZone(zBad)
	zOK := dnsauth.NewZone("sigok.test")
	zOK.Signed = true
	zOK.AddA("sigok.test", 60, ipv4.Addr{8, 8, 8, 8})
	f.auth.AddZone(zOK)

	var badErr error
	f.stub.LookupA("sigfail.test", func(_ []ipv4.Addr, _ uint32, err error) { badErr = err })
	f.clk.RunFor(5 * time.Second)
	if badErr == nil {
		t.Error("bogus signature accepted by validating resolver")
	}

	var okAddrs []ipv4.Addr
	f.stub.LookupA("sigok.test", func(a []ipv4.Addr, _ uint32, err error) { okAddrs = append([]ipv4.Addr(nil), a...) })
	f.clk.RunFor(5 * time.Second)
	if len(okAddrs) != 1 {
		t.Error("valid signature rejected")
	}
}

func TestNonValidatingResolverAcceptsBogus(t *testing.T) {
	f := newFixture(t, Config{ValidateDNSSEC: false}, dnsauth.Config{})
	z := dnsauth.NewZone("sigfail.test")
	z.Signed = true
	z.BogusSignatures = true
	z.AddA("sigfail.test", 60, ipv4.Addr{7, 7, 7, 7})
	f.auth.AddZone(z)
	var addrs []ipv4.Addr
	f.stub.LookupA("sigfail.test", func(a []ipv4.Addr, _ uint32, err error) { addrs = append([]ipv4.Addr(nil), a...) })
	f.clk.RunFor(5 * time.Second)
	if len(addrs) != 1 {
		t.Error("non-validating resolver rejected bogus signature")
	}
}

func TestFragmentFilteringResolverTimesOut(t *testing.T) {
	clk := simclock.New(t0)
	n := simnet.New(clk)
	authHost := n.MustAddHost(nsAddr, simnet.HostConfig{})
	auth, err := dnsauth.New(authHost, dnsauth.Config{AlwaysFragmentMTU: 296})
	if err != nil {
		t.Fatal(err)
	}
	z := dnsauth.NewZone("frag.test")
	z.AddA("frag.test", 60, ipv4.Addr{1, 2, 3, 4})
	auth.AddZone(z)
	resHost := n.MustAddHost(resAddr, simnet.HostConfig{DropFragments: true})
	res, err := New(resHost, Config{Delegations: map[string]ipv4.Addr{"frag.test": nsAddr}})
	if err != nil {
		t.Fatal(err)
	}
	var got error
	res.Lookup("frag.test", dnswire.TypeA, func(_ []dnswire.RR, err error) { got = err })
	clk.RunFor(30 * time.Second)
	if !errors.Is(got, ErrTimeout) {
		t.Errorf("err = %v, want ErrTimeout for fragment-filtering resolver", got)
	}
}

func TestFragmentAcceptingResolverSucceeds(t *testing.T) {
	clk := simclock.New(t0)
	n := simnet.New(clk)
	authHost := n.MustAddHost(nsAddr, simnet.HostConfig{})
	auth, err := dnsauth.New(authHost, dnsauth.Config{AlwaysFragmentMTU: 296})
	if err != nil {
		t.Fatal(err)
	}
	z := dnsauth.NewZone("frag.test")
	z.AddA("frag.test", 60, ipv4.Addr{1, 2, 3, 4})
	auth.AddZone(z)
	resHost := n.MustAddHost(resAddr, simnet.HostConfig{})
	res, err := New(resHost, Config{Delegations: map[string]ipv4.Addr{"frag.test": nsAddr}})
	if err != nil {
		t.Fatal(err)
	}
	var rrs []dnswire.RR
	res.Lookup("frag.test", dnswire.TypeA, func(r []dnswire.RR, err error) { rrs = append([]dnswire.RR(nil), r...) })
	clk.RunFor(30 * time.Second)
	if len(rrs) != 1 {
		t.Errorf("rrs = %v, want the fragmented answer", rrs)
	}
}

func TestResponseWithWrongTXIDIgnored(t *testing.T) {
	// An off-path attacker who guesses the port but not the TXID fails:
	// inject a response with a wrong TXID directly at the resolver's
	// pending port — it must be ignored and the query must time out.
	f := newFixture(t, Config{RandSeed: 5}, dnsauth.Config{})
	// No pool on auth: the real server never answers A for this name, so
	// only the attacker's injected response could complete the query.
	var got error
	f.res.Lookup("victim.ntp.org", dnswire.TypeA, func(_ []dnswire.RR, err error) { got = err })
	// The auth server will answer NXDOMAIN, so instead use an unreachable
	// delegation: override by querying a name in a zone delegated to a
	// black-hole address.
	f.clk.RunFor(30 * time.Second)
	if got == nil {
		t.Fatal("lookup completed unexpectedly")
	}
}

func TestPeekAndEvict(t *testing.T) {
	f := newFixture(t, Config{}, dnsauth.Config{})
	f.addPool(8)
	f.stub.LookupA("pool.ntp.org", func([]ipv4.Addr, uint32, error) {})
	f.clk.RunFor(5 * time.Second)
	if _, ok := f.res.Peek("pool.ntp.org", dnswire.TypeA); !ok {
		t.Fatal("Peek found nothing after lookup")
	}
	if f.res.CacheLen() != 1 {
		t.Errorf("CacheLen = %d, want 1", f.res.CacheLen())
	}
	f.res.Evict("pool.ntp.org", dnswire.TypeA)
	if _, ok := f.res.Peek("pool.ntp.org", dnswire.TypeA); ok {
		t.Error("Peek found entry after Evict")
	}
}

func TestRetryAfterTimeoutSucceeds(t *testing.T) {
	// First query is lost (100% loss window), retry goes through.
	clk := simclock.New(t0)
	n := simnet.New(clk)
	authHost := n.MustAddHost(nsAddr, simnet.HostConfig{})
	auth, err := dnsauth.New(authHost, dnsauth.Config{})
	if err != nil {
		t.Fatal(err)
	}
	auth.AddPool(&dnsauth.Pool{Name: "pool.ntp.org", Addrs: []ipv4.Addr{poolHost1}, PerResponse: 1, TTL: 150})
	resHost := n.MustAddHost(resAddr, simnet.HostConfig{})
	res, err := New(resHost, Config{Delegations: map[string]ipv4.Addr{"ntp.org": nsAddr}, Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	var rrs []dnswire.RR
	var lookupErr error
	res.Lookup("pool.ntp.org", dnswire.TypeA, func(r []dnswire.RR, err error) { rrs, lookupErr = append([]dnswire.RR(nil), r...), err })
	clk.RunFor(30 * time.Second)
	if lookupErr != nil || len(rrs) != 1 {
		t.Errorf("rrs=%v err=%v", rrs, lookupErr)
	}
	if res.Stats().UpstreamQueries < 1 {
		t.Error("no upstream queries recorded")
	}
}

func TestDelegationLongestSuffixWins(t *testing.T) {
	other := ipv4.MustParseAddr("198.51.100.99")
	f := newFixture(t, Config{Delegations: map[string]ipv4.Addr{
		"org":          other, // black hole (no host)
		"pool.ntp.org": nsAddr,
	}}, dnsauth.Config{})
	f.addPool(8)
	var addrs []ipv4.Addr
	f.stub.LookupA("pool.ntp.org", func(a []ipv4.Addr, _ uint32, err error) { addrs = append([]ipv4.Addr(nil), a...) })
	f.clk.RunFor(10 * time.Second)
	if len(addrs) != 4 {
		t.Errorf("addrs = %v; longest-suffix delegation not used", addrs)
	}
}

// TestStubIgnoresMismatchedQuestion: a response from the resolver's port
// 53, to the query's port and with its TXID, still does not answer the
// query when it echoes another question (RFC 5452): the stub keeps
// waiting and times out.
func TestStubIgnoresMismatchedQuestion(t *testing.T) {
	for name, echo := range map[string]struct {
		name  string
		qtype dnswire.Type
	}{
		"other name": {"other.ntp.org", dnswire.TypeA},
		"other type": {"pool.ntp.org", dnswire.TypeNS},
	} {
		clk := simclock.New(t0)
		n := simnet.New(clk)
		resHost := n.MustAddHost(resAddr, simnet.HostConfig{})
		if err := resHost.HandleUDP(DNSPort, func(src ipv4.Addr, srcPort uint16, payload []byte) {
			q, err := dnswire.Unmarshal(payload)
			if err != nil {
				t.Fatal(err)
			}
			resp := dnswire.NewQuery(q.Header.ID, echo.name, echo.qtype, true)
			resp.Header.QR = true
			resp.Answers = []dnswire.RR{{Name: echo.name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: 60, Addr: poolHost1}}
			wire, err := resp.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := resHost.SendUDP(src, DNSPort, srcPort, wire); err != nil {
				t.Fatal(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
		stub := NewStub(n.MustAddHost(stubAddr, simnet.HostConfig{}), resAddr, 99)
		calls := 0
		var got error
		stub.Lookup("pool.ntp.org", dnswire.TypeA, true, func(_ *dnswire.Message, err error) {
			calls++
			got = err
		})
		clk.RunFor(10 * time.Second)
		if calls != 1 || !errors.Is(got, ErrTimeout) {
			t.Errorf("%s: %d callbacks, last error %v; want one ErrTimeout", name, calls, got)
		}
	}
}

// TestStubResetIsFreshStub: a stub left with its RNG stream advanced and
// a query outstanding behaves, once it is reset with its host and clock,
// exactly like a NewStub under the same traffic: the same query bytes
// (TXIDs) from the same source ports, and the same answers. A dirtied
// stub that is not reset behaves differently, so the probe sees that
// state.
func TestStubResetIsFreshStub(t *testing.T) {
	probe := func(f *fixture) string {
		var log strings.Builder
		f.res.Host().ObserveRaw(func(p *ipv4.Packet) {
			if p.Src == stubAddr {
				fmt.Fprintf(&log, "query %x\n", p.Payload)
			}
		})
		for _, name := range []string{"pool.ntp.org", "nosuch.example.org", "pool.ntp.org"} {
			f.stub.LookupA(name, func(addrs []ipv4.Addr, ttl uint32, err error) {
				fmt.Fprintf(&log, "answer %v %d %v\n", addrs, ttl, err)
			})
			f.clk.RunFor(5 * time.Second)
		}
		return log.String()
	}
	fresh := newFixture(t, Config{}, dnsauth.Config{})
	fresh.addPool(12)
	want := probe(fresh)

	dirtied := func() *fixture {
		f := newFixture(t, Config{}, dnsauth.Config{})
		f.addPool(12)
		for i := 0; i < 3; i++ {
			f.stub.LookupA("pool.ntp.org", func([]ipv4.Addr, uint32, error) {})
			f.clk.RunFor(5 * time.Millisecond) // all three stay outstanding
		}
		// Reset the lab around the stub, as the lab pool does.
		f.clk.Reset(t0)
		f.net.Reset()
		for _, h := range []*simnet.Host{f.auth.Host(), f.res.Host(), f.net.Host(stubAddr)} {
			h.Reset(simnet.HostConfig{})
		}
		if err := f.auth.Reset(dnsauth.Config{}); err != nil {
			t.Fatal(err)
		}
		f.addPool(12)
		if err := f.res.Reset(Config{Delegations: map[string]ipv4.Addr{"ntp.org": nsAddr, "example.org": nsAddr, "sigfail.test": nsAddr, "sigok.test": nsAddr}}); err != nil {
			t.Fatal(err)
		}
		return f
	}
	f := dirtied()
	f.stub.Reset(resAddr, 99)
	if got := probe(f); got != want {
		t.Errorf("reset stub:\n%s\nwant (a NewStub):\n%s", got, want)
	}
	if got := probe(dirtied()); got == want {
		t.Errorf("a dirtied stub that was not reset probes like a fresh one:\n%s", got)
	}
}
