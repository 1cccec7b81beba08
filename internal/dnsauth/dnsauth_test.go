package dnsauth

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"dnstime/internal/dnswire"
	"dnstime/internal/ipv4"
	"dnstime/internal/simclock"
	"dnstime/internal/simnet"
)

var (
	t0     = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	nsAddr = ipv4.MustParseAddr("198.51.100.53")
	client = ipv4.MustParseAddr("192.0.2.10")
)

func newServer(t *testing.T, cfg Config) (*simnet.Network, *Server, *simnet.Host) {
	t.Helper()
	clk := simclock.New(t0)
	n := simnet.New(clk)
	nsHost := n.MustAddHost(nsAddr, simnet.HostConfig{})
	s, err := New(nsHost, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	c := n.MustAddHost(client, simnet.HostConfig{})
	return n, s, c
}

func poolAddrs(n int) []ipv4.Addr {
	out := make([]ipv4.Addr, n)
	for i := range out {
		out[i] = ipv4.Addr{10, 0, byte(i >> 8), byte(i)}
	}
	return out
}

func query(t *testing.T, n *simnet.Network, c *simnet.Host, name string, qtype dnswire.Type) *dnswire.Message {
	t.Helper()
	var got *dnswire.Message
	c.HandleUDP(5000, func(_ ipv4.Addr, _ uint16, payload []byte) {
		m, err := dnswire.Unmarshal(payload)
		if err != nil {
			t.Errorf("response unmarshal: %v", err)
			return
		}
		got = m
	})
	defer c.UnhandleUDP(5000)
	q := dnswire.NewQuery(77, name, qtype, true)
	wire, _ := q.Marshal()
	if _, err := c.SendUDP(nsAddr, 5000, DNSPort, wire); err != nil {
		t.Fatal(err)
	}
	n.Clock().RunFor(time.Second)
	return got
}

func TestPoolReturnsFourAddresses(t *testing.T) {
	n, s, c := newServer(t, Config{})
	s.AddPool(&Pool{Name: "pool.ntp.org", Addrs: poolAddrs(20), PerResponse: 4, TTL: 150})
	got := query(t, n, c, "pool.ntp.org", dnswire.TypeA)
	if got == nil {
		t.Fatal("no response")
	}
	addrs := got.AppendAddrsInAnswer(nil, "pool.ntp.org")
	if len(addrs) != 4 {
		t.Fatalf("got %d addresses, want 4", len(addrs))
	}
	if got.Answers[0].TTL != 150 {
		t.Errorf("TTL = %d, want 150", got.Answers[0].TTL)
	}
	if !got.Header.AA {
		t.Error("AA not set on authoritative answer")
	}
}

func TestPoolRoundRobinRotates(t *testing.T) {
	n, s, c := newServer(t, Config{})
	s.AddPool(&Pool{Name: "pool.ntp.org", Addrs: poolAddrs(12), PerResponse: 4, TTL: 150})
	first := query(t, n, c, "pool.ntp.org", dnswire.TypeA).AppendAddrsInAnswer(nil, "pool.ntp.org")
	second := query(t, n, c, "pool.ntp.org", dnswire.TypeA).AppendAddrsInAnswer(nil, "pool.ntp.org")
	if first[0] == second[0] {
		t.Error("round-robin cursor did not advance")
	}
}

func TestPoolServesSubZones(t *testing.T) {
	n, s, c := newServer(t, Config{})
	s.AddPool(&Pool{Name: "pool.ntp.org", Addrs: poolAddrs(8), PerResponse: 4, TTL: 150})
	for _, name := range []string{"0.pool.ntp.org", "2.pool.ntp.org", "de.pool.ntp.org"} {
		got := query(t, n, c, name, dnswire.TypeA)
		if got == nil || len(got.AppendAddrsInAnswer(nil, name)) != 4 {
			t.Errorf("%s: no pool answer", name)
		}
	}
}

func TestStaticZoneAnswers(t *testing.T) {
	n, s, c := newServer(t, Config{})
	z := NewZone("example.org")
	z.AddA("www.example.org", 3600, ipv4.Addr{5, 5, 5, 5})
	s.AddZone(z)
	got := query(t, n, c, "www.example.org", dnswire.TypeA)
	if got == nil {
		t.Fatal("no response")
	}
	addrs := got.AppendAddrsInAnswer(nil, "www.example.org")
	if len(addrs) != 1 || addrs[0] != (ipv4.Addr{5, 5, 5, 5}) {
		t.Errorf("answer = %v", addrs)
	}
}

func TestUnknownNameNXDomain(t *testing.T) {
	n, s, c := newServer(t, Config{})
	s.AddZone(NewZone("example.org"))
	got := query(t, n, c, "nosuch.elsewhere.net", dnswire.TypeA)
	if got == nil {
		t.Fatal("no response")
	}
	if got.Header.RCode != dnswire.RCodeNXDomain {
		t.Errorf("rcode = %d, want NXDOMAIN", got.Header.RCode)
	}
}

func TestSignedZoneCarriesRRSIG(t *testing.T) {
	n, s, c := newServer(t, Config{})
	z := NewZone("time.cloudflare.com")
	z.Signed = true
	z.AddA("time.cloudflare.com", 300, ipv4.Addr{162, 159, 200, 1})
	s.AddZone(z)
	got := query(t, n, c, "time.cloudflare.com", dnswire.TypeA)
	if got == nil {
		t.Fatal("no response")
	}
	var sig string
	for _, rr := range got.Answers {
		if rr.Type == dnswire.TypeRRSIG {
			sig = string(rr.Raw)
		}
	}
	if !strings.HasPrefix(sig, SigValid) {
		t.Errorf("RRSIG marker = %q, want prefix %q", sig, SigValid)
	}
}

func TestBogusSignatures(t *testing.T) {
	n, s, c := newServer(t, Config{})
	z := NewZone("sigfail.test")
	z.Signed = true
	z.BogusSignatures = true
	z.AddA("sigfail.test", 60, ipv4.Addr{7, 7, 7, 7})
	s.AddZone(z)
	got := query(t, n, c, "sigfail.test", dnswire.TypeA)
	var sig string
	for _, rr := range got.Answers {
		if rr.Type == dnswire.TypeRRSIG {
			sig = string(rr.Raw)
		}
	}
	if !strings.HasPrefix(sig, SigBogus) {
		t.Errorf("RRSIG marker = %q, want prefix %q", sig, SigBogus)
	}
}

func TestPaddingReachesTargetSize(t *testing.T) {
	n, s, c := newServer(t, Config{PadResponsesTo: 1200})
	z := NewZone("example.org")
	z.AddA("big.example.org", 60, ipv4.Addr{1, 1, 1, 1})
	s.AddZone(z)
	got := query(t, n, c, "big.example.org", dnswire.TypeA)
	if got == nil {
		t.Fatal("no response")
	}
	wire, err := got.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) < 1150 {
		t.Errorf("padded response = %d bytes, want ≥1150", len(wire))
	}
}

// TestICMPForcesFragmentedResponses is the Section VII-B behaviour: after a
// fragmentation-needed ICMP, the nameserver's (padded) responses arrive in
// multiple fragments.
func TestICMPForcesFragmentedResponses(t *testing.T) {
	clk := simclock.New(t0)
	var reassembled int
	n := simnet.New(clk, simnet.WithTrace(func(e simnet.TraceEvent) {
		if e.Kind == simnet.TraceReassembled {
			reassembled++
		}
	}))
	nsHost := n.MustAddHost(nsAddr, simnet.HostConfig{})
	s, err := New(nsHost, Config{PadResponsesTo: 900})
	if err != nil {
		t.Fatal(err)
	}
	s.AddPool(&Pool{Name: "pool.ntp.org", Addrs: poolAddrs(8), PerResponse: 4, TTL: 150})
	c := n.MustAddHost(client, simnet.HostConfig{})

	// Spoofed ICMP: "packets from ns to client need MTU 576".
	msg := &ipv4.ICMPFragNeeded{NextHopMTU: 576, OrigSrc: nsAddr, OrigDst: client, OrigProto: ipv4.ProtoUDP}
	n.Inject(&ipv4.Packet{Src: ipv4.MustParseAddr("203.0.113.66"), Dst: nsAddr, Proto: ipv4.ProtoICMP, TTL: 64, Payload: msg.Marshal()})
	clk.RunFor(100 * time.Millisecond)

	got := query(t, n, c, "pool.ntp.org", dnswire.TypeA)
	if got == nil {
		t.Fatal("no response after fragmentation")
	}
	if reassembled == 0 {
		t.Error("response was not fragmented despite ICMP")
	}
}

func TestAlwaysFragmentMTU(t *testing.T) {
	clk := simclock.New(t0)
	var fragSeen bool
	n := simnet.New(clk, simnet.WithTrace(func(e simnet.TraceEvent) {
		if e.Kind == simnet.TraceSend && e.Pkt.IsFragment() {
			fragSeen = true
		}
	}))
	nsHost := n.MustAddHost(nsAddr, simnet.HostConfig{})
	s, err := New(nsHost, Config{AlwaysFragmentMTU: 296})
	if err != nil {
		t.Fatal(err)
	}
	z := NewZone("study.test")
	z.AddA("x.study.test", 60, ipv4.Addr{1, 2, 3, 4})
	s.AddZone(z)
	c := n.MustAddHost(client, simnet.HostConfig{})
	got := query(t, n, c, "x.study.test", dnswire.TypeA)
	if got == nil {
		t.Fatal("no response")
	}
	if !fragSeen {
		t.Error("AlwaysFragmentMTU server sent no fragments")
	}
}

func TestQueriesServedCounter(t *testing.T) {
	n, s, c := newServer(t, Config{})
	s.AddPool(&Pool{Name: "pool.ntp.org", Addrs: poolAddrs(4), PerResponse: 4, TTL: 150})
	query(t, n, c, "pool.ntp.org", dnswire.TypeA)
	query(t, n, c, "pool.ntp.org", dnswire.TypeA)
	if s.QueriesServed != 2 {
		t.Errorf("QueriesServed = %d, want 2", s.QueriesServed)
	}
}

func TestPoolSmallerThanPerResponse(t *testing.T) {
	n, s, c := newServer(t, Config{})
	s.AddPool(&Pool{Name: "tiny.pool", Addrs: poolAddrs(2), PerResponse: 4, TTL: 150})
	got := query(t, n, c, "tiny.pool", dnswire.TypeA)
	if len(got.AppendAddrsInAnswer(nil, "tiny.pool")) != 2 {
		t.Errorf("answers = %v", got.AppendAddrsInAnswer(nil, "tiny.pool"))
	}
}

// TestNestedApexesLongestMatch serves nested pools and zones from many
// fresh servers, whose maps iterate in different orders, and requires
// every server to answer from the longest matching apex: records and
// signing flags from the same, innermost zone.
func TestNestedApexesLongestMatch(t *testing.T) {
	inner := []ipv4.Addr{{10, 9, 9, 1}, {10, 9, 9, 2}}
	names := []string{"0.de.pool.ntp.org", "0.pool.ntp.org", "x.sub.example.org"}
	var first []*dnswire.Message
	for i := 0; i < 64; i++ {
		n, s, c := newServer(t, Config{})
		s.AddPool(&Pool{Name: "pool.ntp.org", Addrs: poolAddrs(4), PerResponse: 4, TTL: 150})
		s.AddPool(&Pool{Name: "de.pool.ntp.org", Addrs: inner, PerResponse: 2, TTL: 150})
		outer := NewZone("example.org")
		outer.AddA("x.sub.example.org", 300, ipv4.Addr{1, 1, 1, 1})
		s.AddZone(outer)
		sub := NewZone("sub.example.org")
		sub.Signed = true
		sub.AddA("x.sub.example.org", 60, ipv4.Addr{2, 2, 2, 2})
		s.AddZone(sub)
		for k, name := range names {
			got := query(t, n, c, name, dnswire.TypeA)
			if got == nil {
				t.Fatalf("server %d, %s: no response", i, name)
			}
			if i == 0 {
				first = append(first, got)
			} else if !reflect.DeepEqual(got, first[k]) {
				t.Fatalf("server %d, %s: answer differs from server 0's", i, name)
			}
		}
	}
	if got := first[0].AppendAddrsInAnswer(nil, names[0]); !slices.Equal(got, inner) {
		t.Errorf("%s = %v, want the nested pool's %v", names[0], got, inner)
	}
	if got := first[2].AppendAddrsInAnswer(nil, names[2]); !slices.Equal(got, []ipv4.Addr{{2, 2, 2, 2}}) {
		t.Errorf("%s = %v, want the nested zone's 2.2.2.2", names[2], got)
	}
	if k := len(first[2].Answers); k != 2 || first[2].Answers[1].Type != dnswire.TypeRRSIG {
		t.Errorf("%s: %d answers, want the A record and the nested zone's RRSIG", names[2], k)
	}
}
