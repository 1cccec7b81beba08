package ntpserv

import (
	"testing"
	"time"

	"dnstime/internal/ipv4"
	"dnstime/internal/ntpwire"
	"dnstime/internal/simclock"
	"dnstime/internal/simnet"
)

var (
	t0         = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	serverAddr = ipv4.MustParseAddr("10.0.0.1")
	clientAddr = ipv4.MustParseAddr("192.0.2.10")
	eveAddr    = ipv4.MustParseAddr("203.0.113.66")
)

type fixture struct {
	net    *simnet.Network
	clk    *simclock.Clock
	server *Server
	client *simnet.Host
}

func newFixture(t *testing.T, cfg Config) *fixture {
	t.Helper()
	clk := simclock.New(t0)
	n := simnet.New(clk)
	sh := n.MustAddHost(serverAddr, simnet.HostConfig{})
	s, err := New(sh, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := n.MustAddHost(clientAddr, simnet.HostConfig{})
	return &fixture{net: n, clk: clk, server: s, client: c}
}

// query sends one mode-3 query from the client and returns the response (or
// nil after 3 s).
func (f *fixture) query(t *testing.T) *ntpwire.Packet {
	t.Helper()
	var got *ntpwire.Packet
	port := f.client.AllocPort()
	f.client.HandleUDP(port, func(src ipv4.Addr, _ uint16, payload []byte) {
		p, err := ntpwire.Unmarshal(payload)
		if err == nil {
			got = p
		}
	})
	defer f.client.UnhandleUDP(port)
	q := ntpwire.NewClientPacket(f.clk.Now())
	if _, err := f.client.SendUDP(serverAddr, port, ntpwire.Port, q.Marshal()); err != nil {
		t.Fatal(err)
	}
	f.clk.RunFor(3 * time.Second)
	return got
}

func TestHonestServerServesTrueTime(t *testing.T) {
	f := newFixture(t, Config{})
	resp := f.query(t)
	if resp == nil {
		t.Fatal("no response")
	}
	if resp.Mode != ntpwire.ModeServer || resp.Stratum != 2 {
		t.Errorf("mode/stratum = %d/%d", resp.Mode, resp.Stratum)
	}
	// Server timestamps reflect true simulation time (≈ t0 + RTT/2).
	serverT := resp.XmitTime.Time()
	if d := serverT.Sub(t0); d < 0 || d > time.Second {
		t.Errorf("server time = %v, want ≈ t0", serverT)
	}
}

func TestShiftedServerServesShiftedTime(t *testing.T) {
	f := newFixture(t, Config{Offset: -500 * time.Second})
	resp := f.query(t)
	if resp == nil {
		t.Fatal("no response")
	}
	d := resp.XmitTime.Time().Sub(t0)
	if d > -499*time.Second || d < -501*time.Second {
		t.Errorf("server time shift = %v, want ≈ −500 s", d)
	}
}

func TestRateLimitTriggersOnFlood(t *testing.T) {
	f := newFixture(t, Config{RateLimit: RateLimitConfig{Enabled: true, MinInterval: 2 * time.Second, Burst: 4, HoldDown: 60 * time.Second}})
	// Eve floods with the client's spoofed source address at 10 Hz.
	flood := func(nq int) {
		q := ntpwire.NewClientPacket(f.clk.Now())
		wire := q.Marshal()
		for i := 0; i < nq; i++ {
			f.clk.Schedule(time.Duration(i)*100*time.Millisecond, func() {
				pkt := buildSpoofedQuery(clientAddr, serverAddr, wire)
				f.net.Inject(pkt)
			})
		}
	}
	flood(20)
	f.clk.RunFor(5 * time.Second)
	if !f.server.IsLimiting(clientAddr) {
		t.Fatal("server not limiting the spoofed-victim address")
	}
	// Victim's own legitimate query is now ignored.
	if resp := f.query(t); resp != nil {
		t.Error("rate-limited client still got a response")
	}
	if f.server.Stats().RateLimited == 0 {
		t.Error("RateLimited counter is zero")
	}
}

// TestRateLimitPerClient: the limiter keeps one bucket per claimed source,
// whatever order sources first appear in, so flooding some addresses
// limits those and no others.
func TestRateLimitPerClient(t *testing.T) {
	f := newFixture(t, Config{RateLimit: RateLimitConfig{Enabled: true, MinInterval: 2 * time.Second, Burst: 4, HoldDown: 60 * time.Second}})
	wire := ntpwire.NewClientPacket(f.clk.Now()).Marshal()
	srcs := []ipv4.Addr{{10, 9, 0, 5}, {10, 0, 0, 2}, {192, 0, 2, 77}, {10, 5, 5, 5}, {172, 16, 0, 1}, {10, 0, 0, 3}, {255, 0, 0, 1}}
	flooded := func(i int) bool { return i%2 == 0 }
	for round := 0; round < 20; round++ {
		for i, src := range srcs {
			if round == 0 || flooded(i) {
				f.net.Inject(buildSpoofedQuery(src, serverAddr, wire))
			}
		}
		f.clk.RunFor(100 * time.Millisecond)
	}
	for i, src := range srcs {
		if got := f.server.IsLimiting(src); got != flooded(i) {
			t.Errorf("IsLimiting(%v) = %t, want %t", src, got, flooded(i))
		}
	}
	if f.server.IsLimiting(clientAddr) {
		t.Error("a client that never queried is limited")
	}
}

func TestRateLimitHoldDownReArms(t *testing.T) {
	f := newFixture(t, Config{RateLimit: RateLimitConfig{Enabled: true, MinInterval: 2 * time.Second, Burst: 4, HoldDown: 10 * time.Second}})
	wire := ntpwire.NewClientPacket(f.clk.Now()).Marshal()
	// Trip the limiter.
	for i := 0; i < 5; i++ {
		f.net.Inject(buildSpoofedQuery(clientAddr, serverAddr, wire))
		f.clk.RunFor(100 * time.Millisecond)
	}
	if !f.server.IsLimiting(clientAddr) {
		t.Fatal("limiter not tripped")
	}
	// Keep poking every 5 s (inside the 10 s hold-down): stays limited
	// even after 60 s total.
	for i := 0; i < 12; i++ {
		f.clk.RunFor(5 * time.Second)
		f.net.Inject(buildSpoofedQuery(clientAddr, serverAddr, wire))
		f.clk.RunFor(100 * time.Millisecond)
	}
	if !f.server.IsLimiting(clientAddr) {
		t.Error("hold-down expired despite continued queries")
	}
	// Silence for > hold-down releases the client.
	f.clk.RunFor(15 * time.Second)
	if f.server.IsLimiting(clientAddr) {
		t.Error("hold-down did not expire after silence")
	}
}

func TestSlowClientNeverLimited(t *testing.T) {
	f := newFixture(t, Config{RateLimit: RateLimitConfig{Enabled: true, MinInterval: 2 * time.Second, Burst: 4, HoldDown: 60 * time.Second}})
	for i := 0; i < 10; i++ {
		if resp := f.query(t); resp == nil {
			t.Fatalf("well-behaved query %d dropped", i)
		}
		f.clk.RunFor(8 * time.Second)
	}
}

func TestKoDSentAtLimitEdge(t *testing.T) {
	f := newFixture(t, Config{RateLimit: RateLimitConfig{Enabled: true, MinInterval: 2 * time.Second, Burst: 4, HoldDown: 30 * time.Second, SendKoD: true}})
	var kod *ntpwire.Packet
	f.client.HandleUDP(ntpwire.Port, func(_ ipv4.Addr, _ uint16, payload []byte) {
		if p, err := ntpwire.Unmarshal(payload); err == nil && p.IsKoD() {
			kod = p
		}
	})
	wire := ntpwire.NewClientPacket(f.clk.Now()).Marshal()
	for i := 0; i < 6; i++ {
		f.net.Inject(buildSpoofedQuery(clientAddr, serverAddr, wire))
		f.clk.RunFor(200 * time.Millisecond)
	}
	if kod == nil {
		t.Fatal("no KoD received")
	}
	if kod.KissCode() != "RATE" {
		t.Errorf("kiss code = %q", kod.KissCode())
	}
}

func TestNoRateLimitWhenDisabled(t *testing.T) {
	f := newFixture(t, Config{})
	wire := ntpwire.NewClientPacket(f.clk.Now()).Marshal()
	for i := 0; i < 20; i++ {
		f.net.Inject(buildSpoofedQuery(clientAddr, serverAddr, wire))
		f.clk.RunFor(50 * time.Millisecond)
	}
	if f.server.IsLimiting(clientAddr) {
		t.Error("limiter active despite being disabled")
	}
	if resp := f.query(t); resp == nil {
		t.Error("query dropped by non-limiting server")
	}
}

// TestServerIgnoresNonClientModes: the server answers mode-3 queries only.
// NTP bytes are attacker-controlled input, so every other mode — including
// a mode-7 config probe — and every datagram too short to be a packet is
// counted and dropped without an answer.
func TestServerIgnoresNonClientModes(t *testing.T) {
	withMode := func(m ntpwire.Mode) []byte {
		p := ntpwire.NewClientPacket(t0)
		p.Mode = m
		return p.Marshal()
	}
	f := newFixture(t, Config{})
	answered := 0
	port := f.client.AllocPort()
	f.client.HandleUDP(port, func(ipv4.Addr, uint16, []byte) { answered++ })
	for i, tc := range []struct {
		name    string
		payload []byte
	}{
		{"mode-7 probe, 1 byte", []byte{byte(ntpwire.ModePrivate)}},
		{"mode 7, 48 bytes", withMode(ntpwire.ModePrivate)},
		{"mode 4", withMode(ntpwire.ModeServer)},
		{"mode 6", withMode(ntpwire.ModeControl)},
		{"empty", nil},
		{"47 bytes", withMode(ntpwire.ModeClient)[:ntpwire.PacketLen-1]},
	} {
		if _, err := f.client.SendUDP(serverAddr, port, ntpwire.Port, tc.payload); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		f.clk.RunFor(time.Second)
		if answered != 0 {
			t.Errorf("%s: answered", tc.name)
			answered = 0
		}
		if st := f.server.Stats(); st.Queries != i+1 || st.Answered != 0 {
			t.Errorf("%s: stats %+v, want %d queries and none answered", tc.name, st, i+1)
		}
	}
}

func TestRefIDLeakInResponses(t *testing.T) {
	up := ipv4.MustParseAddr("10.7.7.7")
	f := newFixture(t, Config{Stratum: 3, RefID: [4]byte(up)})
	resp := f.query(t)
	if resp == nil {
		t.Fatal("no response")
	}
	got, ok := resp.RefIDAddr()
	if !ok || got != up {
		t.Errorf("leaked refid = %v, %t; want %v", got, ok, up)
	}
}

// buildSpoofedQuery constructs an injected mode-3 packet with a spoofed
// source, the attacker's core rate-limit-abuse primitive.
func buildSpoofedQuery(spoofedSrc, dst ipv4.Addr, ntpPayload []byte) *ipv4.Packet {
	d := udpDatagram(spoofedSrc, dst, ntpwire.Port, ntpwire.Port, ntpPayload)
	return &ipv4.Packet{Src: spoofedSrc, Dst: dst, Proto: ipv4.ProtoUDP, TTL: 64, Payload: d}
}
