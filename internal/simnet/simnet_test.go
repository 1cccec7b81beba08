package simnet

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"dnstime/internal/ipv4"
	"dnstime/internal/netem"
	"dnstime/internal/simclock"
	"dnstime/internal/udp"
)

var (
	t0      = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	addrA   = ipv4.MustParseAddr("192.0.2.1")
	addrB   = ipv4.MustParseAddr("198.51.100.7")
	addrEve = ipv4.MustParseAddr("203.0.113.66")
)

func twoHosts(t *testing.T, opts ...Option) (*Network, *Host, *Host) {
	t.Helper()
	clk := simclock.New(t0)
	n := New(clk, opts...)
	a, err := n.AddHost(addrA, HostConfig{})
	if err != nil {
		t.Fatalf("AddHost A: %v", err)
	}
	b, err := n.AddHost(addrB, HostConfig{})
	if err != nil {
		t.Fatalf("AddHost B: %v", err)
	}
	return n, a, b
}

func TestUDPDelivery(t *testing.T) {
	n, a, b := twoHosts(t)
	var gotSrc ipv4.Addr
	var gotPort uint16
	var gotPayload []byte
	if err := b.HandleUDP(53, func(src ipv4.Addr, srcPort uint16, p []byte) {
		gotSrc, gotPort, gotPayload = src, srcPort, p
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.SendUDP(addrB, 4444, 53, []byte("query")); err != nil {
		t.Fatal(err)
	}
	n.Clock().RunFor(time.Second)
	if gotSrc != addrA || gotPort != 4444 || !bytes.Equal(gotPayload, []byte("query")) {
		t.Errorf("delivery = %v:%d %q", gotSrc, gotPort, gotPayload)
	}
}

func TestDeliveryRespectsLatency(t *testing.T) {
	n, a, b := twoHosts(t, WithPathModel(&netem.Path{Delay: netem.Fixed(250 * time.Millisecond)}))
	var at time.Time
	b.HandleUDP(53, func(ipv4.Addr, uint16, []byte) { at = n.Clock().Now() })
	a.SendUDP(addrB, 1, 53, []byte("x"))
	n.Clock().RunFor(time.Second)
	if want := t0.Add(250 * time.Millisecond); !at.Equal(want) {
		t.Errorf("delivered at %v, want %v", at, want)
	}
}

func TestDuplicateHostRejected(t *testing.T) {
	clk := simclock.New(t0)
	n := New(clk)
	n.MustAddHost(addrA, HostConfig{})
	if _, err := n.AddHost(addrA, HostConfig{}); !errors.Is(err, ErrDuplicateHost) {
		t.Errorf("err = %v, want ErrDuplicateHost", err)
	}
}

func TestDuplicatePortRejected(t *testing.T) {
	_, _, b := twoHosts(t)
	h := func(ipv4.Addr, uint16, []byte) {}
	if err := b.HandleUDP(53, h); err != nil {
		t.Fatal(err)
	}
	if err := b.HandleUDP(53, h); !errors.Is(err, ErrPortInUse) {
		t.Errorf("err = %v, want ErrPortInUse", err)
	}
	b.UnhandleUDP(53)
	if err := b.HandleUDP(53, h); err != nil {
		t.Errorf("re-register after unhandle: %v", err)
	}
}

func TestUnhandledPortDropped(t *testing.T) {
	n, a, b := twoHosts(t)
	delivered := false
	b.HandleUDP(53, func(ipv4.Addr, uint16, []byte) { delivered = true })
	a.SendUDP(addrB, 1, 99, []byte("x")) // port 99 has no handler
	n.Clock().RunFor(time.Second)
	if delivered {
		t.Error("datagram to unhandled port was delivered to another handler")
	}
}

func TestLargePayloadFragmentsAndReassembles(t *testing.T) {
	n, a, b := twoHosts(t)
	payload := bytes.Repeat([]byte("0123456789abcdef"), 200) // 3200 B
	var got []byte
	b.HandleUDP(53, func(_ ipv4.Addr, _ uint16, p []byte) { got = p })
	a.SendUDP(addrB, 1, 53, payload)
	n.Clock().RunFor(time.Second)
	if !bytes.Equal(got, payload) {
		t.Errorf("got %d bytes, want %d intact", len(got), len(payload))
	}
	if a.SentPackets < 3 {
		t.Errorf("SentPackets = %d, want ≥3 fragments", a.SentPackets)
	}
}

func TestICMPFragNeededLowersPathMTU(t *testing.T) {
	n, a, b := twoHosts(t)
	if got := a.PathMTU(addrB); got != ipv4.DefaultMTU {
		t.Fatalf("initial PathMTU = %d", got)
	}
	// B (or anyone — it is unauthenticated) tells A that packets A→B need
	// fragmentation below 576.
	b.SendICMPFragNeeded(addrA, &ipv4.ICMPFragNeeded{
		NextHopMTU: 576, OrigSrc: addrA, OrigDst: addrB, OrigProto: ipv4.ProtoUDP,
	})
	n.Clock().RunFor(time.Second)
	if got := a.PathMTU(addrB); got != 576 {
		t.Errorf("PathMTU = %d after ICMP, want 576", got)
	}
}

func TestSpoofedICMPViaInject(t *testing.T) {
	n, a, _ := twoHosts(t)
	msg := &ipv4.ICMPFragNeeded{NextHopMTU: 296, OrigSrc: addrA, OrigDst: addrB, OrigProto: ipv4.ProtoUDP}
	// Off-path attacker injects an ICMP with a spoofed router source.
	n.Inject(&ipv4.Packet{
		Src: ipv4.MustParseAddr("10.99.99.99"), Dst: addrA,
		Proto: ipv4.ProtoICMP, TTL: 64, Payload: msg.Marshal(),
	})
	n.Clock().RunFor(time.Second)
	if got := a.PathMTU(addrB); got != 296 {
		t.Errorf("PathMTU = %d after spoofed ICMP, want 296", got)
	}
}

func TestInjectSpoofedUDP(t *testing.T) {
	n, _, b := twoHosts(t)
	var gotSrc ipv4.Addr
	b.HandleUDP(123, func(src ipv4.Addr, _ uint16, _ []byte) { gotSrc = src })
	d := &udp.Datagram{Header: udp.Header{SrcPort: 123, DstPort: 123}, Payload: []byte("ntp")}
	wire := udp.WithChecksum(addrA, addrB, d.Marshal())
	// Eve spoofs A's address.
	n.Inject(&ipv4.Packet{Src: addrA, Dst: addrB, Proto: ipv4.ProtoUDP, TTL: 64, ID: 9, Payload: wire})
	n.Clock().RunFor(time.Second)
	if gotSrc != addrA {
		t.Errorf("src = %v, want spoofed %v", gotSrc, addrA)
	}
}

func TestChecksumVerificationDropsCorrupt(t *testing.T) {
	n, _, b := twoHosts(t)
	delivered := false
	b.HandleUDP(53, func(ipv4.Addr, uint16, []byte) { delivered = true })
	d := &udp.Datagram{Header: udp.Header{SrcPort: 1, DstPort: 53}, Payload: []byte("query")}
	wire := udp.WithChecksum(addrA, addrB, d.Marshal())
	wire[len(wire)-1] ^= 0xff
	n.Inject(&ipv4.Packet{Src: addrA, Dst: addrB, Proto: ipv4.ProtoUDP, TTL: 64, Payload: wire})
	n.Clock().RunFor(time.Second)
	if delivered {
		t.Error("corrupt datagram delivered")
	}
	if b.ChecksumErrors != 1 {
		t.Errorf("ChecksumErrors = %d, want 1", b.ChecksumErrors)
	}
}

func TestPMTUAffectsSubsequentSends(t *testing.T) {
	n, a, b := twoHosts(t)
	payload := bytes.Repeat([]byte("x"), 1000)
	b.HandleUDP(53, func(ipv4.Addr, uint16, []byte) {})
	a.SendUDP(addrB, 1, 53, payload)
	if a.SentPackets != 1 {
		t.Fatalf("SentPackets = %d before PMTU change, want 1", a.SentPackets)
	}
	b.SendICMPFragNeeded(addrA, &ipv4.ICMPFragNeeded{NextHopMTU: 576, OrigSrc: addrA, OrigDst: addrB, OrigProto: ipv4.ProtoUDP})
	n.Clock().RunFor(time.Second)
	a.SentPackets = 0
	a.SendUDP(addrB, 1, 53, payload)
	if a.SentPackets != 2 {
		t.Errorf("SentPackets = %d after MTU=576, want 2 fragments", a.SentPackets)
	}
}

func TestLossDropsPackets(t *testing.T) {
	clk := simclock.New(t0)
	n := New(clk, WithPathModel(&netem.Path{Loss: netem.IID{P: 1}}), WithSeed(42))
	a := n.MustAddHost(addrA, HostConfig{})
	b := n.MustAddHost(addrB, HostConfig{})
	delivered := false
	b.HandleUDP(53, func(ipv4.Addr, uint16, []byte) { delivered = true })
	a.SendUDP(addrB, 1, 53, []byte("x"))
	clk.RunFor(time.Second)
	if delivered {
		t.Error("packet delivered despite 100% loss")
	}
}

// TestPathModelJitterAndLoss: a WithPathModel network draws per-packet
// latency and loss from the installed model — delivery times vary within
// the distribution's bounds and some packets vanish.
func TestPathModelJitterAndLoss(t *testing.T) {
	model := &netem.Path{
		Delay: netem.Uniform{Min: 5 * time.Millisecond, Max: 50 * time.Millisecond},
		Loss:  netem.IID{P: 0.3},
	}
	n, a, b := twoHosts(t, WithPathModel(model), WithSeed(11))
	var arrivals []time.Duration
	b.HandleUDP(53, func(ipv4.Addr, uint16, []byte) {
		arrivals = append(arrivals, n.Clock().Now().Sub(t0))
	})
	sent := 200
	for i := 0; i < sent; i++ {
		a.SendUDP(addrB, 1, 53, []byte("x"))
	}
	n.Clock().RunFor(time.Second)
	if len(arrivals) == sent || len(arrivals) == 0 {
		t.Fatalf("delivered %d/%d packets, want lossy-but-nonzero", len(arrivals), sent)
	}
	for _, at := range arrivals {
		if at < 5*time.Millisecond || at > 50*time.Millisecond {
			t.Fatalf("delivery at %v outside the model's [5ms, 50ms]", at)
		}
	}
}

// TestSeedDeterminesLinkRandomness: two networks built from the same seed
// replay identical per-packet loss and jitter decisions; a different seed
// diverges. This is the property that keeps lossy campaigns byte-identical
// at any worker count — link RNG state derives from the run seed alone.
func TestSeedDeterminesLinkRandomness(t *testing.T) {
	run := func(seed int64) []time.Duration {
		model := &netem.Path{
			Delay: netem.Uniform{Min: time.Millisecond, Max: 20 * time.Millisecond},
			Loss:  &netem.GilbertElliott{PGB: 0.1, PBG: 0.5, LossBad: 1},
		}
		n, a, b := twoHosts(t, WithPathModel(model), WithSeed(seed))
		var arrivals []time.Duration
		b.HandleUDP(53, func(ipv4.Addr, uint16, []byte) {
			arrivals = append(arrivals, n.Clock().Now().Sub(t0))
		})
		for i := 0; i < 100; i++ {
			a.SendUDP(addrB, 1, 53, []byte("x"))
		}
		n.Clock().RunFor(time.Second)
		return arrivals
	}
	a1, a2 := run(42), run(42)
	if len(a1) != len(a2) {
		t.Fatalf("same seed delivered %d vs %d packets", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("same seed, packet %d delivered at %v vs %v", i, a1[i], a2[i])
		}
	}
	b1 := run(43)
	if len(a1) == len(b1) {
		same := true
		for i := range a1 {
			if a1[i] != b1[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical link behaviour")
		}
	}
}

func TestInjectToUnknownHostDropped(t *testing.T) {
	clk := simclock.New(t0)
	var dropped bool
	n := New(clk, WithTrace(func(e TraceEvent) {
		if e.Kind == TraceDrop {
			dropped = true
		}
	}))
	n.Inject(&ipv4.Packet{Src: addrA, Dst: addrB, Proto: ipv4.ProtoUDP, Payload: []byte{0, 0, 0, 0, 0, 8, 0, 0}})
	clk.RunFor(time.Second)
	if !dropped {
		t.Error("packet to unknown host not traced as dropped")
	}
}

func TestTraceRecordsSendAndDeliver(t *testing.T) {
	clk := simclock.New(t0)
	var events []TraceEvent
	n := New(clk, WithTrace(func(e TraceEvent) { events = append(events, e) }))
	a := n.MustAddHost(addrA, HostConfig{})
	b := n.MustAddHost(addrB, HostConfig{})
	b.HandleUDP(53, func(ipv4.Addr, uint16, []byte) {})
	a.SendUDP(addrB, 1, 53, []byte("x"))
	clk.RunFor(time.Second)
	var sends, delivers int
	for _, e := range events {
		switch e.Kind {
		case TraceSend:
			sends++
		case TraceDeliver:
			delivers++
		}
		if e.String() == "" {
			t.Error("empty trace line")
		}
	}
	if sends != 1 || delivers != 1 {
		t.Errorf("sends=%d delivers=%d, want 1,1", sends, delivers)
	}
}

func TestAllocPortMonotonic(t *testing.T) {
	_, a, _ := twoHosts(t)
	p1, p2 := a.AllocPort(), a.AllocPort()
	if p2 != p1+1 {
		t.Errorf("ports %d,%d not sequential", p1, p2)
	}
}

func TestFragmentedSpoofInjection(t *testing.T) {
	// End-to-end: attacker plants a spoofed second fragment; the real
	// host then sends a fragmented datagram with a matching IPID; the
	// reassembled datagram carries the attacker's bytes and passes the
	// checksum (attacker fixed it via slack bytes).
	n, a, b := twoHosts(t)
	var got []byte
	b.HandleUDP(53, func(_ ipv4.Addr, _ uint16, p []byte) { got = p })

	// Force A to fragment toward B.
	b.SendICMPFragNeeded(addrA, &ipv4.ICMPFragNeeded{NextHopMTU: 576, OrigSrc: addrA, OrigDst: addrB, OrigProto: ipv4.ProtoUDP})
	n.Clock().RunFor(100 * time.Millisecond)

	// Predict what A will send (the attacker knows the payload layout of
	// the DNS answer it is racing; here we just construct it directly).
	payload := bytes.Repeat([]byte("real-record-data"), 64) // 1024 B
	d := &udp.Datagram{Header: udp.Header{SrcPort: 53, DstPort: 5353}, Payload: payload}
	wire := udp.WithChecksum(addrA, addrB, d.Marshal())
	whole := &ipv4.Packet{Src: addrA, Dst: addrB, ID: 0, Proto: ipv4.ProtoUDP, TTL: 64, Payload: wire}
	frags, err := ipv4.Fragment(whole, 576)
	if err != nil || len(frags) != 2 {
		t.Fatalf("predicted fragmentation: %v, %d frags", err, len(frags))
	}

	// Attacker crafts the spoofed second fragment with fixed checksum.
	spoof := frags[1].Clone()
	for i := 0; i < len(spoof.Payload)-2; i++ {
		spoof.Payload[i] = 0xEE
	}
	if err := udp.FixSum(frags[1].Payload, spoof.Payload, len(spoof.Payload)-2); err != nil {
		t.Fatalf("FixSum: %v", err)
	}
	n.Inject(spoof)
	n.Clock().RunFor(100 * time.Millisecond)

	// Real host sends; its IPID allocator starts at 0, matching the spoof.
	b.HandleUDP(5353, func(_ ipv4.Addr, _ uint16, p []byte) { got = p })
	if _, err := a.SendUDP(addrB, 53, 5353, payload); err != nil {
		t.Fatal(err)
	}
	n.Clock().RunFor(time.Second)

	if len(got) == 0 {
		t.Fatal("no datagram delivered — checksum fix or reassembly failed")
	}
	if got[len(got)-3] != 0xEE {
		t.Error("delivered datagram does not contain attacker bytes")
	}
	if b.ChecksumErrors != 0 {
		t.Errorf("ChecksumErrors = %d, want 0", b.ChecksumErrors)
	}
}
