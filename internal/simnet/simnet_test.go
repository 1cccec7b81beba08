package simnet

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
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

// TestNilHandlerRejected: binding a nil handler is an error that binds
// nothing, so a datagram to the port is dropped instead of calling nil,
// and a real handler can still take the port.
func TestNilHandlerRejected(t *testing.T) {
	n, a, b := twoHosts(t)
	if err := b.HandleUDP(53, nil); !errors.Is(err, ErrNilHandler) {
		t.Fatalf("err = %v, want ErrNilHandler", err)
	}
	if _, err := a.SendUDP(addrB, 1, 53, []byte("x")); err != nil {
		t.Fatal(err)
	}
	n.Clock().RunFor(time.Second)
	if b.ReceivedPackets != 1 {
		t.Fatalf("ReceivedPackets = %d, want 1", b.ReceivedPackets)
	}
	if err := b.HandleUDP(53, func(ipv4.Addr, uint16, []byte) {}); err != nil {
		t.Errorf("bind after a rejected nil handler: %v", err)
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

// TestChecksumVerificationDropsCorrupt: an injected whole datagram whose
// checksum fails is dropped before any handler runs, counted once and
// traced once.
func TestChecksumVerificationDropsCorrupt(t *testing.T) {
	badsums := 0
	n, _, b := twoHosts(t, WithTrace(func(e TraceEvent) {
		if e.Kind == TraceChecksumFail {
			badsums++
		}
	}))
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
	if b.ChecksumErrors != 1 || badsums != 1 {
		t.Errorf("ChecksumErrors = %d and %d traced, want 1 and 1", b.ChecksumErrors, badsums)
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

// spoofSecondFragment runs the fragment-replacement attack end to end: B
// lowers A's path MTU toward it to 576, an off-path attacker plants a
// spoofed second fragment of the 1 032-byte datagram A is about to send B
// (IPID 0, the first A's allocator gives), and A sends it. The spoofed
// fragment's bytes are 0xEE up to its last two, which, when fix is set,
// udp.FixSum chooses so that the reassembled datagram keeps A's checksum.
// It returns whether B's handler ran and the payload it saw, B, and the
// number of reassembly and checksum-failure events B's network traced.
func spoofSecondFragment(t *testing.T, fix bool) (ran bool, got []byte, b *Host, reasms, badsums int) {
	t.Helper()
	n, a, b := twoHosts(t, WithTrace(func(e TraceEvent) {
		switch e.Kind {
		case TraceReassembled:
			reasms++
		case TraceChecksumFail:
			badsums++
		}
	}))
	b.HandleUDP(5353, func(_ ipv4.Addr, _ uint16, p []byte) { ran, got = true, append([]byte(nil), p...) })

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

	spoof := frags[1].Clone()
	for i := 0; i < len(spoof.Payload)-2; i++ {
		spoof.Payload[i] = 0xEE
	}
	if fix {
		if err := udp.FixSum(frags[1].Payload, spoof.Payload, len(spoof.Payload)-2); err != nil {
			t.Fatalf("FixSum: %v", err)
		}
	}
	n.Inject(spoof)
	n.Clock().RunFor(100 * time.Millisecond)

	if _, err := a.SendUDP(addrB, 53, 5353, payload); err != nil {
		t.Fatal(err)
	}
	n.Clock().RunFor(time.Second)
	return ran, got, b, reasms, badsums
}

// TestFragmentedSpoofInjection: the reassembled datagram carries the
// attacker's bytes and passes the checksum, which the attacker kept with
// slack bytes.
func TestFragmentedSpoofInjection(t *testing.T) {
	ran, got, b, reasms, badsums := spoofSecondFragment(t, true)
	if !ran || reasms != 1 {
		t.Fatalf("handler ran %t after %d reassemblies — checksum fix or reassembly failed", ran, reasms)
	}
	if got[len(got)-3] != 0xEE {
		t.Error("delivered datagram does not contain attacker bytes")
	}
	if b.ChecksumErrors != 0 || badsums != 0 {
		t.Errorf("ChecksumErrors = %d and %d traced, want 0", b.ChecksumErrors, badsums)
	}
}

// TestFragmentedSpoofUnfixedDropped: the same spoofed second fragment
// without the checksum fix reassembles into a datagram whose checksum
// fails: it is dropped before any handler runs, counted once and traced
// once.
func TestFragmentedSpoofUnfixedDropped(t *testing.T) {
	ran, _, b, reasms, badsums := spoofSecondFragment(t, false)
	if reasms != 1 {
		t.Fatalf("%d reassemblies, want 1", reasms)
	}
	if ran {
		t.Error("datagram with a broken checksum delivered")
	}
	if b.ChecksumErrors != 1 || badsums != 1 {
		t.Errorf("ChecksumErrors = %d and %d traced, want 1 and 1", b.ChecksumErrors, badsums)
	}
}

// TestRemoveHostDropsInFlight: a datagram in flight toward a host that is
// removed before it arrives is dropped and traced as a drop, also when the
// host is reattached (and binds its port again) before the arrival; a
// datagram sent after the reattach is delivered.
func TestRemoveHostDropsInFlight(t *testing.T) {
	for _, reattach := range []bool{false, true} {
		t.Run(fmt.Sprintf("reattach=%t", reattach), func(t *testing.T) {
			var kinds []TraceKind
			n, a, b := twoHosts(t, WithTrace(func(e TraceEvent) { kinds = append(kinds, e.Kind) }))
			ran := 0
			handler := func(ipv4.Addr, uint16, []byte) { ran++ }
			b.HandleUDP(53, handler)
			if _, err := a.SendUDP(addrB, 1, 53, []byte("x")); err != nil {
				t.Fatal(err)
			}
			n.Clock().RunFor(5 * time.Millisecond) // half the default 10 ms latency
			n.RemoveHost(addrB)
			if reattach {
				if err := n.Reattach(b, HostConfig{}); err != nil {
					t.Fatal(err)
				}
				b.HandleUDP(53, handler)
			}
			n.Clock().RunFor(time.Second)
			if ran != 0 || b.ReceivedPackets != 0 || !slices.Equal(kinds, []TraceKind{TraceSend, TraceDrop}) {
				t.Fatalf("handler ran %d times, %d packets received, trace %v; want none, none, [send drop]", ran, b.ReceivedPackets, kinds)
			}
			if !reattach {
				return
			}
			if _, err := a.SendUDP(addrB, 1, 53, []byte("y")); err != nil {
				t.Fatal(err)
			}
			n.Clock().RunFor(time.Second)
			if ran != 1 || b.ReceivedPackets != 1 {
				t.Errorf("after the reattach: handler ran %d times, %d packets received, want 1 and 1", ran, b.ReceivedPackets)
			}
		})
	}
}

// TestHostResetIsFreshHost: a host dirtied with a pending reassembly
// bucket, a PMTU entry, bound handlers, a raw observer, allocated ports
// and counted packets behaves, once Reset(cfg), exactly like a host that
// AddHost(cfg) built, under the same traffic. A dirtied host that is not
// reset behaves differently, so the probe sees that state.
func TestHostResetIsFreshHost(t *testing.T) {
	cfg := HostConfig{PMTUFloor: 552, LinkMTU: 1400}
	n := New(simclock.New(t0))
	n.MustAddHost(addrB, HostConfig{})
	seen := map[*Host]string{} // what each host's handlers and observer saw
	icmp := func(dst ipv4.Addr, mtu uint16) {
		msg := &ipv4.ICMPFragNeeded{NextHopMTU: mtu, OrigSrc: dst, OrigDst: addrB, OrigProto: ipv4.ProtoUDP}
		n.Inject(&ipv4.Packet{Src: addrB, Dst: dst, Proto: ipv4.ProtoICMP, TTL: 64, Payload: msg.Marshal()})
	}
	// Fragments of one datagram addrB→dst on port 53, IPID 77.
	frags := func(dst ipv4.Addr) []*ipv4.Packet {
		d := &udp.Datagram{Header: udp.Header{SrcPort: 53, DstPort: 53}, Payload: bytes.Repeat([]byte("x"), 100)}
		wire := udp.WithChecksum(addrB, dst, d.Marshal())
		fs, err := ipv4.Fragment(&ipv4.Packet{Src: addrB, Dst: dst, ID: 77, Proto: ipv4.ProtoUDP, TTL: 64, Payload: wire}, ipv4.MinMTU)
		if err != nil || len(fs) < 2 {
			t.Fatalf("fragment: %v, %d fragments", err, len(fs))
		}
		return fs
	}
	dirtied := func(addr ipv4.Addr) *Host {
		h := n.MustAddHost(addr, HostConfig{})
		for _, port := range []uint16{53, 7000} {
			if err := h.HandleUDP(port, func(ipv4.Addr, uint16, []byte) { seen[h] += " old-handler" }); err != nil {
				t.Fatal(err)
			}
		}
		h.ObserveRaw(func(*ipv4.Packet) { seen[h] += " raw" })
		h.AllocPort()
		h.AllocPort()
		icmp(addr, 576)
		n.Inject(frags(addr)[0])
		if _, err := h.SendUDP(addrB, 1, 2, []byte("out")); err != nil {
			t.Fatal(err)
		}
		n.Clock().RunFor(time.Second)
		if h.Reassembler().PendingBuckets(addrB, addr, ipv4.ProtoUDP) != 1 || h.PathMTU(addrB) != 576 {
			t.Fatal("host was not dirtied")
		}
		return h
	}
	probe := func(h *Host) string {
		seen[h] = ""
		p1, p2 := h.AllocPort(), h.AllocPort()
		mtu := h.PathMTU(addrB)
		bindErr := h.HandleUDP(53, func(ipv4.Addr, uint16, []byte) { seen[h] += " new-handler" })
		icmp(h.Addr(), 600) // honoured above the 552 floor, unless an entry is lower
		icmp(h.Addr(), 500) // below the floor
		for _, f := range frags(h.Addr())[1:] {
			n.Inject(f)
		}
		n.Clock().RunFor(time.Second)
		return fmt.Sprintf("ports %d %d, mtu %d then %d, bind %v, pending %d, reasm %+v, sent %d received %d badsum %d, saw%s",
			p1, p2, mtu, h.PathMTU(addrB), bindErr,
			h.Reassembler().PendingBuckets(addrB, h.Addr(), ipv4.ProtoUDP), h.Reassembler().Stats(),
			h.SentPackets, h.ReceivedPackets, h.ChecksumErrors, seen[h])
	}

	reset := dirtied(addrA)
	reset.Reset(cfg)
	want := probe(n.MustAddHost(addrEve, cfg))
	if got := probe(reset); got != want {
		t.Errorf("reset host:\n got %s\nwant %s (a fresh AddHost host)", got, want)
	}
	if got := probe(dirtied(ipv4.MustParseAddr("192.0.2.2"))); got == want {
		t.Errorf("a dirtied host that was not reset probes like a fresh one: %s", got)
	}
}
