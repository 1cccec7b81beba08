package ipv4

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"dnstime/internal/simclock"
)

var (
	t0       = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	hostA    = MustParseAddr("192.0.2.1")
	hostB    = MustParseAddr("198.51.100.7")
	attacker = MustParseAddr("203.0.113.66")
)

func TestParseAddr(t *testing.T) {
	tests := []struct {
		in   string
		want Addr
		ok   bool
	}{
		{"1.2.3.4", Addr{1, 2, 3, 4}, true},
		{"255.255.255.255", Addr{255, 255, 255, 255}, true},
		{"0.0.0.0", Addr{}, true},
		{"1.2.3", Addr{}, false},
		{"1.2.3.4.5", Addr{}, false},
		{"1.2.3.256", Addr{}, false},
		{"a.b.c.d", Addr{}, false},
	}
	for _, tt := range tests {
		got, err := ParseAddr(tt.in)
		if (err == nil) != tt.ok {
			t.Errorf("ParseAddr(%q) err = %v, ok = %t", tt.in, err, tt.ok)
			continue
		}
		if tt.ok && got != tt.want {
			t.Errorf("ParseAddr(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestAddrStringRoundTrip(t *testing.T) {
	a := Addr{203, 0, 113, 66}
	got, err := ParseAddr(a.String())
	if err != nil || got != a {
		t.Errorf("round trip = %v, %v", got, err)
	}
}

func newPacket(payloadLen int) *Packet {
	payload := make([]byte, payloadLen)
	for i := range payload {
		payload[i] = byte(i)
	}
	return &Packet{Src: hostA, Dst: hostB, ID: 42, Proto: ProtoUDP, TTL: 64, Payload: payload}
}

func TestFragmentSmallPacketUnfragmented(t *testing.T) {
	p := newPacket(100)
	frags, err := Fragment(p, 1500)
	if err != nil {
		t.Fatalf("Fragment: %v", err)
	}
	if len(frags) != 1 || frags[0].IsFragment() {
		t.Fatalf("got %d fragments (frag=%t), want 1 whole packet", len(frags), frags[0].IsFragment())
	}
}

func TestFragmentSplitsOn8ByteBoundaries(t *testing.T) {
	p := newPacket(1000)
	frags, err := Fragment(p, 576)
	if err != nil {
		t.Fatalf("Fragment: %v", err)
	}
	if len(frags) < 2 {
		t.Fatalf("got %d fragments, want ≥2", len(frags))
	}
	for i, f := range frags {
		if f.TotalLen() > 576 {
			t.Errorf("fragment %d length %d exceeds MTU", i, f.TotalLen())
		}
		if f.FragOff%8 != 0 {
			t.Errorf("fragment %d offset %d not multiple of 8", i, f.FragOff)
		}
		wantMF := i < len(frags)-1
		if f.MF != wantMF {
			t.Errorf("fragment %d MF=%t, want %t", i, f.MF, wantMF)
		}
		if f.ID != p.ID {
			t.Errorf("fragment %d ID=%d, want %d", i, f.ID, p.ID)
		}
	}
}

func TestFragmentDFReturnsFragNeeded(t *testing.T) {
	p := newPacket(2000)
	p.DF = true
	if _, err := Fragment(p, 576); !errors.Is(err, ErrFragNeeded) {
		t.Errorf("err = %v, want ErrFragNeeded", err)
	}
}

func TestFragmentRejectsTinyMTU(t *testing.T) {
	if _, err := Fragment(newPacket(100), 60); !errors.Is(err, ErrBadMTU) {
		t.Errorf("err = %v, want ErrBadMTU", err)
	}
}

func reassembleAll(r *Reassembler, frags []*Packet) (*Packet, bool) {
	var out *Packet
	var done bool
	for _, f := range frags {
		if p, ok := r.Add(f); ok {
			out, done = p, true
		}
	}
	return out, done
}

func TestReassemblyInOrder(t *testing.T) {
	clk := simclock.New(t0)
	r := NewReassembler(clk, LinuxPolicy)
	p := newPacket(1200)
	frags, _ := Fragment(p, 576)
	got, ok := reassembleAll(r, frags)
	if !ok {
		t.Fatal("reassembly did not complete")
	}
	if !bytes.Equal(got.Payload, p.Payload) {
		t.Error("reassembled payload differs from original")
	}
}

func TestReassemblyOutOfOrder(t *testing.T) {
	clk := simclock.New(t0)
	r := NewReassembler(clk, LinuxPolicy)
	p := newPacket(2000)
	frags, _ := Fragment(p, 576)
	// Reverse delivery order.
	for i, j := 0, len(frags)-1; i < j; i, j = i+1, j-1 {
		frags[i], frags[j] = frags[j], frags[i]
	}
	got, ok := reassembleAll(r, frags)
	if !ok {
		t.Fatal("out-of-order reassembly did not complete")
	}
	if !bytes.Equal(got.Payload, p.Payload) {
		t.Error("reassembled payload differs from original")
	}
}

func TestReassemblyNonFragmentPassesThrough(t *testing.T) {
	clk := simclock.New(t0)
	r := NewReassembler(clk, LinuxPolicy)
	p := newPacket(64)
	got, ok := r.Add(p)
	if !ok || !bytes.Equal(got.Payload, p.Payload) {
		t.Error("non-fragment did not pass through")
	}
}

// TestReassemblyFirstWinsPlanting is the attack's key cache behaviour: a
// spoofed second fragment planted *before* the real fragments arrive wins
// the overlap and ends up in the reassembled packet.
func TestReassemblyFirstWinsPlanting(t *testing.T) {
	clk := simclock.New(t0)
	r := NewReassembler(clk, LinuxPolicy)
	p := newPacket(1000)
	frags, _ := Fragment(p, 576)
	if len(frags) != 2 {
		t.Fatalf("want 2 fragments, got %d", len(frags))
	}
	spoof := frags[1].Clone()
	spoof.Src = p.Src // spoofed source: pretends to be the nameserver
	for i := range spoof.Payload {
		spoof.Payload[i] = 0xEE
	}
	// Attacker plants the spoofed second fragment first.
	if _, ok := r.Add(spoof); ok {
		t.Fatal("spoofed fragment alone completed a packet")
	}
	// Real fragments arrive.
	if _, ok := r.Add(frags[0]); !ok {
		t.Fatal("planting + real first fragment did not complete")
	}
	// The second real fragment opens a fresh (now incomplete) bucket; it
	// must not produce a packet.
	if _, ok := r.Add(frags[1]); ok {
		t.Fatal("stray real second fragment completed a packet")
	}
}

func TestReassemblyFirstWinsContent(t *testing.T) {
	clk := simclock.New(t0)
	r := NewReassembler(clk, LinuxPolicy)
	p := newPacket(1000)
	frags, _ := Fragment(p, 576)
	spoof := frags[1].Clone()
	for i := range spoof.Payload {
		spoof.Payload[i] = 0xEE
	}
	r.Add(spoof)
	got, ok := r.Add(frags[0])
	if !ok {
		t.Fatal("reassembly did not complete")
	}
	tail := got.Payload[frags[1].FragOff:]
	for i, b := range tail {
		if b != 0xEE {
			t.Fatalf("byte %d of tail = %#x, want spoofed 0xEE", i, b)
		}
	}
	head := got.Payload[:frags[1].FragOff]
	if !bytes.Equal(head, p.Payload[:frags[1].FragOff]) {
		t.Error("head of reassembled packet is not the real first fragment")
	}
}

func TestReassemblyLastWinsOverwrites(t *testing.T) {
	clk := simclock.New(t0)
	pol := LinuxPolicy
	pol.Overlap = LastWins
	r := NewReassembler(clk, pol)
	p := newPacket(1000)
	frags, _ := Fragment(p, 576)
	spoof := frags[1].Clone()
	for i := range spoof.Payload {
		spoof.Payload[i] = 0xEE
	}
	// Spoof is planted first, then the real second fragment overwrites it
	// (LastWins), then the first fragment completes the datagram.
	r.Add(spoof)
	r.Add(frags[1])
	got, ok := r.Add(frags[0])
	if !ok {
		t.Fatal("reassembly did not complete")
	}
	tail := got.Payload[frags[1].FragOff:]
	if !bytes.Equal(tail, frags[1].Payload) {
		t.Error("LastWins did not restore real second fragment")
	}
}

func TestReassemblyFirstWinsResistsOverwrite(t *testing.T) {
	clk := simclock.New(t0)
	r := NewReassembler(clk, LinuxPolicy) // FirstWins
	p := newPacket(1000)
	frags, _ := Fragment(p, 576)
	spoof := frags[1].Clone()
	for i := range spoof.Payload {
		spoof.Payload[i] = 0xEE
	}
	r.Add(spoof)
	r.Add(frags[1]) // real second fragment arrives before completion
	got, ok := r.Add(frags[0])
	if !ok {
		t.Fatal("reassembly did not complete")
	}
	tail := got.Payload[frags[1].FragOff:]
	for i, b := range tail {
		if b != 0xEE {
			t.Fatalf("byte %d = %#x; FirstWins let the real fragment overwrite the spoof", i, b)
		}
	}
}

func TestReassemblyTimeoutExpiresBucket(t *testing.T) {
	clk := simclock.New(t0)
	r := NewReassembler(clk, LinuxPolicy) // 30 s timeout
	p := newPacket(1000)
	frags, _ := Fragment(p, 576)
	r.Add(frags[1])
	clk.RunFor(31 * time.Second)
	if _, ok := r.Add(frags[0]); ok {
		t.Fatal("expired fragment still completed a packet")
	}
	if r.Stats().Expired != 1 {
		t.Errorf("Expired = %d, want 1", r.Stats().Expired)
	}
}

func TestReassemblyWithinTimeoutSucceeds(t *testing.T) {
	clk := simclock.New(t0)
	r := NewReassembler(clk, LinuxPolicy)
	p := newPacket(1000)
	frags, _ := Fragment(p, 576)
	r.Add(frags[1])
	clk.RunFor(29 * time.Second)
	if _, ok := r.Add(frags[0]); !ok {
		t.Fatal("fragment within timeout did not complete")
	}
}

// TestPlantedFragmentLifetimeAcrossTimeouts is DESIGN.md §5's
// defragmentation-timeout ablation: a planted second fragment waits for
// its first fragment exactly as long as the reassembly timeout — its
// bucket is alive 1 s before a 30, 60 or 120 s timeout and gone at it —
// so the timeout sets how often the attacker must re-plant (every 30 s at
// the Linux default, the paper's cadence).
func TestPlantedFragmentLifetimeAcrossTimeouts(t *testing.T) {
	for _, timeout := range []time.Duration{30 * time.Second, 60 * time.Second, 120 * time.Second} {
		clk := simclock.New(t0)
		r := NewReassembler(clk, ReassemblyPolicy{Timeout: timeout, MaxPerPair: 64, Overlap: FirstWins})
		r.Add(&Packet{Src: hostA, Dst: hostB, ID: 1, Proto: ProtoUDP, FragOff: 48, Payload: make([]byte, 64)})
		clk.RunFor(timeout - time.Second)
		if n := r.PendingBuckets(hostA, hostB, ProtoUDP); n != 1 {
			t.Errorf("timeout %v: %d buckets 1 s before it, want 1", timeout, n)
		}
		clk.RunFor(time.Second)
		if n := r.PendingBuckets(hostA, hostB, ProtoUDP); n != 0 {
			t.Errorf("timeout %v: %d buckets at it, want 0", timeout, n)
		}
	}
}

func TestReassemblyBucketCap(t *testing.T) {
	clk := simclock.New(t0)
	pol := ReassemblyPolicy{Timeout: 30 * time.Second, MaxPerPair: 4, Overlap: FirstWins}
	r := NewReassembler(clk, pol)
	// Plant 6 spoofed second fragments with distinct IPIDs.
	for id := 0; id < 6; id++ {
		f := &Packet{Src: hostA, Dst: hostB, ID: uint16(id), Proto: ProtoUDP, FragOff: 576 - HeaderLen&^7, MF: false, Payload: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
		f.FragOff = 552
		r.Add(f)
	}
	if got := r.PendingBuckets(hostA, hostB, ProtoUDP); got != 4 {
		t.Errorf("PendingBuckets = %d, want 4 (cap)", got)
	}
	if r.Stats().FragmentsOut != 2 {
		t.Errorf("FragmentsOut = %d, want 2", r.Stats().FragmentsOut)
	}
}

func TestReassemblyCapFreesAfterCompletion(t *testing.T) {
	clk := simclock.New(t0)
	pol := ReassemblyPolicy{Timeout: 30 * time.Second, MaxPerPair: 1, Overlap: FirstWins}
	r := NewReassembler(clk, pol)
	p := newPacket(1000)
	frags, _ := Fragment(p, 576)
	reassembleAll(r, frags)
	if got := r.PendingBuckets(hostA, hostB, ProtoUDP); got != 0 {
		t.Errorf("PendingBuckets = %d after completion, want 0", got)
	}
	// A new datagram with a different ID must now fit.
	p2 := newPacket(1000)
	p2.ID = 77
	frags2, _ := Fragment(p2, 576)
	if _, ok := reassembleAll(r, frags2); !ok {
		t.Error("cache did not free capacity after completion")
	}
}

func TestSequentialAllocatorIsPredictable(t *testing.T) {
	a := &SequentialAllocator{Counter: 100}
	for i := 0; i < 5; i++ {
		if got := a.Next(hostA, hostB); got != uint16(100+i) {
			t.Fatalf("Next() = %d, want %d", got, 100+i)
		}
	}
	// Probing via a different destination advances the same counter —
	// the property the attacker's extrapolation uses.
	if got := a.Next(hostA, attacker); got != 105 {
		t.Errorf("cross-destination Next() = %d, want 105", got)
	}
}

func TestPerDestAllocatorIsolatesDestinations(t *testing.T) {
	a := &PerDestAllocator{}
	for i := 0; i < 10; i++ {
		a.Next(hostA, attacker) // attacker probes
	}
	if got := a.Next(hostA, hostB); got != 0 {
		t.Errorf("victim-bound IPID = %d, want 0 (unaffected by probes)", got)
	}
}

func TestRandomAllocatorSpread(t *testing.T) {
	a := &RandomAllocator{State: 12345}
	seen := make(map[uint16]bool)
	for i := 0; i < 1000; i++ {
		seen[a.Next(hostA, hostB)] = true
	}
	if len(seen) < 900 {
		t.Errorf("random allocator produced only %d distinct IPIDs in 1000 draws", len(seen))
	}
}

func TestRandomAllocatorDeterministicPerSeed(t *testing.T) {
	a := &RandomAllocator{State: 7}
	b := &RandomAllocator{State: 7}
	for i := 0; i < 100; i++ {
		if a.Next(hostA, hostB) != b.Next(hostA, hostB) {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestICMPFragNeededRoundTrip(t *testing.T) {
	m := &ICMPFragNeeded{NextHopMTU: 296, OrigSrc: hostB, OrigDst: hostA, OrigProto: ProtoUDP}
	got, err := ParseICMPFragNeeded(m.Marshal())
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if *got != *m {
		t.Errorf("round trip = %+v, want %+v", got, m)
	}
}

func TestParseICMPOtherTypeIgnored(t *testing.T) {
	b := make([]byte, 8)
	b[0] = 8 // echo request
	got, err := ParseICMPFragNeeded(b)
	if err != nil || got != nil {
		t.Errorf("echo parse = %v, %v; want nil, nil", got, err)
	}
}

func TestParseICMPShort(t *testing.T) {
	if _, err := ParseICMPFragNeeded([]byte{3}); !errors.Is(err, ErrShortICMP) {
		t.Errorf("err = %v, want ErrShortICMP", err)
	}
	if _, err := ParseICMPFragNeeded([]byte{3, 4, 0, 0}); !errors.Is(err, ErrShortICMP) {
		t.Errorf("err = %v, want ErrShortICMP", err)
	}
}

func TestPMTUCacheUpdateAndLookup(t *testing.T) {
	clk := simclock.New(t0)
	c := NewPMTUCache(clk, MinMTU)
	if got := c.MTU(hostB); got != DefaultMTU {
		t.Errorf("default MTU = %d, want %d", got, DefaultMTU)
	}
	if !c.Update(hostB, 576) {
		t.Fatal("valid update rejected")
	}
	if got := c.MTU(hostB); got != 576 {
		t.Errorf("MTU = %d, want 576", got)
	}
	// Entries for other destinations, learned out of address order, keep
	// their own MTUs, and an unknown destination still gets the default.
	learned := map[Addr]int{hostB: 576}
	for i, dst := range []Addr{attacker, {10, 0, 0, 1}, hostA, {255, 255, 255, 255}, {}, {10, 0, 0, 2}} {
		mtu := 1000 - 100*i
		if !c.Update(dst, mtu) {
			t.Fatalf("update %v to %d rejected", dst, mtu)
		}
		learned[dst] = mtu
	}
	for dst, mtu := range learned {
		if got := c.MTU(dst); got != mtu {
			t.Errorf("MTU(%v) = %d, want %d", dst, got, mtu)
		}
	}
	if got := c.MTU(Addr{10, 0, 0, 3}); got != DefaultMTU {
		t.Errorf("MTU of an unknown destination = %d, want %d", got, DefaultMTU)
	}
}

func TestPMTUCacheFloor(t *testing.T) {
	clk := simclock.New(t0)
	c := NewPMTUCache(clk, 552)
	if c.Update(hostB, 296) {
		t.Error("update below floor accepted")
	}
	if got := c.MTU(hostB); got != DefaultMTU {
		t.Errorf("MTU = %d, want default after rejected update", got)
	}
}

func TestPMTUCacheNeverRaises(t *testing.T) {
	clk := simclock.New(t0)
	c := NewPMTUCache(clk, MinMTU)
	c.Update(hostB, 296)
	if c.Update(hostB, 1400) {
		t.Error("ICMP raised path MTU")
	}
	if got := c.MTU(hostB); got != 296 {
		t.Errorf("MTU = %d, want 296", got)
	}
}

func TestPMTUCacheExpiry(t *testing.T) {
	clk := simclock.New(t0)
	c := NewPMTUCache(clk, MinMTU)
	c.Update(hostB, 296)
	clk.RunFor(11 * time.Minute)
	if got := c.MTU(hostB); got != DefaultMTU {
		t.Errorf("MTU = %d after expiry, want %d", got, DefaultMTU)
	}
	// And a fresh (even larger) update is accepted again after expiry.
	if !c.Update(hostB, 576) {
		t.Error("post-expiry update rejected")
	}
}

// Property: Fragment followed by Reassembler.Add over any permutation-free
// in-order delivery reproduces the payload, for arbitrary sizes and MTUs.
func TestPropertyFragmentReassembleRoundTrip(t *testing.T) {
	f := func(size uint16, mtuRaw uint16) bool {
		payloadLen := int(size)%4000 + 1
		mtu := MinMTU + int(mtuRaw)%(DefaultMTU-MinMTU)
		p := newPacket(payloadLen)
		frags, err := Fragment(p, mtu)
		if err != nil {
			return false
		}
		clk := simclock.New(t0)
		r := NewReassembler(clk, RFCPolicy)
		got, ok := reassembleAll(r, frags)
		return ok && bytes.Equal(got.Payload, p.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPacketString(t *testing.T) {
	p := newPacket(100)
	if s := p.String(); s == "" {
		t.Error("empty String()")
	}
	frags, _ := Fragment(newPacket(2000), 576)
	if s := frags[0].String(); s == "" {
		t.Error("empty fragment String()")
	}
}

func TestProtocolString(t *testing.T) {
	if ProtoUDP.String() != "udp" || ProtoICMP.String() != "icmp" {
		t.Error("unexpected protocol names")
	}
	if Protocol(99).String() == "" {
		t.Error("unknown protocol has empty name")
	}
}
