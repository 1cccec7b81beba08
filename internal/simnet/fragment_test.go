package simnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"dnstime/internal/ipv4"
	"dnstime/internal/simclock"
	"dnstime/internal/udp"
)

// refSend is the reference for the send paths: a udp.Datagram marshalled
// and copied through udp.WithChecksum, then cut by ipv4.Fragment, with
// SendUDPMTU's forced split of a datagram that fits whole. A datagram that
// SendUDP (forceSplit false) sends as one packet carries the marshalled
// bytes with the checksum field left zero. It returns the packets the host
// must emit, in order, or the error.
func refSend(src, dst ipv4.Addr, id uint16, payload []byte, mtu int, forceSplit bool) ([]*ipv4.Packet, error) {
	d := &udp.Datagram{Header: udp.Header{SrcPort: 4000, DstPort: 53}, Payload: payload}
	wire := udp.WithChecksum(src, dst, d.Marshal())
	pkt := &ipv4.Packet{Src: src, Dst: dst, ID: id, Proto: ipv4.ProtoUDP, TTL: ipv4.DefaultTTL, Payload: wire}
	frags, err := ipv4.Fragment(pkt, mtu)
	if err != nil {
		return nil, fmt.Errorf("send udp %s -> %s: %w", src, dst, err)
	}
	if !forceSplit && len(frags) == 1 {
		frags[0].Payload = d.Marshal()
	}
	if forceSplit && len(frags) == 1 && len(wire) > 16 {
		if cut := (len(wire) / 2) &^ 7; cut >= 8 {
			first := pkt.Clone()
			first.MF = true
			first.Payload = wire[:cut]
			second := pkt.Clone()
			second.FragOff = cut
			second.Payload = wire[cut:]
			frags = []*ipv4.Packet{first, second}
		}
	}
	return frags, nil
}

// samePacket compares every field the network acts on.
func samePacket(got, want *ipv4.Packet) bool {
	return got.Src == want.Src && got.Dst == want.Dst && got.ID == want.ID &&
		got.MF == want.MF && got.DF == want.DF && got.FragOff == want.FragOff &&
		got.TTL == want.TTL && got.Proto == want.Proto && bytes.Equal(got.Payload, want.Payload)
}

// oracleSizes are the payload lengths from 0 to 1 500 bytes on both sides
// of every 8-byte boundary.
func oracleSizes() []int {
	var sizes []int
	for k := 0; k <= 1500; k += 8 {
		for _, n := range []int{k - 1, k, k + 1} {
			if n >= 0 && n <= 1500 {
				sizes = append(sizes, n)
			}
		}
	}
	return sizes
}

// TestFragmentedSendMatchesReference: SendUDP (at a link MTU) and
// SendUDPMTU emit exactly the reference's packets — addresses, IPID, MF,
// offset, TTL, protocol and payload bytes, in order — count them in
// SentPackets, and draw one IPID per send, for MTUs at and just above the
// minimum, at odd and common sizes, and payloads across every 8-byte
// boundary up to 1 500 bytes. So a fragmented or SendUDPMTU datagram
// carries the full checksum, and one SendUDP sends whole a zero checksum
// field; the test also checks each send's checksum field directly.
func TestFragmentedSendMatchesReference(t *testing.T) {
	var sent []*ipv4.Packet
	n := New(simclock.New(t0), WithTrace(func(e TraceEvent) {
		if e.Kind == TraceSend {
			sent = append(sent, e.Pkt.Clone())
		}
	}))
	payload := make([]byte, 1500)
	for i := range payload {
		payload[i] = byte(i*7 + i>>8)
	}
	ids := &ipv4.SequentialAllocator{Counter: 1000, Step: 3}
	for _, mtu := range []int{68, 69, 76, 296, 576, 1500} {
		for _, forceSplit := range []bool{false, true} {
			n.RemoveHost(addrA)
			a, err := n.AddHost(addrA, HostConfig{LinkMTU: mtu, IDAlloc: ids})
			if err != nil {
				t.Fatal(err)
			}
			for _, size := range oracleSizes() {
				sent = sent[:0]
				id, before := ids.Counter, a.SentPackets
				want, wantErr := refSend(addrA, addrB, id, payload[:size], mtu, forceSplit)
				var gotID uint16
				if forceSplit {
					gotID, err = a.SendUDPMTU(addrB, 4000, 53, payload[:size], mtu)
				} else {
					gotID, err = a.SendUDP(addrB, 4000, 53, payload[:size])
				}
				name := fmt.Sprintf("mtu %d, %d-byte payload, forced split %t", mtu, size, forceSplit)
				if err != nil || wantErr != nil {
					t.Fatalf("%s: error %v, reference %v", name, err, wantErr)
				}
				if gotID != id || ids.Counter != id+3 {
					t.Fatalf("%s: returned IPID %d and left the allocator at %d, want %d and %d", name, gotID, ids.Counter, id, id+3)
				}
				if a.SentPackets-before != len(want) || len(sent) != len(want) {
					t.Fatalf("%s: counted %d and emitted %d packets, reference %d", name, a.SentPackets-before, len(sent), len(want))
				}
				for i := range want {
					if !samePacket(sent[i], want[i]) {
						t.Fatalf("%s: packet %d is %v %x, reference %v %x", name, i, sent[i], sent[i].Payload, want[i], want[i].Payload)
					}
				}
				if sum := binary.BigEndian.Uint16(sent[0].Payload[6:8]); (sum != 0) != (forceSplit || len(sent) > 1) {
					t.Fatalf("%s: %d packets, checksum field %#04x", name, len(sent), sum)
				}
			}
		}
	}
}

// TestFragmentedSendBelowMinimumMTU: an MTU below ipv4.MinMTU fails both
// send calls with the reference's wrapped ipv4.ErrBadMTU, after the IPID
// draw and before any packet leaves.
func TestFragmentedSendBelowMinimumMTU(t *testing.T) {
	var sends int
	n := New(simclock.New(t0), WithTrace(func(e TraceEvent) {
		if e.Kind == TraceSend {
			sends++
		}
	}))
	ids := &ipv4.SequentialAllocator{Counter: 9}
	a, err := n.AddHost(addrA, HostConfig{LinkMTU: 60, IDAlloc: ids})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{7}, 100)
	_, wantErr := refSend(addrA, addrB, 9, payload, 60, false)
	for name, send := range map[string]func() (uint16, error){
		"SendUDP":    func() (uint16, error) { return a.SendUDP(addrB, 4000, 53, payload) },
		"SendUDPMTU": func() (uint16, error) { return a.SendUDPMTU(addrB, 4000, 53, payload, 60) },
	} {
		before := ids.Counter
		id, err := send()
		if !errors.Is(err, ipv4.ErrBadMTU) || err.Error() != wantErr.Error() {
			t.Errorf("%s: error %v, want %v", name, err, wantErr)
		}
		if id != 0 || ids.Counter != before+1 {
			t.Errorf("%s: returned IPID %d and advanced the allocator by %d, want 0 and 1", name, id, ids.Counter-before)
		}
	}
	if sends != 0 || a.SentPackets != 0 {
		t.Errorf("%d packets emitted and %d counted, want none", sends, a.SentPackets)
	}
}
