package simnet

import (
	"bytes"
	"testing"
	"time"

	"dnstime/internal/ipv4"
	"dnstime/internal/simclock"
	"dnstime/internal/udp"
)

// allocBudgetRoundTrip is the committed budget for one UDP request/response
// round trip between two warm hosts: send, deliver, reply, deliver. The
// packet free list, the clock's event arena and the delivery-argument pool
// make the steady state allocation-free.
const allocBudgetRoundTrip = 0

func TestAllocBudgetPacketRoundTrip(t *testing.T) {
	n, a, b := twoHosts(t)
	if err := b.HandleUDP(53, func(src ipv4.Addr, srcPort uint16, p []byte) {
		if _, err := b.SendUDP(src, 53, srcPort, p); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	got := 0
	if err := a.HandleUDP(4444, func(ipv4.Addr, uint16, []byte) { got++ }); err != nil {
		t.Fatal(err)
	}
	payload := []byte("query")
	clk := n.Clock()
	roundTrip := func() {
		if _, err := a.SendUDP(addrB, 4444, 53, payload); err != nil {
			t.Fatal(err)
		}
		clk.RunFor(time.Second)
	}
	// Warm the free lists before measuring.
	for i := 0; i < 8; i++ {
		roundTrip()
	}
	avg := testing.AllocsPerRun(200, roundTrip)
	if avg > allocBudgetRoundTrip {
		t.Errorf("%.1f allocs per warm packet round trip, budget %d", avg, allocBudgetRoundTrip)
	}
	if got == 0 {
		t.Fatal("no responses delivered")
	}
}

// allocBudgetFragRoundTrip is the committed budget for one warm
// fragmented round trip: a 428-byte datagram at MTU 68 each way, cut into
// nine pooled fragments from the host's scratch, delivered and
// reassembled into a pooled packet whose bucket keeps its buffers.
const allocBudgetFragRoundTrip = 0

func TestAllocBudgetFragmentedRoundTrip(t *testing.T) {
	clk := simclock.New(t0)
	n := New(clk)
	a := n.MustAddHost(addrA, HostConfig{LinkMTU: ipv4.MinMTU})
	b := n.MustAddHost(addrB, HostConfig{LinkMTU: ipv4.MinMTU})
	payload := make([]byte, 428-udp.HeaderLen)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := b.HandleUDP(53, func(src ipv4.Addr, srcPort uint16, p []byte) {
		if _, err := b.SendUDP(src, 53, srcPort, p); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	got := 0
	if err := a.HandleUDP(4444, func(_ ipv4.Addr, _ uint16, p []byte) {
		if bytes.Equal(p, payload) {
			got++
		}
	}); err != nil {
		t.Fatal(err)
	}
	roundTrip := func() {
		if _, err := a.SendUDP(addrB, 4444, 53, payload); err != nil {
			t.Fatal(err)
		}
		clk.RunFor(time.Second)
	}
	// Warm the free lists and the reassembly buckets before measuring.
	for i := 0; i < 8; i++ {
		roundTrip()
	}
	avg := testing.AllocsPerRun(200, roundTrip)
	if avg > allocBudgetFragRoundTrip {
		t.Errorf("%.1f allocs per warm fragmented round trip, budget %d", avg, allocBudgetFragRoundTrip)
	}
	if want := 8 + 201; got != want || b.Reassembler().Stats().Reassembled != want {
		t.Fatalf("%d intact echoes and %d reassemblies at the server, want %d of each", got, b.Reassembler().Stats().Reassembled, want)
	}
}
