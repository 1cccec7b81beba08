package simnet

import (
	"errors"
	"math/rand"
	"testing"

	"dnstime/internal/ipv4"
	"dnstime/internal/simclock"
)

// collidingAddrs returns n addresses, half of them with one home slot and
// half with the last slot as home (so their probe runs wrap round to slot
// 0), in a table of minHostSlots slots.
func collidingAddrs(n int) []ipv4.Addr {
	t := hostTable{}
	t.resize(minHostSlots)
	var out []ipv4.Addr
	for _, home := range []int{3, minHostSlots - 1} {
		for i, found := 0, 0; found < n/2; i++ {
			a := ipv4.Addr{10, 7, byte(i >> 8), byte(i)}
			if t.home(hostKey(a)) == home {
				out = append(out, a)
				found++
			}
		}
	}
	return out
}

// TestHostTableMatchesMap runs a long random sequence of AddHost,
// RemoveHost and Reattach over 48 addresses whose home slots collide in a
// 16-slot table, so the table grows past 16 slots, probes wrap round and
// removals shift long runs back. After every operation, Network.Host of
// every address must be the host a plain map holds for it, and a datagram
// sent to the operated address must be delivered exactly when a host is
// attached there; one sent to a removed address is dropped.
func TestHostTableMatchesMap(t *testing.T) {
	addrs := collidingAddrs(48)
	clk := simclock.New(t0)
	var dropped []ipv4.Addr
	n := New(clk, WithTrace(func(e TraceEvent) {
		if e.Kind == TraceDrop {
			dropped = append(dropped, e.Pkt.Dst)
		}
	}))
	sender := n.MustAddHost(addrEve, HostConfig{})
	ref := map[ipv4.Addr]*Host{addrEve: sender}
	made := make([]*Host, len(addrs)) // the last host added at each address
	rng := rand.New(rand.NewSource(1))
	grew := false
	for step := range 4000 {
		k := rng.Intn(len(addrs))
		a := addrs[k]
		switch op := rng.Intn(3); op {
		case 0:
			h, err := n.AddHost(a, HostConfig{})
			if ref[a] != nil {
				if !errors.Is(err, ErrDuplicateHost) {
					t.Fatalf("step %d: AddHost(%v) over an attached host: %v", step, a, err)
				}
				break
			}
			if err != nil {
				t.Fatalf("step %d: AddHost(%v): %v", step, a, err)
			}
			ref[a], made[k] = h, h
		case 1:
			n.RemoveHost(a)
			delete(ref, a)
		case 2:
			if made[k] == nil {
				break
			}
			err := n.Reattach(made[k], HostConfig{})
			if ref[a] != nil {
				if !errors.Is(err, ErrDuplicateHost) {
					t.Fatalf("step %d: Reattach(%v) over an attached host: %v", step, a, err)
				}
				break
			}
			if err != nil {
				t.Fatalf("step %d: Reattach(%v): %v", step, a, err)
			}
			ref[a] = made[k]
		}
		for _, b := range addrs {
			if got := n.Host(b); got != ref[b] {
				t.Fatalf("step %d: Host(%v) = %p, the map holds %p", step, b, got, ref[b])
			}
		}
		if n.hosts.n != len(ref) || 2*n.hosts.n > len(n.hosts.slots) {
			t.Fatalf("step %d: table holds %d hosts in %d slots, the map %d", step, n.hosts.n, len(n.hosts.slots), len(ref))
		}
		grew = grew || len(n.hosts.slots) > minHostSlots

		var before int
		if h := made[k]; h != nil {
			before = h.ReceivedPackets
		}
		dropped = dropped[:0]
		if _, err := sender.SendUDP(a, 7, 7, []byte{byte(step)}); err != nil {
			t.Fatal(err)
		}
		clk.Run()
		delivered := made[k] != nil && made[k].ReceivedPackets > before
		if attached := ref[a] != nil; delivered != attached || !attached && (len(dropped) != 1 || dropped[0] != a) {
			t.Fatalf("step %d: datagram to %v delivered %t, dropped %v; host attached %t", step, a, delivered, dropped, attached)
		}
	}
	if !grew {
		t.Errorf("the table never grew past %d slots", minHostSlots)
	}
}
