package simnet

import (
	"errors"
	"fmt"
	"testing"

	"dnstime/internal/ipv4"
	"dnstime/internal/simclock"
)

// refPorts is FuzzHostPorts' reference for one host object: whether it is
// attached, its bound ports in a plain map from port to handler id, and
// its next ephemeral port.
type refPorts struct {
	attached bool
	ports    map[uint16]int
	next     uint16
}

func newRefPorts() *refPorts {
	return &refPorts{attached: true, ports: map[uint16]int{}, next: 49152}
}

// fuzzPort maps two input bytes onto a port: a well-known one, the bottom
// or the top of the ephemeral range (where AllocPort starts and wraps), or
// any port at all.
func fuzzPort(sel, b byte) uint16 {
	switch sel & 3 {
	case 0:
		return uint16(b)
	case 1:
		return 49152 + uint16(b)
	case 2:
		return 65535 - uint16(b)
	default:
		return uint16(sel)<<8 | uint16(b)
	}
}

// Host operations FuzzHostPorts decodes, one per fuzzPortOpBytes bytes.
const (
	opHandle = iota
	opUnhandle
	opAlloc
	opSend
	opAddHost
	opRemoveHost
	opReattach
	nPortOps
	fuzzPortOpBytes = 4
	fuzzPortMaxOps  = 512
)

// FuzzHostPorts runs arbitrary sequences of HandleUDP (nil handlers
// included), UnhandleUDP, AllocPort (binding the port it returns or not),
// datagram sends, AddHost, RemoveHost and Reattach over three addresses
// and compares them with refPorts: every error, every allocated port, and
// for every datagram the handler it reaches, if any. After each step every
// host's port table must be strictly sorted and hold exactly the
// reference's ports.
func FuzzHostPorts(f *testing.F) {
	op := func(kind, host, sel, b byte) []byte { return []byte{kind, host, sel, b} }
	seed := func(ops ...[]byte) []byte {
		var data []byte
		for _, o := range ops {
			data = append(data, o...)
		}
		return data
	}
	f.Add(seed(
		op(opAddHost, 0, 0, 0), op(opHandle, 0, 0, 53), op(opHandle, 0, 0, 123),
		op(opSend, 0, 0, 53), op(opSend, 0, 0, 54), op(opHandle, 0, 0, 53),
		op(opUnhandle, 0, 0, 53), op(opSend, 0, 0, 53), op(opHandle, 0x80, 0, 53),
		op(opSend, 0, 0, 53), op(opHandle, 0, 0, 53), op(opSend, 0, 0, 53)))
	f.Add(seed(
		op(opAddHost, 1, 0, 0), op(opAlloc, 0x81, 0, 0), op(opAlloc, 0x81, 0, 0),
		op(opAlloc, 1, 0, 0), op(opHandle, 1, 1, 2), op(opSend, 1, 1, 0),
		op(opSend, 1, 1, 1), op(opSend, 1, 1, 2), op(opUnhandle, 1, 1, 0),
		op(opSend, 1, 1, 0), op(opHandle, 1, 2, 0), op(opSend, 1, 2, 0)))
	f.Add(seed(
		op(opAddHost, 2, 0, 0), op(opHandle, 2, 0, 7), op(opRemoveHost, 2, 0, 0),
		op(opSend, 2, 0, 7), op(opHandle, 2, 0, 7), op(opAddHost, 2, 0, 0),
		op(opReattach, 2, 0, 0), op(opSend, 2, 0, 7), op(opRemoveHost, 2, 0, 0),
		op(opReattach, 2, 0, 0), op(opReattach, 2, 0, 0), op(opHandle, 2, 0, 7),
		op(opSend, 2, 0, 7), op(opAddHost, 2, 0, 0)))
	// A reattached host starts with no ports bound.
	f.Add(seed(
		op(opAddHost, 0, 0, 0), op(opHandle, 0, 0, 7), op(opHandle, 0, 1, 9),
		op(opRemoveHost, 0, 0, 0), op(opReattach, 0, 0, 0), op(opSend, 0, 0, 7),
		op(opSend, 0, 1, 9), op(opHandle, 0, 1, 9), op(opSend, 0, 1, 9)))
	f.Fuzz(func(t *testing.T, data []byte) {
		clk := simclock.New(t0)
		n := New(clk)
		sender := n.MustAddHost(addrEve, HostConfig{})
		addrs := [3]ipv4.Addr{addrA, addrB, ipv4.MustParseAddr("10.0.0.1")}
		var hosts [3]*Host
		var refs [3]*refPorts
		reached := -1 // the handler id the last datagram reached
		for step := 0; len(data) >= fuzzPortOpBytes && step < fuzzPortMaxOps; step++ {
			b := data[:fuzzPortOpBytes]
			data = data[fuzzPortOpBytes:]
			i := int(b[1]&0x7f) % len(addrs)
			h, ref := hosts[i], refs[i]
			port := fuzzPort(b[2], b[3])
			id := step
			handler := func(ipv4.Addr, uint16, []byte) { reached = id }
			fail := func(format string, args ...any) {
				t.Helper()
				t.Fatalf("step %d (op %d, host %d, port %d): %s", step, b[0]%nPortOps, i, port, fmt.Sprintf(format, args...))
			}
			switch b[0] % nPortOps {
			case opHandle:
				if h == nil {
					continue
				}
				var want error
				fn := UDPHandler(handler)
				if b[1]&0x80 != 0 {
					fn, want = nil, ErrNilHandler
				} else if _, bound := ref.ports[port]; bound {
					want = ErrPortInUse
				} else {
					ref.ports[port] = id
				}
				if err := h.HandleUDP(port, fn); !errors.Is(err, want) || (want == nil) != (err == nil) {
					fail("HandleUDP error %v, reference %v", err, want)
				}
			case opUnhandle:
				if h == nil {
					continue
				}
				h.UnhandleUDP(port)
				delete(ref.ports, port)
			case opAlloc:
				if h == nil {
					continue
				}
				got, want := h.AllocPort(), ref.next
				if ref.next++; ref.next == 0 {
					ref.next = 49152
				}
				if got != want {
					fail("AllocPort %d, reference %d", got, want)
				}
				if b[1]&0x80 != 0 {
					_, bound := ref.ports[got]
					if err := h.HandleUDP(got, handler); bound != errors.Is(err, ErrPortInUse) || !bound && err != nil {
						fail("HandleUDP of allocated port %d: %v, reference bound %t", got, err, bound)
					}
					if !bound {
						ref.ports[got] = id
					}
				}
			case opSend:
				reached = -1
				if _, err := sender.SendUDP(addrs[i], 7, port, []byte{b[3]}); err != nil {
					fail("SendUDP: %v", err)
				}
				clk.Run()
				want := -1
				if ref != nil && ref.attached {
					if hid, ok := ref.ports[port]; ok {
						want = hid
					}
				}
				if reached != want {
					fail("datagram reached handler %d, reference %d", reached, want)
				}
			case opAddHost:
				got, err := n.AddHost(addrs[i], HostConfig{})
				if ref != nil && ref.attached {
					if !errors.Is(err, ErrDuplicateHost) {
						fail("AddHost over an attached host: %v", err)
					}
					continue
				}
				if err != nil {
					fail("AddHost: %v", err)
				}
				hosts[i], refs[i] = got, newRefPorts()
			case opRemoveHost:
				n.RemoveHost(addrs[i])
				if ref != nil {
					ref.attached = false
				}
			case opReattach:
				if h == nil {
					continue
				}
				err := n.Reattach(h, HostConfig{})
				if ref.attached {
					if !errors.Is(err, ErrDuplicateHost) {
						fail("Reattach of an attached host: %v", err)
					}
					continue
				}
				if err != nil {
					fail("Reattach: %v", err)
				}
				refs[i] = newRefPorts()
			}
			for j, h := range hosts {
				if h == nil {
					continue
				}
				if len(h.ports) != len(refs[j].ports) || len(h.handlers) != len(h.ports) {
					fail("host %d binds %d ports with %d handlers, reference %d", j, len(h.ports), len(h.handlers), len(refs[j].ports))
				}
				for k, port := range h.ports {
					if _, ok := refs[j].ports[port]; !ok || k > 0 && h.ports[k-1] >= port || h.handlers[k] == nil {
						fail("host %d port table %v is unsorted or binds %d, which the reference does not", j, h.ports, port)
					}
				}
			}
		}
	})
}

// BenchmarkDeliverPorts times one datagram sent and delivered to a host
// with 1 and with 16 384 bound ports (the most the per-server §VII-A scan
// binds on its one scanner host), each datagram to the next bound port in
// turn: the port lookup is a binary search, so the larger table may cost
// a few comparisons more, never a scan.
func BenchmarkDeliverPorts(b *testing.B) {
	for _, bound := range []int{1, 16384} {
		b.Run(fmt.Sprintf("ports=%d", bound), func(b *testing.B) {
			clk := simclock.New(t0)
			n := New(clk)
			a := n.MustAddHost(addrA, HostConfig{})
			dst := n.MustAddHost(addrB, HostConfig{})
			got := 0
			ports := make([]uint16, bound)
			for i := range ports {
				ports[i] = dst.AllocPort()
				if err := dst.HandleUDP(ports[i], func(ipv4.Addr, uint16, []byte) { got++ }); err != nil {
					b.Fatal(err)
				}
			}
			payload := make([]byte, 48)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.SendUDP(addrB, 4444, ports[i%bound], payload); err != nil {
					b.Fatal(err)
				}
				clk.Run()
			}
			if got != b.N {
				b.Fatalf("%d of %d datagrams reached a handler", got, b.N)
			}
		})
	}
}
