package simnet

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"dnstime/internal/ipv4"
	"dnstime/internal/netem"
	"dnstime/internal/simclock"
)

// TestTraceKindStrings pins every kind's name (the "?" fallback included):
// trace files and log lines embed these strings, so renames are breaking.
func TestTraceKindStrings(t *testing.T) {
	want := map[TraceKind]string{
		TraceSend:         "send",
		TraceDeliver:      "deliver",
		TraceDrop:         "drop",
		TraceReassembled:  "reasm",
		TraceChecksumFail: "badsum",
		TraceKind(0):      "?",
		TraceKind(99):     "?",
	}
	for k, s := range want {
		if got := k.String(); got != s {
			t.Errorf("TraceKind(%d).String() = %q, want %q", int(k), got, s)
		}
	}
}

// TestTraceEventString: the human-readable rendering carries the virtual
// time, the kind, and the packet summary.
func TestTraceEventString(t *testing.T) {
	pkt := &ipv4.Packet{Src: addrA, Dst: addrB, ID: 7, Proto: ipv4.ProtoUDP, TTL: 64}
	e := TraceEvent{Time: t0.Add(1500 * time.Millisecond), Kind: TraceDeliver, Pkt: pkt}
	s := e.String()
	for _, part := range []string{"00:00:01.500", "deliver", addrA.String(), addrB.String()} {
		if !strings.Contains(s, part) {
			t.Errorf("TraceEvent.String() = %q, missing %q", s, part)
		}
	}
}

// tracedRun drives a fixed traffic pattern over a lossy, jittery seeded
// network and returns the formatted trace-event sequence. reset reuses a
// recycled network via Reset instead of building fresh, mirroring what the
// lab pool does between seeds.
func tracedRun(t *testing.T, seed int64, recycled *Network) (*Network, []string) {
	t.Helper()
	var events []string
	opts := []Option{
		WithSeed(seed),
		WithPathModel(&netem.Path{Loss: netem.IID{P: 0.3}}),
		WithTrace(func(e TraceEvent) {
			// Pkt is pooled: format now, never retain.
			events = append(events, fmt.Sprintf("%s %s>%s id=%d off=%d len=%d",
				e.Kind, e.Pkt.Src, e.Pkt.Dst, e.Pkt.ID, e.Pkt.FragOff, len(e.Pkt.Payload)))
		}),
	}
	var n *Network
	if recycled != nil {
		recycled.RemoveHost(addrA)
		recycled.RemoveHost(addrB)
		recycled.Reset(opts...)
		recycled.Clock().Reset(t0)
		n = recycled
	} else {
		n = New(simclock.New(t0), opts...)
	}
	a := n.MustAddHost(addrA, HostConfig{})
	b := n.MustAddHost(addrB, HostConfig{})
	b.HandleUDP(53, func(src ipv4.Addr, port uint16, payload []byte) {})
	for i := 0; i < 20; i++ {
		if _, err := a.SendUDP(addrB, uint16(4000+i), 53, []byte("probe-payload")); err != nil {
			t.Fatal(err)
		}
		n.Clock().RunFor(5 * time.Millisecond)
	}
	n.Clock().RunFor(time.Second)
	return n, events
}

// TestTraceOrderDeterminism is the trace ordering contract from the
// package godoc: for a fixed seed the WithTrace callback sees the
// identical event sequence on every run — fresh network or one recycled
// through Reset (the lab pool path). Campaign workers each drive their
// own network single-threaded, so per-seed sequences are also independent
// of worker count; the engine-level equivalence test covers that half.
func TestTraceOrderDeterminism(t *testing.T) {
	const seed = 42
	n, ref := tracedRun(t, seed, nil)
	if len(ref) == 0 {
		t.Fatal("traced run produced no events")
	}
	// Sanity: a 30% loss pattern must show both delivers and drops.
	joined := strings.Join(ref, "\n")
	if !strings.Contains(joined, "send") || !strings.Contains(joined, "deliver") || !strings.Contains(joined, "drop") {
		t.Fatalf("trace lacks expected kinds:\n%s", joined)
	}
	for run := 0; run < 3; run++ {
		_, got := tracedRun(t, seed, nil)
		if fresh := strings.Join(got, "\n"); fresh != joined {
			t.Fatalf("fresh run %d diverged:\n%s\nvs\n%s", run, fresh, joined)
		}
	}
	// Recycled path: Reset must reproduce the same sequence bit for bit.
	for run := 0; run < 2; run++ {
		var got []string
		n, got = tracedRun(t, seed, n)
		if rec := strings.Join(got, "\n"); rec != joined {
			t.Fatalf("recycled run %d diverged:\n%s\nvs\n%s", run, rec, joined)
		}
	}
	// A different seed must diverge (the trace actually depends on seed).
	if _, other := tracedRun(t, seed+1, nil); strings.Join(other, "\n") == joined {
		t.Error("seed 42 and 43 produced identical traces; loss pattern not seeded?")
	}
}
