// Package simnet provides a deterministic simulated internetwork. Hosts are
// identified by IPv4 addresses and exchange UDP datagrams carried in
// (possibly fragmented) IPv4 packets over links whose latency, loss and
// reordering are decided by a netem.PathModel (see internal/netem and
// DESIGN.md §8); the default model is a fixed 10 ms lossless link. The
// network supports the off-path attacker model of the paper: any host may
// inject raw packets with arbitrary (spoofed) source addresses, but no
// host can observe traffic between other hosts.
//
// Each host owns the receiver-side state the attack manipulates: an IPv4
// defragmentation cache (internal/ipv4.Reassembler), a path-MTU cache
// updated by ICMP Fragmentation Needed messages, and an IPID allocator for
// outgoing packets.
//
// # Trace ordering contract
//
// The WithTrace callback observes packet events synchronously from the
// single goroutine driving the network's clock, in the exact order the
// network processes them. That order is deterministic: the simulation's
// clock executes events in the strict (timestamp, insertion-sequence)
// total order, and all randomness (latency jitter, loss, IPID choices)
// derives from the network's seed. Two runs of the same scenario at the
// same seed therefore produce the identical trace-event sequence — at any
// campaign worker count and whether the lab was built fresh or recycled
// from the pool — which is what makes recorded traces byte-reproducible.
package simnet

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"dnstime/internal/ipv4"
	"dnstime/internal/netem"
	"dnstime/internal/simclock"
	"dnstime/internal/udp"
)

// Errors returned by this package.
var (
	ErrDuplicateHost = errors.New("simnet: host address already in use")
	ErrPortInUse     = errors.New("simnet: UDP port already has a handler")
	ErrNoSuchHost    = errors.New("simnet: no host with that address")
)

// TraceKind classifies packet-trace events.
type TraceKind int

// Trace event kinds.
const (
	TraceSend TraceKind = iota + 1
	TraceDeliver
	TraceDrop
	TraceReassembled
	TraceChecksumFail
)

// String names the trace kind.
func (k TraceKind) String() string {
	switch k {
	case TraceSend:
		return "send"
	case TraceDeliver:
		return "deliver"
	case TraceDrop:
		return "drop"
	case TraceReassembled:
		return "reasm"
	case TraceChecksumFail:
		return "badsum"
	default:
		return "?"
	}
}

// TraceEvent is one entry in a packet trace.
type TraceEvent struct {
	Time time.Time
	Kind TraceKind
	Pkt  *ipv4.Packet
}

// String renders the event for human-readable traces.
func (e TraceEvent) String() string {
	return fmt.Sprintf("%s %-7s %s", e.Time.Format("15:04:05.000"), e.Kind, e.Pkt)
}

// Network is the simulated internetwork.
//
// Delivery is allocation-lean: in-flight packets and their delivery events
// come from per-network free lists (the network is driven by one
// single-threaded clock, so the lists need no locking) and are recycled as
// soon as the receiving host's handlers return. Consequently UDP handlers,
// raw observers and trace callbacks must not retain the packets or payload
// slices they are given beyond the call — copy what must outlive it.
type Network struct {
	clock *simclock.Clock
	hosts map[ipv4.Addr]*Host
	path  netem.PathModel
	rng   *rand.Rand
	trace func(TraceEvent)

	pktFree []*ipv4.Packet
	delFree []*delivery
}

// Option configures a Network.
type Option func(*Network)

// WithPathModel routes every link through m — latency, loss and
// reordering per directed pair (see internal/netem for the composable
// models and named profiles). The model draws from the network RNG
// (WithSeed); stateful models must not be shared between networks, so
// build a fresh one per Network.
func WithPathModel(m netem.PathModel) Option {
	return func(n *Network) {
		if m != nil {
			n.path = m
		}
	}
}

// WithSeed derives the network RNG — the source of all link randomness
// (loss draws, latency jitter, reordering) — from seed. Labs pass their
// campaign seed so link behaviour is deterministic per run and
// independent of campaign worker count. The default seed is 1, the value
// the pre-netem network hard-coded.
func WithSeed(seed int64) Option {
	return func(n *Network) { n.rng.Seed(seed) }
}

// WithTrace installs a packet-trace callback. Traced packets may be pooled
// and recycled after the surrounding processing step: callbacks must not
// retain the event's Pkt or its payload (format or copy what they need).
// Events arrive synchronously in processing order, which is deterministic
// per seed (see the package comment's trace ordering contract).
func WithTrace(f func(TraceEvent)) Option {
	return func(n *Network) { n.trace = f }
}

// New creates a network driven by clock. The default link is netem's
// zero-value Path: 10 ms one-way, lossless, in-order, consuming no
// randomness.
func New(clock *simclock.Clock, opts ...Option) *Network {
	n := &Network{
		clock: clock,
		hosts: make(map[ipv4.Addr]*Host),
		path:  &netem.Path{},
		rng:   rand.New(rand.NewSource(1)),
	}
	for _, o := range opts {
		o(n)
	}
	return n
}

// Clock returns the virtual clock driving the network.
func (n *Network) Clock() *simclock.Clock { return n.clock }

// Host returns the host with the given address, or nil.
func (n *Network) Host(a ipv4.Addr) *Host { return n.hosts[a] }

// RemoveHost detaches the host at addr (no-op when absent). Packets already
// in flight toward it are dropped on delivery. The lab pool removes
// run-scoped hosts (clients, surplus servers) when resetting a lab.
func (n *Network) RemoveHost(addr ipv4.Addr) { delete(n.hosts, addr) }

// Reset restores the network's link behaviour to the New defaults — fresh
// default path model, RNG seed 1, no trace — then applies opts, keeping
// the attached hosts and the packet free lists. Together with Host.Reset it
// gives the lab pool a network indistinguishable from a freshly built one.
func (n *Network) Reset(opts ...Option) {
	n.path = &netem.Path{}
	n.rng.Seed(1)
	n.trace = nil
	for _, o := range opts {
		o(n)
	}
}

// getPacket takes a packet from the free list (payload length zero,
// capacity retained) or allocates one.
func (n *Network) getPacket() *ipv4.Packet {
	if l := len(n.pktFree); l > 0 {
		p := n.pktFree[l-1]
		n.pktFree[l-1] = nil
		n.pktFree = n.pktFree[:l-1]
		return p
	}
	return &ipv4.Packet{}
}

// putPacket recycles a packet whose bytes are no longer referenced.
func (n *Network) putPacket(p *ipv4.Packet) {
	p.Payload = p.Payload[:0]
	n.pktFree = append(n.pktFree, p)
}

// delivery is one in-flight packet: the scheduled argument of deliverFn,
// pooled so the per-packet hot path allocates neither closure nor event.
type delivery struct {
	net *Network
	dst *Host
	pkt *ipv4.Packet
}

// deliverFn is the static delivery callback; the argument carries state.
func deliverFn(a any) {
	d, ok := a.(*delivery)
	if !ok {
		return
	}
	n := d.net
	n.emit(TraceDeliver, d.pkt)
	d.dst.receive(d.pkt)
	n.putPacket(d.pkt)
	d.dst, d.pkt = nil, nil
	n.delFree = append(n.delFree, d)
}

// scheduleDelivery queues an owned packet for delivery to dst after the
// path latency, recycling pooled delivery state.
func (n *Network) scheduleDelivery(after time.Duration, dst *Host, pkt *ipv4.Packet) {
	var d *delivery
	if l := len(n.delFree); l > 0 {
		d = n.delFree[l-1]
		n.delFree[l-1] = nil
		n.delFree = n.delFree[:l-1]
	} else {
		d = &delivery{net: n}
	}
	d.dst, d.pkt = dst, pkt
	n.clock.AfterArg(after, deliverFn, d)
}

func (n *Network) emit(kind TraceKind, pkt *ipv4.Packet) {
	if n.trace != nil {
		n.trace(TraceEvent{Time: n.clock.Now(), Kind: kind, Pkt: pkt})
	}
}

// Inject delivers a raw IPv4 packet into the network exactly as written —
// the off-path attacker's spoofing primitive. The packet's Src may be any
// address; delivery is to Dst, after the path model's latency, subject to
// its loss model. The packet is copied on entry, so the caller may reuse or
// mutate it immediately (attack planting loops re-inject the same spoofed
// fragments every round).
func (n *Network) Inject(pkt *ipv4.Packet) {
	n.emit(TraceSend, pkt)
	if n.path.Drop(pkt.Src, pkt.Dst, n.rng) {
		n.emit(TraceDrop, pkt)
		return
	}
	dst, ok := n.hosts[pkt.Dst]
	if !ok {
		n.emit(TraceDrop, pkt)
		return
	}
	d := n.path.Latency(pkt.Src, pkt.Dst, n.rng)
	p := n.getPacket()
	p.CopyFrom(pkt)
	n.scheduleDelivery(d, dst, p)
}

// injectOwned is Inject for packets the network already owns (taken from
// getPacket): no copy is made, and the packet returns to the free list on
// drop as well as after delivery. Host send paths build datagrams directly
// into pooled packets and hand them over here.
func (n *Network) injectOwned(pkt *ipv4.Packet) {
	n.emit(TraceSend, pkt)
	if n.path.Drop(pkt.Src, pkt.Dst, n.rng) {
		n.emit(TraceDrop, pkt)
		n.putPacket(pkt)
		return
	}
	dst, ok := n.hosts[pkt.Dst]
	if !ok {
		n.emit(TraceDrop, pkt)
		n.putPacket(pkt)
		return
	}
	d := n.path.Latency(pkt.Src, pkt.Dst, n.rng)
	n.scheduleDelivery(d, dst, pkt)
}

// UDPHandler processes a reassembled, checksum-verified UDP payload. The
// payload slice aliases a pooled packet buffer and is only valid for the
// duration of the call — handlers that keep bytes must copy them.
type UDPHandler func(src ipv4.Addr, srcPort uint16, payload []byte)

// ICMPHandler observes ICMP Fragmentation Needed messages after the host's
// PMTU cache has been updated (src is the claimed sender of the ICMP).
type ICMPHandler func(src ipv4.Addr, msg *ipv4.ICMPFragNeeded)

// HostConfig tunes per-host stack behaviour.
type HostConfig struct {
	// Reassembly selects the defragmentation cache policy
	// (default ipv4.LinuxPolicy).
	Reassembly ipv4.ReassemblyPolicy
	// IDAlloc selects the IPID allocator (default global sequential).
	IDAlloc ipv4.IDAllocator
	// PMTUFloor is the smallest MTU the host honours from an ICMP
	// (default ipv4.MinMTU = 68, the permissive behaviour the attack needs).
	PMTUFloor int
	// LinkMTU is the interface MTU (default 1500).
	LinkMTU int
	// VerifyChecksums makes the host discard UDP datagrams whose checksum
	// fails (default true — set explicitly via DisableChecksum for tests).
	DisableChecksum bool
	// DropFragments discards incoming IP fragments, modelling resolvers
	// behind fragment-filtering middleboxes (the ~68% of resolvers in the
	// ad study that rejected fragmented DNS responses).
	DropFragments bool
}

// Host is one endpoint in the network.
type Host struct {
	net      *Network
	addr     ipv4.Addr
	reasm    *ipv4.Reassembler
	pmtu     *ipv4.PMTUCache
	ids      ipv4.IDAllocator
	linkMTU  int
	verify   bool
	dropFrag bool
	udp      map[uint16]UDPHandler
	icmp     ICMPHandler
	rawObs   func(*ipv4.Packet)
	nextPort uint16

	// Stats
	SentPackets     int
	ReceivedPackets int
	ChecksumErrors  int
}

// AddHost registers a new host at addr with the given configuration.
func (n *Network) AddHost(addr ipv4.Addr, cfg HostConfig) (*Host, error) {
	if _, ok := n.hosts[addr]; ok {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateHost, addr)
	}
	if cfg.Reassembly == (ipv4.ReassemblyPolicy{}) {
		cfg.Reassembly = ipv4.LinuxPolicy
	}
	if cfg.IDAlloc == nil {
		cfg.IDAlloc = &ipv4.SequentialAllocator{}
	}
	if cfg.PMTUFloor == 0 {
		cfg.PMTUFloor = ipv4.MinMTU
	}
	if cfg.LinkMTU == 0 {
		cfg.LinkMTU = ipv4.DefaultMTU
	}
	h := &Host{
		net:      n,
		addr:     addr,
		reasm:    ipv4.NewReassembler(n.clock, cfg.Reassembly),
		pmtu:     ipv4.NewPMTUCache(n.clock, cfg.PMTUFloor),
		ids:      cfg.IDAlloc,
		linkMTU:  cfg.LinkMTU,
		verify:   !cfg.DisableChecksum,
		dropFrag: cfg.DropFragments,
		udp:      make(map[uint16]UDPHandler),
		nextPort: 49152,
	}
	n.hosts[addr] = h
	return h, nil
}

// MustAddHost is AddHost for experiment setup; it panics on error.
func (n *Network) MustAddHost(addr ipv4.Addr, cfg HostConfig) *Host {
	h, err := n.AddHost(addr, cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// Reset restores the host to the state AddHost would have built with cfg —
// empty reassembly and PMTU caches, fresh IPID allocator, no UDP/ICMP
// handlers or raw observer, ephemeral ports rewound, stats zeroed — while
// keeping warmed-up cache storage. The lab pool resets every kept host
// before re-binding its protocol servers; callers must only invoke it when
// no packets are in flight toward the host (the pool resets the clock
// first, which drops them all).
func (h *Host) Reset(cfg HostConfig) {
	if cfg.Reassembly == (ipv4.ReassemblyPolicy{}) {
		cfg.Reassembly = ipv4.LinuxPolicy
	}
	if cfg.IDAlloc == nil {
		cfg.IDAlloc = &ipv4.SequentialAllocator{}
	}
	if cfg.PMTUFloor == 0 {
		cfg.PMTUFloor = ipv4.MinMTU
	}
	if cfg.LinkMTU == 0 {
		cfg.LinkMTU = ipv4.DefaultMTU
	}
	h.reasm.Reset(cfg.Reassembly)
	h.pmtu.Reset(cfg.PMTUFloor)
	h.ids = cfg.IDAlloc
	h.linkMTU = cfg.LinkMTU
	h.verify = !cfg.DisableChecksum
	h.dropFrag = cfg.DropFragments
	clear(h.udp)
	h.icmp = nil
	h.rawObs = nil
	h.nextPort = 49152
	h.SentPackets, h.ReceivedPackets, h.ChecksumErrors = 0, 0, 0
}

// Addr returns the host's address.
func (h *Host) Addr() ipv4.Addr { return h.addr }

// Network returns the network the host is attached to.
func (h *Host) Network() *Network { return h.net }

// Clock returns the virtual clock.
func (h *Host) Clock() *simclock.Clock { return h.net.clock }

// PathMTU returns the host's current path MTU toward dst.
func (h *Host) PathMTU(dst ipv4.Addr) int {
	m := h.pmtu.MTU(dst)
	if m > h.linkMTU {
		m = h.linkMTU
	}
	return m
}

// Reassembler exposes the host's defragmentation cache (read-mostly; used
// by measurements).
func (h *Host) Reassembler() *ipv4.Reassembler { return h.reasm }

// HandleUDP installs a handler for a UDP port.
func (h *Host) HandleUDP(port uint16, fn UDPHandler) error {
	if _, ok := h.udp[port]; ok {
		return fmt.Errorf("%w: %s:%d", ErrPortInUse, h.addr, port)
	}
	h.udp[port] = fn
	return nil
}

// UnhandleUDP removes a port handler.
func (h *Host) UnhandleUDP(port uint16) { delete(h.udp, port) }

// HandleICMP installs an observer for fragmentation-needed ICMPs.
func (h *Host) HandleICMP(fn ICMPHandler) { h.icmp = fn }

// AllocPort returns a fresh ephemeral port. Sequential by default; DNS
// resolvers randomise ports themselves (that randomness is a resolver
// security property, not a stack property).
func (h *Host) AllocPort() uint16 {
	p := h.nextPort
	h.nextPort++
	if h.nextPort == 0 {
		h.nextPort = 49152
	}
	return p
}

// SendUDP builds a checksummed UDP datagram, wraps it in IPv4 packets
// fragmented to the current path MTU, and sends them. It returns the IPID
// used (visible to on-host observers; the attacker predicts it instead).
//
// When the datagram fits the path MTU whole — the overwhelmingly common
// case — the wire bytes are built and checksummed directly inside a pooled
// packet and handed to the network with no intermediate copies.
func (h *Host) SendUDP(dst ipv4.Addr, srcPort, dstPort uint16, payload []byte) (uint16, error) {
	mtu := h.PathMTU(dst)
	total := udp.HeaderLen + len(payload)
	if mtu >= ipv4.MinMTU && ipv4.HeaderLen+total <= mtu {
		id := h.ids.Next(h.addr, dst)
		p := h.net.getPacket()
		wire := p.Payload[:0]
		if cap(wire) < total {
			wire = make([]byte, 0, total)
		}
		wire = wire[:total]
		udp.PutHeader(wire, srcPort, dstPort, total)
		copy(wire[udp.HeaderLen:], payload)
		udp.FillChecksum(h.addr, dst, wire)
		*p = ipv4.Packet{
			Src:     h.addr,
			Dst:     dst,
			ID:      id,
			Proto:   ipv4.ProtoUDP,
			TTL:     ipv4.DefaultTTL,
			Payload: wire,
		}
		h.SentPackets++
		h.net.injectOwned(p)
		return id, nil
	}
	d := &udp.Datagram{
		Header:  udp.Header{SrcPort: srcPort, DstPort: dstPort},
		Payload: payload,
	}
	wire := udp.WithChecksum(h.addr, dst, d.Marshal())
	pkt := &ipv4.Packet{
		Src:     h.addr,
		Dst:     dst,
		ID:      h.ids.Next(h.addr, dst),
		Proto:   ipv4.ProtoUDP,
		TTL:     ipv4.DefaultTTL,
		Payload: wire,
	}
	frags, err := ipv4.Fragment(pkt, mtu)
	if err != nil {
		return 0, fmt.Errorf("send udp %s -> %s: %w", h.addr, dst, err)
	}
	for _, f := range frags {
		h.SentPackets++
		h.net.Inject(f)
	}
	return pkt.ID, nil
}

// SendUDPMTU is SendUDP with an explicit MTU override, ignoring the path
// MTU cache. Test nameservers in the ad-network study use this to respond
// with fragmented packets "even if the size is way below the maximum MTU of
// the path" (Section VIII-B).
func (h *Host) SendUDPMTU(dst ipv4.Addr, srcPort, dstPort uint16, payload []byte, mtu int) (uint16, error) {
	d := &udp.Datagram{
		Header:  udp.Header{SrcPort: srcPort, DstPort: dstPort},
		Payload: payload,
	}
	wire := udp.WithChecksum(h.addr, dst, d.Marshal())
	pkt := &ipv4.Packet{
		Src:     h.addr,
		Dst:     dst,
		ID:      h.ids.Next(h.addr, dst),
		Proto:   ipv4.ProtoUDP,
		TTL:     ipv4.DefaultTTL,
		Payload: wire,
	}
	frags, err := ipv4.Fragment(pkt, mtu)
	if err != nil {
		return 0, fmt.Errorf("send udp %s -> %s: %w", h.addr, dst, err)
	}
	// Force at least two fragments when the datagram fits the MTU whole:
	// split at the largest 8-byte boundary below the payload end.
	if len(frags) == 1 && len(wire) > 16 {
		cut := (len(wire) / 2) &^ 7
		if cut >= 8 {
			first := pkt.Clone()
			first.MF = true
			first.Payload = wire[:cut]
			second := pkt.Clone()
			second.FragOff = cut
			second.Payload = wire[cut:]
			frags = []*ipv4.Packet{first, second}
		}
	}
	for _, f := range frags {
		h.SentPackets++
		h.net.Inject(f)
	}
	return pkt.ID, nil
}

// SendICMPFragNeeded emits a fragmentation-needed ICMP toward dst. Routers
// use this legitimately; the attacker spoofs it via Network.Inject with a
// crafted packet (see internal/attack).
func (h *Host) SendICMPFragNeeded(dst ipv4.Addr, msg *ipv4.ICMPFragNeeded) {
	pkt := &ipv4.Packet{
		Src:     h.addr,
		Dst:     dst,
		ID:      h.ids.Next(h.addr, dst),
		Proto:   ipv4.ProtoICMP,
		TTL:     ipv4.DefaultTTL,
		Payload: msg.Marshal(),
	}
	h.SentPackets++
	h.net.Inject(pkt)
}

// ObserveRaw installs an observer that sees every packet delivered to this
// host — IP header included — before protocol processing. The attacker uses
// this to read the IPIDs of responses to its own probe queries (the IPID
// prediction step of Section III-2). The packet is pooled and recycled
// after processing: observers must not retain it or its payload.
func (h *Host) ObserveRaw(fn func(*ipv4.Packet)) { h.rawObs = fn }

// receive processes one delivered packet.
func (h *Host) receive(pkt *ipv4.Packet) {
	h.ReceivedPackets++
	if h.rawObs != nil {
		h.rawObs(pkt)
	}
	switch pkt.Proto {
	case ipv4.ProtoICMP:
		h.receiveICMP(pkt)
	case ipv4.ProtoUDP:
		h.receiveUDP(pkt)
	}
}

func (h *Host) receiveICMP(pkt *ipv4.Packet) {
	msg, err := ipv4.ParseICMPFragNeeded(pkt.Payload)
	if err != nil || msg == nil {
		return
	}
	// Real stacks accept fragmentation-needed ICMPs without validating the
	// embedded header against in-flight traffic — the property the attack
	// exploits. We update the PMTU toward the destination named in the
	// embedded original header.
	h.pmtu.Update(msg.OrigDst, int(msg.NextHopMTU))
	if h.icmp != nil {
		h.icmp(pkt.Src, msg)
	}
}

func (h *Host) receiveUDP(pkt *ipv4.Packet) {
	if h.dropFrag && pkt.IsFragment() {
		return
	}
	whole, ok := h.reasm.Add(pkt)
	if !ok {
		return
	}
	if whole.IsFragment() {
		return
	}
	if pkt.IsFragment() {
		h.net.emit(TraceReassembled, whole)
		// The reassembled packet and its buffer are network-private: recycle
		// them once the handler returns, like delivered packets.
		defer h.net.putPacket(whole)
	}
	if h.verify {
		if err := udp.Verify(whole.Src, whole.Dst, whole.Payload); err != nil {
			h.ChecksumErrors++
			h.net.emit(TraceChecksumFail, whole)
			return
		}
	}
	hdr, payload, err := udp.Parse(whole.Payload)
	if err != nil {
		return
	}
	fn, ok := h.udp[hdr.DstPort]
	if !ok {
		return
	}
	// The payload aliases the (pooled) packet buffer: handlers must not
	// retain it after returning (see the Network doc comment).
	fn(whole.Src, hdr.SrcPort, payload)
}
