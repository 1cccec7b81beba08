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
// outgoing packets. The network finds every packet's destination host in
// a flat open-addressing table keyed by the 32-bit address.
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
	"slices"
	"strconv"
	"time"

	"dnstime/internal/ipv4"
	"dnstime/internal/netem"
	"dnstime/internal/obs"
	"dnstime/internal/simclock"
	"dnstime/internal/simrand"
	"dnstime/internal/udp"
)

// Errors returned by this package.
var (
	ErrDuplicateHost = errors.New("simnet: host address already in use")
	ErrPortInUse     = errors.New("simnet: UDP port already has a handler")
	ErrNoSuchHost    = errors.New("simnet: no host with that address")
	ErrNilHandler    = errors.New("simnet: nil UDP handler")
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
	hosts hostTable
	path  netem.PathModel
	rng   *rand.Rand
	trace func(TraceEvent)

	pktFree []*ipv4.Packet
	delFree []*delivery
	// dels holds every delivery record the network has allocated, so that
	// Reset can take back the ones a clock reset left pending.
	dels []*delivery
	// defPath is the default link: Reset points path at it instead of
	// allocating a fresh zero Path.
	defPath netem.Path
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
// the pre-netem network hard-coded. The stream is rand.NewSource(seed)'s,
// produced by internal/simrand only when a path model first draws from
// it, so a network on the default path never pays for seeding.
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

// TraceTo returns a packet-trace callback (for WithTrace) that records
// every event on tr as a "net" event named after its kind, with the
// packet's addresses, IPID, fragment offset and length. Traced packets
// are pooled, so it formats what it needs immediately and retains
// nothing.
func TraceTo(tr obs.Tracer) func(TraceEvent) {
	return func(e TraceEvent) {
		p := e.Pkt
		tr.Event(e.Time, "net", e.Kind.String(),
			p.Src.String()+">"+p.Dst.String()+
				" id="+strconv.Itoa(int(p.ID))+
				" off="+strconv.Itoa(p.FragOff)+
				" len="+strconv.Itoa(p.TotalLen()))
	}
}

// New creates a network driven by clock, with no hosts, configured as
// Reset(opts...) configures it.
func New(clock *simclock.Clock, opts ...Option) *Network {
	n := &Network{
		clock: clock,
		rng:   rand.New(simrand.New(0)),
	}
	n.hosts.resize(minHostSlots)
	n.Reset(opts...)
	return n
}

// Clock returns the virtual clock driving the network.
func (n *Network) Clock() *simclock.Clock { return n.clock }

// Host returns the host with the given address, or nil.
func (n *Network) Host(a ipv4.Addr) *Host { return n.hosts.get(a) }

// RemoveHost detaches the host at addr (no-op when absent). Packets already
// in flight toward it are dropped on delivery, even if the host is
// reattached before they arrive. The lab pool removes run-scoped hosts
// (clients, surplus servers) when resetting a lab.
func (n *Network) RemoveHost(addr ipv4.Addr) {
	if h := n.hosts.remove(addr); h != nil {
		h.attach++
	}
}

// Reset restores the network's link behaviour to the defaults, then
// applies opts, keeping the attached hosts and the packet free lists. The
// default link is netem's zero-value Path: 10 ms one-way, lossless,
// in-order, consuming no randomness; the default RNG seed is 1, and no
// trace is installed. New ends with a Reset, so together with Host.Reset
// it gives the lab pool a network that is a freshly built one.
//
// No delivery may be pending when Reset runs: the clock has either run
// them all or been reset, which drops them (the lab pool resets the clock
// first). The packets and delivery records of deliveries a clock reset
// dropped return to the free lists here, so the next run reuses them.
func (n *Network) Reset(opts ...Option) {
	n.reclaim()
	n.defPath = netem.Path{}
	n.path = &n.defPath
	n.rng.Seed(1)
	n.trace = nil
	for _, o := range opts {
		o(n)
	}
}

// reclaim returns every delivery record that is not on the free list,
// with its packet, to the free lists. Outside a run each such record
// belongs to a delivery event that a clock reset dropped.
func (n *Network) reclaim() {
	if len(n.delFree) == len(n.dels) {
		return
	}
	for _, d := range n.dels {
		if d.pkt != nil {
			n.putPacket(d.pkt)
			d.dst, d.pkt = nil, nil
			n.delFree = append(n.delFree, d)
		}
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
// attach is dst.attach when the packet was sent.
type delivery struct {
	net    *Network
	dst    *Host
	pkt    *ipv4.Packet
	attach uint32
}

// deliverFn is the static delivery callback; the argument carries state.
// A packet whose host was removed after it was sent is dropped.
func deliverFn(a any) {
	d, ok := a.(*delivery)
	if !ok {
		return
	}
	n := d.net
	if d.attach != d.dst.attach {
		n.emit(TraceDrop, d.pkt)
	} else {
		n.emit(TraceDeliver, d.pkt)
		d.dst.receive(d.pkt)
	}
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
		n.dels = append(n.dels, d)
	}
	d.dst, d.pkt, d.attach = dst, pkt, dst.attach
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
	p := n.getPacket()
	p.CopyFrom(pkt)
	n.injectOwned(p)
}

// injectOwned sends a packet the network owns (taken from getPacket): no
// copy is made, and the packet returns to the free list on drop as well
// as after delivery. Host send paths build datagrams directly into pooled
// packets and hand them over here.
func (n *Network) injectOwned(pkt *ipv4.Packet) {
	n.emit(TraceSend, pkt)
	if n.path.Drop(pkt.Src, pkt.Dst, n.rng) {
		n.emit(TraceDrop, pkt)
		n.putPacket(pkt)
		return
	}
	dst := n.hosts.get(pkt.Dst)
	if dst == nil {
		n.emit(TraceDrop, pkt)
		n.putPacket(pkt)
		return
	}
	d := n.path.Latency(pkt.Src, pkt.Dst, n.rng)
	n.scheduleDelivery(d, dst, pkt)
}

// UDPHandler processes a UDP payload, reassembled if it arrived in
// fragments, whose datagram passed udp.Verify: its checksum field matched,
// or was zero ("no checksum", as SendUDP sends whole datagrams). The
// payload slice aliases a pooled packet buffer and is only valid for the
// duration of the call — handlers that keep bytes must copy them.
type UDPHandler func(src ipv4.Addr, srcPort uint16, payload []byte)

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
	dropFrag bool
	// attach counts RemoveHost calls on the host; each in-flight packet
	// records it when sent and is dropped on delivery if it has moved.
	attach uint32
	// ports holds the bound UDP ports, sorted and searched by binary
	// search, and handlers their handlers, index for index: a host binds
	// one or two ports, a Chronos client up to ≈100 and the per-server
	// §VII-A scan up to 16 384.
	ports    []uint16
	handlers []UDPHandler
	rawObs   func(*ipv4.Packet)
	nextPort uint16
	// seq is the default IPID allocator, kept in the host so Reset
	// rewinds it in place.
	seq ipv4.SequentialAllocator
	// wire is the fragmented send path's scratch: the datagram with its
	// checksum filled, cut from here into pooled packets.
	wire []byte

	// Stats
	SentPackets     int
	ReceivedPackets int
	ChecksumErrors  int
}

// AddHost registers a new host at addr with the given configuration: an
// allocation plus Reattach.
func (n *Network) AddHost(addr ipv4.Addr, cfg HostConfig) (*Host, error) {
	if n.hosts.get(addr) != nil {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateHost, addr)
	}
	h := &Host{
		net:   n,
		addr:  addr,
		reasm: ipv4.NewReassembler(n.clock, ipv4.ReassemblyPolicy{}),
		pmtu:  ipv4.NewPMTUCache(n.clock, 0),
	}
	if err := n.Reattach(h, cfg); err != nil {
		return nil, err
	}
	return h, nil
}

// Reattach resets h to cfg and attaches it at its own address, where
// RemoveHost detached it: the host is then a freshly added one that keeps
// its warmed-up storage. h must have been added to this network. The lab
// pool keeps its detached client hosts this way between runs.
func (n *Network) Reattach(h *Host, cfg HostConfig) error {
	if h.net != n {
		return fmt.Errorf("simnet: host %s belongs to another network", h.addr)
	}
	if n.hosts.get(h.addr) != nil {
		return fmt.Errorf("%w: %s", ErrDuplicateHost, h.addr)
	}
	h.Reset(cfg)
	n.hosts.put(h)
	return nil
}

// MustAddHost is AddHost for experiment setup; it panics on error.
func (n *Network) MustAddHost(addr ipv4.Addr, cfg HostConfig) *Host {
	h, err := n.AddHost(addr, cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// Reset configures the host per cfg — empty reassembly and PMTU caches,
// fresh IPID allocator, no UDP/ICMP handlers or raw observer, ephemeral
// ports rewound, stats zeroed — while keeping warmed-up cache storage.
// AddHost ends with a Reset, so a reset host is a fresh one. The lab pool
// resets every kept host before re-binding its protocol servers; callers
// must only invoke it when no packets are in flight toward the host (the
// pool resets the clock first, which drops them all).
func (h *Host) Reset(cfg HostConfig) {
	if cfg.Reassembly == (ipv4.ReassemblyPolicy{}) {
		cfg.Reassembly = ipv4.LinuxPolicy
	}
	if cfg.IDAlloc == nil {
		h.seq = ipv4.SequentialAllocator{}
		cfg.IDAlloc = &h.seq
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
	h.dropFrag = cfg.DropFragments
	h.ports = h.ports[:0]
	clear(h.handlers)
	h.handlers = h.handlers[:0]
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

// HandleUDP installs a handler for a UDP port. A nil handler is
// ErrNilHandler and a bound port ErrPortInUse; neither binds anything.
func (h *Host) HandleUDP(port uint16, fn UDPHandler) error {
	if fn == nil {
		return fmt.Errorf("%w: %s:%d", ErrNilHandler, h.addr, port)
	}
	i, bound := slices.BinarySearch(h.ports, port)
	if bound {
		return fmt.Errorf("%w: %s:%d", ErrPortInUse, h.addr, port)
	}
	h.ports = slices.Insert(h.ports, i, port)
	h.handlers = slices.Insert(h.handlers, i, fn)
	return nil
}

// UnhandleUDP removes a port handler (no-op when the port is unbound).
func (h *Host) UnhandleUDP(port uint16) {
	if i, bound := slices.BinarySearch(h.ports, port); bound {
		h.ports = slices.Delete(h.ports, i, i+1)
		h.handlers = slices.Delete(h.handlers, i, i+1)
	}
}

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

// SendUDP builds a UDP datagram, wraps it in IPv4 packets fragmented to
// the current path MTU, and sends them. It returns the IPID used (visible
// to on-host observers; the attacker predicts it instead).
//
// When the datagram fits the path MTU whole — the overwhelmingly common
// case — the wire bytes are built directly inside a pooled packet and
// handed to the network with no intermediate copies, and the checksum
// field is left zero, RFC 768's "no checksum": the network never alters a
// byte, so no checksum could fail. A datagram cut into fragments carries
// its checksum (see sendFragmented), since the receiver reassembles it
// from fragments an off-path attacker can spoof.
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
	return h.sendFragmented(dst, srcPort, dstPort, payload, mtu, false)
}

// SendUDPMTU is SendUDP with an explicit MTU override, ignoring the path
// MTU cache. Test nameservers in the ad-network study use this to respond
// with fragmented packets "even if the size is way below the maximum MTU of
// the path" (Section VIII-B).
func (h *Host) SendUDPMTU(dst ipv4.Addr, srcPort, dstPort uint16, payload []byte, mtu int) (uint16, error) {
	return h.sendFragmented(dst, srcPort, dstPort, payload, mtu, true)
}

// sendFragmented is the one fragmenting send path. It draws the IPID,
// checksums the datagram once into the host's scratch and cuts each
// fragment straight into a pooled packet for the network: fragment data
// is a multiple of 8 bytes, all fragments but the last carry MF, and the
// packets go out in offset order. A datagram that fits mtu whole goes out
// as one packet — unless split is set and it is longer than 16 bytes:
// then it is forced into two fragments, cut at the largest 8-byte
// boundary at or below its middle. An mtu below ipv4.MinMTU is an
// ipv4.ErrBadMTU error, returned after the IPID draw and before any send.
func (h *Host) sendFragmented(dst ipv4.Addr, srcPort, dstPort uint16, payload []byte, mtu int, split bool) (uint16, error) {
	id := h.ids.Next(h.addr, dst)
	if mtu < ipv4.MinMTU {
		return 0, fmt.Errorf("send udp %s -> %s: %w: %d", h.addr, dst, ipv4.ErrBadMTU, mtu)
	}
	total := udp.HeaderLen + len(payload)
	if cap(h.wire) < total {
		h.wire = make([]byte, total)
	}
	wire := h.wire[:total]
	udp.PutHeader(wire, srcPort, dstPort, total)
	copy(wire[udp.HeaderLen:], payload)
	udp.FillChecksum(h.addr, dst, wire)
	first := (mtu - ipv4.HeaderLen) &^ 7
	step := first
	if ipv4.HeaderLen+total <= mtu {
		first, step = total, total
		if split && total > 16 {
			first = (total / 2) &^ 7
		}
	}
	for off, end := 0, first; off < total; off, end = end, end+step {
		end = min(end, total)
		p := h.net.getPacket()
		*p = ipv4.Packet{
			Src:     h.addr,
			Dst:     dst,
			ID:      id,
			Proto:   ipv4.ProtoUDP,
			TTL:     ipv4.DefaultTTL,
			MF:      end < total,
			FragOff: off,
			Payload: append(p.Payload[:0], wire[off:end]...),
		}
		h.SentPackets++
		h.net.injectOwned(p)
	}
	return id, nil
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
}

func (h *Host) receiveUDP(pkt *ipv4.Packet) {
	if h.dropFrag && pkt.IsFragment() {
		return
	}
	whole := pkt
	if pkt.IsFragment() {
		// Reassemble into a pooled packet, network-private like delivered
		// packets: it is recycled once the handler returns.
		whole = h.net.getPacket()
		if !h.reasm.AddInto(whole, pkt) {
			h.net.putPacket(whole)
			return
		}
		h.net.emit(TraceReassembled, whole)
		defer h.net.putPacket(whole)
	}
	if err := udp.Verify(whole.Src, whole.Dst, whole.Payload); err != nil {
		h.ChecksumErrors++
		h.net.emit(TraceChecksumFail, whole)
		return
	}
	hdr, payload, err := udp.Parse(whole.Payload)
	if err != nil {
		return
	}
	i, bound := slices.BinarySearch(h.ports, hdr.DstPort)
	if !bound {
		return
	}
	fn := h.handlers[i]
	// The payload aliases the (pooled) packet buffer: handlers must not
	// retain it after returning (see the Network doc comment).
	fn(whole.Src, hdr.SrcPort, payload)
}
