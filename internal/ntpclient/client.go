// Package ntpclient implements a behavioural NTP/SNTP client engine
// parameterised by implementation Profiles (ntpd, chrony, openntpd,
// ntpdate, Android, ntpclient, systemd-timesyncd). The engine reproduces
// the mechanisms the paper's attacks manipulate: DNS-based server
// discovery at boot and at run-time, the reachability register that
// demobilises unresponsive associations, majority/median-based clock
// selection, and the mode-3 service whose reference ID leaks the current
// sync source.
package ntpclient

import (
	"fmt"
	"slices"
	"time"

	"dnstime/internal/dnsres"
	"dnstime/internal/ipv4"
	"dnstime/internal/ntpwire"
	"dnstime/internal/simclock"
	"dnstime/internal/simnet"
)

// Association is the client-side state for one NTP server.
type Association struct {
	Addr ipv4.Addr
	// Reach is the 8-bit reachability shift register.
	Reach uint8
	// Misses counts consecutive unanswered polls.
	Misses int
	// Samples counts collected offset samples.
	Samples int
	// LastOffset is the most recent measured offset.
	LastOffset time.Duration
	// Demobilized marks a torn-down association.
	Demobilized bool

	pending bool
	t1Local time.Time
	kodSeen bool
}

// Usable reports whether the association can contribute to selection.
func (a *Association) Usable() bool { return !a.Demobilized && a.Reach != 0 }

// EventKind classifies client log events.
type EventKind int

// Client event kinds.
const (
	EventDNSLookup EventKind = iota + 1
	EventMobilize
	EventDemobilize
	EventStep
	EventPanic
	EventKoD
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EventDNSLookup:
		return "dns-lookup"
	case EventMobilize:
		return "mobilize"
	case EventDemobilize:
		return "demobilize"
	case EventStep:
		return "step"
	case EventPanic:
		return "panic"
	case EventKoD:
		return "kod"
	default:
		return "?"
	}
}

// Event is one entry in the client's event log. The log records values
// and String formats them, so logging costs no formatting.
type Event struct {
	At   time.Time
	Kind EventKind
	Addr ipv4.Addr
	// Note is the text of a lookup (the domain), a mobilisation
	// ("revived" for a revived association) or a KoD (the kiss code).
	Note string
	// Count is the number of misses that demobilised the association
	// (EventDemobilize) or of the sources a step agreed on (EventStep).
	Count int
	// Offset is the offset stepped by (EventStep) or refused for
	// exceeding the panic threshold (EventPanic).
	Offset time.Duration
}

// detail renders the event's note: Note itself, or for demobilisations,
// steps and panics the text their values make.
func (e Event) detail() string {
	switch e.Kind {
	case EventDemobilize:
		return fmt.Sprintf("after %d misses", e.Count)
	case EventStep:
		return fmt.Sprintf("%v (%d sources)", e.Offset, e.Count)
	case EventPanic:
		return fmt.Sprintf("offset %v exceeds panic threshold", e.Offset)
	}
	return e.Note
}

// String renders the event.
func (e Event) String() string {
	s := fmt.Sprintf("%s %-11s %s", e.At.Format("15:04:05"), e.Kind, e.Addr)
	if d := e.detail(); d != "" {
		s += " " + d
	}
	return s
}

// Client is a behavioural NTP client bound to a simnet host.
type Client struct {
	host   *simnet.Host
	clock  *simclock.Clock
	prof   Profile
	local  *LocalClock
	stub   *dnsres.Stub
	domain string

	// assocs holds one association per server ever mobilised, in
	// mobilisation order, and is searched linearly: demobilised ones stay
	// to be revived, and a lab client holds at most ten.
	assocs    []Association
	cached    []ipv4.Addr // systemd-style cached addresses
	selected  ipv4.Addr   // current sync source (zero = none)
	port      uint16
	running   bool
	bootDone  bool
	synced    bool
	lookingUp bool
	pollNow   time.Duration // current (possibly backed-off) poll interval
	ticker    simclock.Timer

	// Callbacks bound once, so that polling, lookups and receives
	// allocate no closures.
	onTick   func()
	onLookup func([]ipv4.Addr, uint32, error)
	recv     simnet.UDPHandler

	// Scratch: the NTP encode buffer and decoded packet and the selection
	// round's slices. Sends copy the wire bytes before returning, and no
	// handler nests on the event loop.
	wire         []byte
	rx           ntpwire.Packet
	offsets      []time.Duration
	contributors []*Association
	agreeing     []*Association

	// Done is set when a OneShot client has synchronised.
	Done bool
	// Steps records every clock adjustment.
	Steps []StepEvent
	// Events is the client's activity log.
	Events []Event
	// DNSLookups counts DNS queries issued.
	DNSLookups int
}

// New creates a client on host using profile prof, discovering servers by
// resolving domain through the resolver at resolverAddr. initialClockError
// is the local clock's starting error versus true time. It is an
// allocation plus Reset.
func New(host *simnet.Host, prof Profile, resolverAddr ipv4.Addr, domain string, initialClockError time.Duration, seed int64) *Client {
	c := &Client{
		host:  host,
		clock: host.Clock(),
		local: NewLocalClock(host.Clock(), 0),
		stub:  dnsres.NewStub(host, resolverAddr, seed),
	}
	c.onTick = func() {
		c.tick()
		c.scheduleTick()
	}
	c.onLookup = c.lookupDone
	c.recv = c.receive
	c.Reset(prof, resolverAddr, domain, initialClockError, seed)
	return c
}

// Reset turns the client into the one New builds from these arguments on
// its own host, keeping its storage: a reset client is a fresh one. The
// host must be reset with it and the clock too (the lab pool re-attaches
// the host and resets the clock), since the previous run's port binding
// and poll timer are forgotten here. Steps and Events are truncated in
// place: slices read from them before the Reset change with it.
func (c *Client) Reset(prof Profile, resolverAddr ipv4.Addr, domain string, initialClockError time.Duration, seed int64) {
	c.prof = prof
	c.local.Reset(initialClockError)
	c.stub.Reset(resolverAddr, seed)
	c.domain = domain
	c.assocs = c.assocs[:0]
	c.cached = c.cached[:0]
	c.selected = ipv4.Addr{}
	c.port = 0
	c.running, c.bootDone, c.synced, c.lookingUp = false, false, false, false
	c.pollNow = prof.PollInterval
	c.ticker = simclock.Timer{}
	c.Done = false
	c.Steps = c.Steps[:0]
	c.Events = c.Events[:0]
	c.DNSLookups = 0
}

// Profile returns the client's behaviour profile.
func (c *Client) Profile() Profile { return c.prof }

// HostAddr returns the client host's network address (the address the
// attacker spoofs when abusing server-side rate limiting).
func (c *Client) HostAddr() ipv4.Addr { return c.host.Addr() }

// LocalNow returns the client's local clock reading.
func (c *Client) LocalNow() time.Time { return c.local.Now() }

// ClockOffset returns the client's clock error (local − true).
func (c *Client) ClockOffset() time.Duration { return c.local.Offset() }

// Selected returns the current sync source (zero address if none).
func (c *Client) Selected() ipv4.Addr { return c.selected }

// UsableCount reports the number of usable associations.
func (c *Client) UsableCount() int {
	n := 0
	for i := range c.assocs {
		if c.assocs[i].Usable() {
			n++
		}
	}
	return n
}

// MobilizedCount reports the number of live (non-demobilised) associations.
func (c *Client) MobilizedCount() int {
	n := 0
	for i := range c.assocs {
		if !c.assocs[i].Demobilized {
			n++
		}
	}
	return n
}

// assoc returns the association with addr, or nil. The pointer is good
// until the next mobilisation.
func (c *Client) assoc(addr ipv4.Addr) *Association {
	for i := range c.assocs {
		if c.assocs[i].Addr == addr {
			return &c.assocs[i]
		}
	}
	return nil
}

func (c *Client) logEvent(e Event) {
	e.At = c.clock.Now()
	c.Events = append(c.Events, e)
}

// Start boots the client: bind the NTP port, do the boot-time DNS lookup,
// and begin polling.
func (c *Client) Start() error {
	if c.running {
		return fmt.Errorf("ntpclient %s: already running", c.prof.Name)
	}
	c.port = ntpwire.Port
	if err := c.host.HandleUDP(c.port, c.recv); err != nil {
		return fmt.Errorf("ntpclient %s: bind: %w", c.prof.Name, err)
	}
	c.running = true
	c.lookup()
	c.scheduleTick()
	return nil
}

// Stop halts polling and releases the port.
func (c *Client) Stop() {
	if !c.running {
		return
	}
	c.running = false
	c.ticker.Stop()
	c.host.UnhandleUDP(c.port)
}

func (c *Client) scheduleTick() {
	if !c.running {
		return
	}
	c.clock.ScheduleInto(&c.ticker, c.pollNow, c.onTick)
}

// tick is one poll round: account the previous round, maintain the server
// set, and send new polls.
func (c *Client) tick() {
	if !c.running || (c.prof.OneShot && c.Done) {
		return
	}
	c.accountMisses()
	c.maintainServers()
	c.sendPolls()
}

// accountMisses shifts reach registers for pending (unanswered) polls and
// demobilises dead associations.
func (c *Client) accountMisses() {
	for i := range c.assocs {
		a := &c.assocs[i]
		if a.Demobilized {
			continue
		}
		if a.pending {
			a.pending = false
			a.Misses++
			a.Reach <<= 1
			if c.prof.PollBackoff {
				c.pollNow *= 2
				if c.prof.MaxPoll > 0 && c.pollNow > c.prof.MaxPoll {
					c.pollNow = c.prof.MaxPoll
				}
			}
			if a.Misses >= c.prof.UnreachableAfter {
				a.Demobilized = true
				c.logEvent(Event{Kind: EventDemobilize, Addr: a.Addr, Count: a.Misses})
				if c.selected == a.Addr {
					c.selected = ipv4.Addr{}
				}
			}
		}
	}
}

// maintainServers tops up the association set: boot-phase growth toward
// TargetServers, run-time refill below MinServers, and the SNTP cached-
// address fallback.
func (c *Client) maintainServers() {
	if c.prof.SNTP {
		c.maintainSNTP()
		return
	}
	usable := c.UsableCount()
	mobilized := c.MobilizedCount()
	switch {
	case !c.bootDone && mobilized < c.prof.TargetServers:
		c.lookup()
	case c.bootDone && c.prof.RuntimeLookup && usable < c.prof.MinServers && mobilized < c.prof.TargetServers:
		c.lookup()
	}
}

func (c *Client) maintainSNTP() {
	if c.MobilizedCount() > 0 {
		return
	}
	// Current server demobilised: try the cached list first.
	for len(c.cached) > 0 {
		next := c.cached[0]
		c.cached = c.cached[1:]
		if a := c.assoc(next); a != nil && a.Demobilized {
			continue
		}
		c.mobilize(next)
		c.pollNow = c.prof.PollInterval // reset backoff for the new server
		return
	}
	if c.prof.RuntimeLookup || !c.bootDone {
		c.lookup()
	}
}

// lookup issues a DNS query for the configured domain and mobilises
// returned servers.
func (c *Client) lookup() {
	if c.lookingUp {
		return
	}
	c.lookingUp = true
	c.DNSLookups++
	c.logEvent(Event{Kind: EventDNSLookup, Note: c.domain})
	c.stub.LookupA(c.domain, c.onLookup)
}

// lookupDone mobilises the servers a lookup returned.
func (c *Client) lookupDone(addrs []ipv4.Addr, _ uint32, err error) {
	c.lookingUp = false
	if err != nil || !c.running {
		return
	}
	if c.prof.SNTP {
		c.handleSNTPAnswer(addrs)
		return
	}
	// Boot-phase growth stops at TargetServers; run-time refill may go
	// up to MaxServers (ntpd NTP_MAXCLOCK).
	limit := c.prof.TargetServers
	if c.bootDone {
		limit = c.prof.MaxServers
	}
	for _, a := range addrs {
		if c.MobilizedCount() >= limit {
			break
		}
		c.mobilize(a)
	}
	if c.MobilizedCount() >= c.prof.TargetServers {
		c.bootDone = true
	}
	c.sendPolls()
}

func (c *Client) handleSNTPAnswer(addrs []ipv4.Addr) {
	if len(addrs) == 0 {
		return
	}
	fresh := addrs[:0:0]
	for _, a := range addrs {
		if assoc := c.assoc(a); assoc != nil && assoc.Demobilized {
			continue
		}
		fresh = append(fresh, a)
	}
	if len(fresh) == 0 {
		fresh = addrs // all known-dead: retry them anyway
	}
	c.mobilize(fresh[0])
	if c.prof.CacheDNSAddrs && len(fresh) > 1 {
		rest := fresh[1:]
		if c.prof.MaxCachedAddrs > 0 && len(rest) > c.prof.MaxCachedAddrs {
			rest = rest[:c.prof.MaxCachedAddrs]
		}
		c.cached = append(c.cached[:0], rest...)
	}
	c.bootDone = true
	c.pollNow = c.prof.PollInterval
	c.sendPolls()
}

// mobilize creates (or revives) an association.
func (c *Client) mobilize(addr ipv4.Addr) {
	if a := c.assoc(addr); a != nil {
		if !a.Demobilized {
			return
		}
		a.Demobilized = false
		a.Reach, a.Misses, a.Samples = 0, 0, 0
		c.logEvent(Event{Kind: EventMobilize, Addr: addr, Note: "revived"})
		return
	}
	c.assocs = append(c.assocs, Association{Addr: addr})
	c.logEvent(Event{Kind: EventMobilize, Addr: addr})
}

// sendPolls sends one mode-3 query to every live association.
func (c *Client) sendPolls() {
	for i := range c.assocs {
		a := &c.assocs[i]
		if a.Demobilized || a.pending {
			continue
		}
		a.pending = true
		a.t1Local = c.local.Now()
		q := ntpwire.ClientPacket(a.t1Local)
		c.wire = q.AppendMarshal(c.wire[:0])
		_, _ = c.host.SendUDP(a.Addr, c.port, ntpwire.Port, c.wire)
	}
}

// receive handles both mode-4 responses and (when ActsAsServer) mode-3
// queries from third parties.
func (c *Client) receive(src ipv4.Addr, srcPort uint16, payload []byte) {
	pkt := &c.rx
	if err := ntpwire.UnmarshalInto(pkt, payload); err != nil {
		return
	}
	switch pkt.Mode {
	case ntpwire.ModeServer:
		c.receiveResponse(src, pkt)
	case ntpwire.ModeClient:
		if c.prof.ActsAsServer {
			c.serveQuery(src, srcPort, pkt)
		}
	}
}

// serveQuery answers a third-party mode-3 query, leaking the current sync
// source in the reference ID (stratum 3 ⇒ RefID is the upstream address).
func (c *Client) serveQuery(src ipv4.Addr, srcPort uint16, q *ntpwire.Packet) {
	refid := [4]byte(c.selected)
	resp := ntpwire.ServerPacket(q, c.local.Now(), 3, refid)
	c.wire = resp.AppendMarshal(c.wire[:0])
	_, _ = c.host.SendUDP(src, c.port, srcPort, c.wire)
}

func (c *Client) receiveResponse(src ipv4.Addr, pkt *ntpwire.Packet) {
	a := c.assoc(src)
	if a == nil || a.Demobilized || !a.pending {
		return
	}
	if pkt.IsKoD() {
		a.kodSeen = true
		c.logEvent(Event{Kind: EventKoD, Addr: src, Note: pkt.KissCode()})
		// Honour the KoD by backing off this association only.
		a.pending = false
		return
	}
	a.pending = false
	a.Misses = 0
	a.Reach = a.Reach<<1 | 1
	t4 := c.local.Now()
	a.LastOffset = ntpwire.Offset(pkt, a.t1Local, t4)
	a.Samples++
	c.evaluate()
}

// evaluate runs clock selection over the usable associations and steps the
// local clock when a qualified majority agrees on a large offset.
func (c *Client) evaluate() {
	if c.prof.SNTP {
		c.evaluateSNTP()
		return
	}
	offsets, contributors := c.offsets[:0], c.contributors[:0]
	for i := range c.assocs {
		a := &c.assocs[i]
		if a.Usable() && a.Samples >= c.prof.SelectMinSamples {
			offsets = append(offsets, a.LastOffset)
			contributors = append(contributors, a)
		}
	}
	c.offsets, c.contributors = offsets, contributors
	if len(offsets) == 0 {
		return
	}
	mobilized := c.MobilizedCount()
	if len(offsets)*2 <= mobilized {
		// Fewer than a majority of live sources are selectable: wait.
		return
	}
	slices.Sort(offsets)
	median := offsets[len(offsets)/2]
	// The clique that agrees with the median within 128 ms must be a
	// majority of contributors (simplified Marzullo/cluster step).
	agree := 0
	agreeing := c.agreeing[:0]
	for _, a := range contributors {
		if within(a.LastOffset, median, 128*time.Millisecond) {
			agree++
			agreeing = append(agreeing, a)
		}
	}
	c.agreeing = agreeing
	if agree*2 <= len(contributors) {
		return
	}
	// Track the sync source: the agreeing association closest to median.
	c.selected = agreeing[0].Addr
	c.applyOffset(median, agree)
}

func (c *Client) evaluateSNTP() {
	for i := range c.assocs {
		a := &c.assocs[i]
		if a.Usable() && a.Samples >= c.prof.SelectMinSamples {
			c.selected = a.Addr
			c.applyOffset(a.LastOffset, 1)
			return
		}
	}
}

func (c *Client) applyOffset(off time.Duration, sources int) {
	if abs(off) < c.prof.StepThreshold {
		c.synced = true
		if c.prof.OneShot {
			c.Done = true
		}
		return
	}
	// The panic threshold is not enforced before the first successful
	// synchronisation ("the clock may be way off when the system starts").
	if c.prof.PanicThreshold > 0 && c.synced && abs(off) > c.prof.PanicThreshold {
		c.logEvent(Event{Kind: EventPanic, Addr: c.selected, Offset: off})
		return
	}
	c.local.Step(off)
	c.synced = true
	c.Steps = append(c.Steps, StepEvent{At: c.clock.Now(), Delta: off, Sources: sources})
	c.logEvent(Event{Kind: EventStep, Addr: c.selected, Count: sources, Offset: off})
	// Offsets measured before the step are stale.
	for i := range c.assocs {
		c.assocs[i].LastOffset = 0
	}
	if c.prof.OneShot {
		c.Done = true
	}
}

func within(a, b, tol time.Duration) bool { return abs(a-b) <= tol }

func abs(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}
