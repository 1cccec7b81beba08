package dnsres

import (
	"fmt"
	"math/rand"
	"time"

	"dnstime/internal/dnswire"
	"dnstime/internal/ipv4"
	"dnstime/internal/simclock"
	"dnstime/internal/simnet"
	"dnstime/internal/simrand"
)

// exchanger sends DNS queries from a host and matches their responses
// with the challenge-response checks of RFC 5452. Each query draws a
// random TXID, then a random source port in [1024, 65535]; a response
// counts only if it comes from the server's port 53 to that port and
// echoes the TXID and the question. The fragmentation attack defeats
// these checks because the genuine first fragment carries all of them.
// Stubs and the resolver's upstream queries both send through it.
type exchanger struct {
	host *simnet.Host
	rng  *rand.Rand

	// dec and rxMsg are the response-decode scratch. The message handed to
	// a done callback is valid only during that callback: every consumer
	// (LookupA, snooping scans, the resolver's acceptAnswer) extracts what
	// it keeps into fresh values before returning, and handlers never nest
	// on the single-threaded event loop.
	dec   dnswire.Decoder
	rxMsg dnswire.Message
	// txMsg and wire are the query-encode scratch; SendUDP copies the
	// wire bytes before it returns.
	txMsg dnswire.Message
	wire  []byte
	// queries are the exchanges' slots.
	queries slots[query]
}

// slots recycles the state of asynchronous operations — exchanges,
// lookups, client queries — so that starting one allocates nothing once
// its slot exists. A slot's callbacks are bound when it is built and read
// its current fields. The owner's Reset reclaims every slot, the ones in
// flight too, once the host and clock resets have unbound their ports and
// dropped their timers.
type slots[T any] struct {
	free []*T // slots ready for reuse
	all  []*T // every slot built
}

// get takes a free slot, or builds one with build.
func (p *slots[T]) get(build func() *T) *T {
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return s
	}
	s := build()
	p.all = append(p.all, s)
	return s
}

// put returns a slot to the free list.
func (p *slots[T]) put(s *T) { p.free = append(p.free, s) }

// reclaim returns every slot to the free list, each after clear.
func (p *slots[T]) reclaim(clear func(*T)) {
	if len(p.free) == len(p.all) {
		return
	}
	p.free = p.free[:0]
	for _, s := range p.all {
		clear(s)
		p.free = append(p.free, s)
	}
}

// query is one outstanding exchange. Its two callbacks are built once and
// read the query's current fields, so a recycled query re-arms without
// allocating. A query is released before its done callback runs, so done
// may start the next exchange.
type query struct {
	server    ipv4.Addr
	name      string
	qtype     dnswire.Type
	txid      uint16
	port      uint16
	timer     simclock.Timer
	done      func(*dnswire.Message, error)
	onReply   simnet.UDPHandler
	onTimeout func()
}

// newQuery builds a query slot with its callbacks bound.
func (x *exchanger) newQuery() *query {
	q := &query{}
	q.onReply = func(src ipv4.Addr, srcPort uint16, payload []byte) {
		// The source port check is implicit: this handler is bound to the
		// random port.
		if src != q.server || srcPort != DNSPort {
			return
		}
		m := &x.rxMsg
		if err := x.dec.UnmarshalInto(m, payload); err != nil || !m.Header.QR || m.Header.ID != q.txid {
			return
		}
		if len(m.Questions) != 1 || dnswire.CanonicalName(m.Questions[0].Name) != q.name || m.Questions[0].Type != q.qtype {
			return
		}
		q.timer.Stop()
		x.host.UnhandleUDP(q.port)
		x.finish(q, m, nil)
	}
	q.onTimeout = func() {
		x.host.UnhandleUDP(q.port)
		x.finish(q, nil, fmt.Errorf("%w: %s %s @%s", ErrTimeout, q.name, q.qtype, q.server))
	}
	return q
}

// reclaim returns every query to the free list, the outstanding ones
// too (see slots).
func (x *exchanger) reclaim() {
	x.queries.reclaim(func(q *query) { q.done = nil })
}

// finish releases q and then calls its done callback.
func (x *exchanger) finish(q *query, m *dnswire.Message, err error) {
	done := q.done
	q.done = nil
	x.queries.put(q)
	done(m, err)
}

// exchange sends one query for the canonical name and calls done exactly
// once: with the matching response, with ErrTimeout when none arrives
// within timeout, or with the error that kept the query from being sent.
func (x *exchanger) exchange(server ipv4.Addr, name string, qtype dnswire.Type, rd bool, timeout time.Duration, done func(*dnswire.Message, error)) {
	q := x.queries.get(x.newQuery)
	q.server, q.name, q.qtype, q.done = server, name, qtype, done
	q.txid = uint16(x.rng.Intn(1 << 16))
	// Re-draw the port on collision.
	for {
		q.port = uint16(1024 + x.rng.Intn(64512))
		if q.port == DNSPort {
			continue
		}
		if err := x.host.HandleUDP(q.port, q.onReply); err == nil {
			break
		}
	}
	x.host.Clock().ScheduleInto(&q.timer, timeout, q.onTimeout)
	x.txMsg = dnswire.Message{
		Header: dnswire.Header{ID: q.txid, RD: rd},
		Questions: append(x.txMsg.Questions[:0],
			dnswire.Question{Name: dnswire.CanonicalName(name), Type: qtype, Class: dnswire.ClassIN}),
	}
	wire, err := x.txMsg.AppendMarshal(x.wire[:0])
	if err == nil {
		x.wire = wire
		_, err = x.host.SendUDP(server, q.port, DNSPort, wire)
	}
	if err != nil {
		q.timer.Stop()
		x.host.UnhandleUDP(q.port)
		x.finish(q, nil, err)
	}
}

// Stub is a minimal DNS stub resolver for hosts that query a recursive
// resolver over the simulated network: NTP clients, SMTP servers, web
// clients and the cache-snooping scanner all use it.
type Stub struct {
	exchanger
	resolver ipv4.Addr
	// Timeout bounds each query (default 3 s).
	Timeout time.Duration
	// addrs is LookupA's answer scratch, and lookups its lookups' slots.
	addrs   []ipv4.Addr
	lookups slots[lookupA]
}

// lookupA is one LookupA in flight: the name and the caller's callback,
// which onAnswer, bound once, reads.
type lookupA struct {
	name     string
	done     func(addrs []ipv4.Addr, ttl uint32, err error)
	onAnswer func(*dnswire.Message, error)
}

// NewStub returns a stub that queries resolver from host: an allocation
// plus Reset.
func NewStub(host *simnet.Host, resolver ipv4.Addr, seed int64) *Stub {
	s := &Stub{exchanger: exchanger{host: host, rng: rand.New(simrand.New(0))}}
	s.Reset(resolver, seed)
	return s
}

// Reset points the stub at resolver with the default timeout and an RNG
// stream identical to rand.New(rand.NewSource(seed)), keeping its decode
// scratch and query pool: a reset stub is a fresh NewStub. Queries still
// outstanding return to the pool unanswered, so the stub's host must be
// reset with it (which unbinds their ports) and the clock too (which
// drops their timeouts), as the lab pool does.
func (s *Stub) Reset(resolver ipv4.Addr, seed int64) {
	s.resolver = resolver
	s.Timeout = 3 * time.Second
	s.rng.Seed(seed)
	s.reclaim()
	s.lookups.reclaim(func(l *lookupA) { l.done = nil })
}

// Resolver returns the upstream resolver address.
func (s *Stub) Resolver() ipv4.Addr { return s.resolver }

// Lookup sends one query and calls done with the full response message.
// rd=false performs a cache-snooping (non-recursive) query. The message is
// the stub's decode scratch: it is valid only for the duration of the
// callback, which must copy anything it keeps (decoded names are shared
// immutable strings and safe to retain as-is).
func (s *Stub) Lookup(name string, qtype dnswire.Type, rd bool, done func(*dnswire.Message, error)) {
	timeout := s.Timeout
	if timeout == 0 {
		timeout = 3 * time.Second
	}
	s.exchange(s.resolver, dnswire.CanonicalName(name), qtype, rd, timeout, done)
}

// LookupA resolves A records for name recursively, reporting the addresses
// and the (minimum) answer TTL in seconds. The addrs slice is the stub's
// scratch, valid only for the duration of the callback, which must copy
// what it keeps.
func (s *Stub) LookupA(name string, done func(addrs []ipv4.Addr, ttl uint32, err error)) {
	l := s.lookups.get(s.newLookupA)
	l.name, l.done = name, done
	s.Lookup(name, dnswire.TypeA, true, l.onAnswer)
}

// newLookupA builds a LookupA slot with its callback bound. The slot is
// released before the caller's callback runs, which may look up again.
func (s *Stub) newLookupA() *lookupA {
	l := &lookupA{}
	l.onAnswer = func(m *dnswire.Message, err error) {
		name, done := l.name, l.done
		l.done = nil
		s.lookups.put(l)
		s.answerA(name, m, err, done)
	}
	return l
}

// answerA reports a LookupA's answer to done.
func (s *Stub) answerA(name string, m *dnswire.Message, err error, done func([]ipv4.Addr, uint32, error)) {
	if err != nil {
		done(nil, 0, err)
		return
	}
	switch m.Header.RCode {
	case dnswire.RCodeNoError:
	case dnswire.RCodeNXDomain:
		done(nil, 0, fmt.Errorf("%w: %s", ErrNXDomain, name))
		return
	default:
		done(nil, 0, fmt.Errorf("%w: rcode %d", ErrServFail, m.Header.RCode))
		return
	}
	s.addrs = m.AppendAddrsInAnswer(s.addrs[:0], name)
	addrs := s.addrs
	if len(addrs) == 0 {
		done(nil, 0, fmt.Errorf("%w: empty answer for %s", ErrServFail, name))
		return
	}
	ttl := ^uint32(0)
	for _, rr := range m.Answers {
		if rr.Type == dnswire.TypeA && rr.TTL < ttl {
			ttl = rr.TTL
		}
	}
	done(addrs, ttl, nil)
}
