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
	// free holds finished queries for reuse, and all every query the
	// exchanger has built.
	free []*query
	all  []*query
}

// query is one outstanding exchange. Queries are pooled per exchanger:
// their two callbacks are built once and read the query's current fields,
// so a recycled query re-arms without allocating. A query is released
// before its done callback runs, so done may start the next exchange.
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

// acquire takes a query from the free list or builds one.
func (x *exchanger) acquire() *query {
	if n := len(x.free); n > 0 {
		q := x.free[n-1]
		x.free[n-1] = nil
		x.free = x.free[:n-1]
		return q
	}
	q := &query{}
	x.all = append(x.all, q)
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
// too. The owner's Reset calls it once the host and clock resets have
// unbound their ports and dropped their timeouts.
func (x *exchanger) reclaim() {
	if len(x.free) == len(x.all) {
		return
	}
	x.free = x.free[:0]
	for _, q := range x.all {
		q.done = nil
		x.free = append(x.free, q)
	}
}

// finish releases q and then calls its done callback.
func (x *exchanger) finish(q *query, m *dnswire.Message, err error) {
	done := q.done
	q.done = nil
	x.free = append(x.free, q)
	done(m, err)
}

// exchange sends one query for the canonical name and calls done exactly
// once: with the matching response, with ErrTimeout when none arrives
// within timeout, or with the error that kept the query from being sent.
func (x *exchanger) exchange(server ipv4.Addr, name string, qtype dnswire.Type, rd bool, timeout time.Duration, done func(*dnswire.Message, error)) {
	q := x.acquire()
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
	// addrs is LookupA's answer scratch.
	addrs []ipv4.Addr
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
	s.Lookup(name, dnswire.TypeA, true, func(m *dnswire.Message, err error) {
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
	})
}
