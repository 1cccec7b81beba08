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
}

// exchange sends one query for the canonical name and calls done exactly
// once: with the matching response, with ErrTimeout when none arrives
// within timeout, or with the error that kept the query from being sent.
func (x *exchanger) exchange(server ipv4.Addr, name string, qtype dnswire.Type, rd bool, timeout time.Duration, done func(*dnswire.Message, error)) {
	txid := uint16(x.rng.Intn(1 << 16))
	var timer *simclock.Timer
	var port uint16
	handler := func(src ipv4.Addr, srcPort uint16, payload []byte) {
		// The source port check is implicit: this handler is bound to the
		// random port.
		if src != server || srcPort != DNSPort {
			return
		}
		m := &x.rxMsg
		if err := x.dec.UnmarshalInto(m, payload); err != nil || !m.Header.QR || m.Header.ID != txid {
			return
		}
		if len(m.Questions) != 1 || dnswire.CanonicalName(m.Questions[0].Name) != name || m.Questions[0].Type != qtype {
			return
		}
		timer.Stop()
		x.host.UnhandleUDP(port)
		done(m, nil)
	}
	// Re-draw the port on collision.
	for {
		port = uint16(1024 + x.rng.Intn(64512))
		if port == DNSPort {
			continue
		}
		if err := x.host.HandleUDP(port, handler); err == nil {
			break
		}
	}
	timer = x.host.Clock().Schedule(timeout, func() {
		x.host.UnhandleUDP(port)
		done(nil, fmt.Errorf("%w: %s %s @%s", ErrTimeout, name, qtype, server))
	})
	wire, err := dnswire.NewQuery(txid, name, qtype, rd).Marshal()
	if err == nil {
		_, err = x.host.SendUDP(server, port, DNSPort, wire)
	}
	if err != nil {
		timer.Stop()
		x.host.UnhandleUDP(port)
		done(nil, err)
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
}

// NewStub returns a stub that queries resolver from host.
func NewStub(host *simnet.Host, resolver ipv4.Addr, seed int64) *Stub {
	return &Stub{
		exchanger: exchanger{host: host, rng: rand.New(simrand.New(seed))},
		resolver:  resolver,
		Timeout:   3 * time.Second,
	}
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
// and the (minimum) answer TTL in seconds.
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
		addrs := m.AddrsInAnswer(name)
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
