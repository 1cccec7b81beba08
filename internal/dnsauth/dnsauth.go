// Package dnsauth implements an authoritative DNS nameserver bound to a
// simnet host. It models the behaviours that matter for the attack and the
// paper's measurements:
//
//   - round-robin address pools in the style of pool.ntp.org (4 addresses
//     per response, TTL 150 s, country sub-zones),
//   - path-MTU-discovery compliance: because responses travel through the
//     host's PMTU cache, a (spoofed) ICMP Fragmentation Needed makes the
//     server emit fragmented DNS responses — the property scanned in
//     Section VII-B and Figure 5,
//   - optional DNSSEC signing (RRSIG records that validating resolvers
//     check; the sigfail/sigright domains of the ad study carry valid or
//     deliberately bogus signatures),
//   - response-size shaping via TXT padding, standing in for the "long
//     subdomain" trick the attacker uses to push responses past the
//     fragmentation threshold.
package dnsauth

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"strings"

	"dnstime/internal/dnswire"
	"dnstime/internal/ipv4"
	"dnstime/internal/simnet"
)

// DNSPort is the well-known DNS UDP port.
const DNSPort = 53

// RRSIG payload markers. Real validation is cryptographic; the simulation
// carries a marker binding a hash of the signed RRset (owner, type, TTL and
// rdata of every answer record), which preserves the essential property:
// any off-path modification of the answer data — including the fragment
// attack's rdata replacement — breaks validation at a validating resolver,
// without implementing DNSSEC key management.
const (
	SigValid = "RRSIG:valid:"
	SigBogus = "RRSIG:bogus:"
)

// SignRRSet computes the simulation's stand-in signature over an answer
// RRset. Validating resolvers recompute it via dnsres.
func SignRRSet(rrs []dnswire.RR) string {
	h := fnv.New32a()
	for _, rr := range rrs {
		if rr.Type == dnswire.TypeRRSIG {
			continue
		}
		fmt.Fprintf(h, "%s|%d|%d|", dnswire.CanonicalName(rr.Name), rr.Type, rr.TTL)
		switch rr.Type {
		case dnswire.TypeA:
			h.Write(rr.Addr[:])
		case dnswire.TypeNS, dnswire.TypeCNAME:
			h.Write([]byte(dnswire.CanonicalName(rr.Target)))
		case dnswire.TypeTXT:
			h.Write([]byte(rr.Text))
		default:
			h.Write(rr.Raw)
		}
	}
	return fmt.Sprintf("%08x", h.Sum32())
}

// Pool is a round-robin address pool: each A query for the pool name (or a
// numbered/country sub-zone such as 0.pool.ntp.org, de.pool.ntp.org)
// returns PerResponse addresses starting at a rotating cursor.
type Pool struct {
	// Name is the apex, e.g. "pool.ntp.org".
	Name string
	// Addrs is the full server population.
	Addrs []ipv4.Addr
	// PerResponse is how many addresses each response carries (paper: 4).
	PerResponse int
	// TTL is the record TTL in seconds (paper: 150).
	TTL uint32

	cursor int
}

// next appends the next PerResponse addresses to dst, advancing the
// cursor, and returns the extended slice.
func (p *Pool) next(dst []ipv4.Addr) []ipv4.Addr {
	k := p.PerResponse
	if k <= 0 {
		k = 4
	}
	if k > len(p.Addrs) {
		k = len(p.Addrs)
	}
	for i := 0; i < k; i++ {
		dst = append(dst, p.Addrs[(p.cursor+i)%len(p.Addrs)])
	}
	p.cursor = (p.cursor + k) % max(1, len(p.Addrs))
	return dst
}

// Zone is a statically configured zone.
type Zone struct {
	// Name is the zone apex; owns every name at or below it.
	Name string
	// Records maps canonical owner names to their record sets.
	Records map[string][]dnswire.RR
	// Signed adds RRSIG records to every positive answer.
	Signed bool
	// BogusSignatures makes the RRSIGs fail validation (the "sigfail"
	// domain in the ad-network study).
	BogusSignatures bool
}

// NewZone returns an empty zone.
func NewZone(name string) *Zone {
	return &Zone{Name: dnswire.CanonicalName(name), Records: make(map[string][]dnswire.RR)}
}

// AddA adds an A record.
func (z *Zone) AddA(name string, ttl uint32, addr ipv4.Addr) {
	n := dnswire.CanonicalName(name)
	z.Records[n] = append(z.Records[n], dnswire.RR{
		Name: n, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: ttl, Addr: addr,
	})
}

// Config tunes server behaviour.
type Config struct {
	// PadResponsesTo appends TXT padding so every positive response is at
	// least this many bytes of DNS payload. Zero disables padding.
	PadResponsesTo int
	// AlwaysFragmentMTU, when non-zero, sends every response as at least
	// two fragments of at most this size regardless of path MTU — the test
	// nameserver behaviour from the ad study.
	AlwaysFragmentMTU int
}

// Server is an authoritative nameserver.
type Server struct {
	host  *simnet.Host
	cfg   Config
	zones map[string]*Zone
	pools map[string]*Pool

	// QueriesServed counts answered queries (measurement aid).
	QueriesServed int

	// Per-server scratch state for the query hot path. SendUDP/SendUDPMTU
	// copy the payload before returning, so the wire buffers are safe to
	// reuse across queries.
	dec   dnswire.Decoder
	query dnswire.Message
	resp  dnswire.Message
	// wire is the last answer sent, and key the bytes after the 2-byte ID
	// of the query it answered, or empty when the answer may not repeat:
	// a query with the same bytes after its ID gets wire with its own ID
	// patched in. Reset, AddZone and AddPool empty key, and every query
	// that misses empties it before wire is overwritten.
	wire   []byte
	key    []byte
	addrs  []ipv4.Addr // pool addresses of the response being built
	filler string      // TXT padding text, at least cfg.PadResponsesTo bytes
	// recv is handle bound once, so that Reset re-binds the port without
	// allocating a method value.
	recv simnet.UDPHandler
}

// New binds an authoritative server to port 53 on host, as Reset does.
func New(host *simnet.Host, cfg Config) (*Server, error) {
	s := &Server{
		host:  host,
		zones: make(map[string]*Zone),
		pools: make(map[string]*Pool),
	}
	s.recv = s.handle
	if err := s.Reset(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset binds the server to port 53 of its (freshly host.Reset) host
// under cfg, with no zones, no pools and zero counters. New ends with a
// Reset, so a reset server is a fresh one. Decode/encode scratch, the
// padding filler and the map storage survive — a pooled lab resets its
// nameserver every campaign seed and re-adds its zones afterwards.
func (s *Server) Reset(cfg Config) error {
	s.cfg = cfg
	clear(s.zones)
	clear(s.pools)
	s.key = s.key[:0]
	s.QueriesServed = 0
	if err := s.host.HandleUDP(DNSPort, s.recv); err != nil {
		return fmt.Errorf("dnsauth: bind: %w", err)
	}
	return nil
}

// Host returns the underlying simnet host.
func (s *Server) Host() *simnet.Host { return s.host }

// Addr returns the server's address.
func (s *Server) Addr() ipv4.Addr { return s.host.Addr() }

// AddZone serves a zone, replacing any zone of the same apex. The server
// treats an added zone as frozen: a caller must not change its records or
// flags afterwards, since a repeated query is answered from the last
// answer's wire image.
func (s *Server) AddZone(z *Zone) {
	s.zones[z.Name] = z
	s.key = s.key[:0]
}

// AddPool serves a round-robin pool, replacing any pool of the same apex.
// Like a zone, an added pool is frozen: only the server moves its cursor.
func (s *Server) AddPool(p *Pool) {
	p.Name = dnswire.CanonicalName(p.Name)
	s.pools[p.Name] = p
	s.key = s.key[:0]
}

// lookup returns the pool and the zone serving name: for each, the one
// whose apex is the longest suffix of name at a label boundary (the name
// itself, then each parent in turn), so nested apexes resolve the same
// way whatever the map order. Either may be nil.
func (s *Server) lookup(name string) (*Pool, *Zone) {
	var p *Pool
	var z *Zone
	for suffix := name; ; {
		if p == nil {
			p = s.pools[suffix]
		}
		if z == nil {
			z = s.zones[suffix]
		}
		dot := strings.IndexByte(suffix, '.')
		if (p != nil && z != nil) || dot < 0 {
			return p, z
		}
		suffix = suffix[dot+1:]
	}
}

func (s *Server) handle(src ipv4.Addr, srcPort uint16, payload []byte) {
	if len(payload) > 2 && bytes.Equal(payload[2:], s.key) {
		copy(s.wire, payload[:2])
		s.send(src, srcPort)
		return
	}
	s.key = s.key[:0]
	q := &s.query
	if err := s.dec.UnmarshalInto(q, payload); err != nil || q.Header.QR || len(q.Questions) != 1 {
		return
	}
	var wire []byte
	var err error
	name, positive, repeats := s.respondInto(q, &s.resp)
	if positive && s.cfg.PadResponsesTo > 0 {
		// A positive answer grows by a TXT filler record owned by the
		// query name until it is PadResponsesTo bytes long. The filler
		// record is encoded after the answer, in the same pass.
		if len(s.filler) < s.cfg.PadResponsesTo {
			s.filler = strings.Repeat("p", s.cfg.PadResponsesTo)
		}
		wire, err = s.resp.AppendMarshalPadded(s.wire[:0], s.cfg.PadResponsesTo, name, s.filler)
	} else {
		wire, err = s.resp.AppendMarshal(s.wire[:0])
	}
	if err != nil {
		return
	}
	s.wire = wire
	if repeats {
		s.key = append(s.key, payload[2:]...)
	}
	s.send(src, srcPort)
}

// send counts and sends the answer in wire: the one send tail of a fresh
// answer and a repeated one.
func (s *Server) send(dst ipv4.Addr, dstPort uint16) {
	s.QueriesServed++
	if s.cfg.AlwaysFragmentMTU > 0 {
		_, _ = s.host.SendUDPMTU(dst, DNSPort, dstPort, s.wire, s.cfg.AlwaysFragmentMTU)
		return
	}
	_, _ = s.host.SendUDP(dst, DNSPort, dstPort, s.wire)
}

// respondInto computes the authoritative response for a query into a
// caller-owned message, reusing its section slices — the hot path
// answers every query with one reused message. It returns the canonical
// query name, whether the response carries answers, and whether the same
// query would get the same response again: it would not when the answer
// moved a pool's cursor.
func (s *Server) respondInto(q, resp *dnswire.Message) (name string, positive, repeats bool) {
	name = dnswire.CanonicalName(q.Questions[0].Name)
	qtype := q.Questions[0].Type
	*resp = dnswire.Message{
		Header:     dnswire.Header{ID: q.Header.ID, QR: true, RD: q.Header.RD},
		Questions:  append(resp.Questions[:0], q.Questions...),
		Answers:    resp.Answers[:0],
		Authority:  resp.Authority[:0],
		Additional: resp.Additional[:0],
	}
	resp.Header.AA = true

	repeats = true
	p, z := s.lookup(name)
	switch {
	case p != nil && qtype == dnswire.TypeA:
		cursor := p.cursor
		s.addrs = p.next(s.addrs[:0])
		repeats = p.cursor == cursor
		for _, a := range s.addrs {
			resp.Answers = append(resp.Answers, dnswire.RR{
				Name: name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: p.TTL, Addr: a,
			})
		}
	case z != nil:
		for _, rr := range z.Records[name] {
			if rr.Type == qtype || rr.Type == dnswire.TypeCNAME {
				resp.Answers = append(resp.Answers, rr)
			}
		}
	}

	if len(resp.Answers) == 0 {
		resp.Header.RCode = dnswire.RCodeNXDomain
		return name, false, repeats
	}

	if z != nil && z.Signed {
		marker := SigValid + SignRRSet(resp.Answers)
		if z.BogusSignatures {
			marker = SigBogus + SignRRSet(resp.Answers)
		}
		resp.Answers = append(resp.Answers, dnswire.RR{
			Name: name, Type: dnswire.TypeRRSIG, Class: dnswire.ClassIN,
			TTL: resp.Answers[0].TTL, Raw: []byte(marker),
		})
	}

	return name, true, repeats
}
