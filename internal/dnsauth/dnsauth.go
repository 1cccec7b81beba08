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
	dec    dnswire.Decoder
	query  dnswire.Message
	resp   dnswire.Message
	wire   []byte
	addrs  []ipv4.Addr // pool addresses of the response being built
	filler string      // TXT padding text, at least cfg.PadResponsesTo bytes
}

// New binds an authoritative server to port 53 on host.
func New(host *simnet.Host, cfg Config) (*Server, error) {
	s := &Server{
		host:  host,
		cfg:   cfg,
		zones: make(map[string]*Zone),
		pools: make(map[string]*Pool),
	}
	if err := host.HandleUDP(DNSPort, s.handle); err != nil {
		return nil, fmt.Errorf("dnsauth: bind: %w", err)
	}
	return s, nil
}

// Reset re-binds the server to its (freshly host.Reset) host under a new
// configuration, restoring the observable state New produces: no zones, no
// pools, zero counters, handler on port 53. Decode/encode scratch, the
// padding filler and the map storage survive — a pooled lab resets its
// nameserver every campaign seed and re-adds its zones afterwards.
func (s *Server) Reset(cfg Config) error {
	s.cfg = cfg
	clear(s.zones)
	clear(s.pools)
	s.QueriesServed = 0
	if err := s.host.HandleUDP(DNSPort, s.handle); err != nil {
		return fmt.Errorf("dnsauth: bind: %w", err)
	}
	return nil
}

// Host returns the underlying simnet host.
func (s *Server) Host() *simnet.Host { return s.host }

// Addr returns the server's address.
func (s *Server) Addr() ipv4.Addr { return s.host.Addr() }

// AddZone serves a zone.
func (s *Server) AddZone(z *Zone) { s.zones[z.Name] = z }

// AddPool serves a round-robin pool.
func (s *Server) AddPool(p *Pool) {
	p.Name = dnswire.CanonicalName(p.Name)
	s.pools[p.Name] = p
}

// Pool returns the pool serving name, matching the apex or any sub-zone
// label (N.pool.ntp.org, de.pool.ntp.org).
func (s *Server) poolFor(name string) *Pool {
	if p, ok := s.pools[name]; ok {
		return p
	}
	for apex, p := range s.pools {
		if strings.HasSuffix(name, "."+apex) {
			return p
		}
	}
	return nil
}

func (s *Server) zoneFor(name string) *Zone {
	if z, ok := s.zones[name]; ok {
		return z
	}
	for apex, z := range s.zones {
		if strings.HasSuffix(name, "."+apex) {
			return z
		}
	}
	return nil
}

func (s *Server) handle(src ipv4.Addr, srcPort uint16, payload []byte) {
	q := &s.query
	if err := s.dec.UnmarshalInto(q, payload); err != nil || q.Header.QR || len(q.Questions) != 1 {
		return
	}
	var wire []byte
	var err error
	if name, positive := s.respondInto(q, &s.resp); positive && s.cfg.PadResponsesTo > 0 {
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
	s.QueriesServed++
	if s.cfg.AlwaysFragmentMTU > 0 {
		_, _ = s.host.SendUDPMTU(src, DNSPort, srcPort, wire, s.cfg.AlwaysFragmentMTU)
		return
	}
	_, _ = s.host.SendUDP(src, DNSPort, srcPort, wire)
}

// respondInto computes the authoritative response for a query into a
// caller-owned message, reusing its section slices — the hot path
// answers every query with one reused message. It returns the canonical
// query name and whether the response carries answers.
func (s *Server) respondInto(q, resp *dnswire.Message) (string, bool) {
	name := dnswire.CanonicalName(q.Questions[0].Name)
	qtype := q.Questions[0].Type
	*resp = dnswire.Message{
		Header:     dnswire.Header{ID: q.Header.ID, QR: true, RD: q.Header.RD},
		Questions:  append(resp.Questions[:0], q.Questions...),
		Answers:    resp.Answers[:0],
		Authority:  resp.Authority[:0],
		Additional: resp.Additional[:0],
	}
	resp.Header.AA = true

	var signed, bogus bool
	if z := s.zoneFor(name); z != nil {
		signed, bogus = z.Signed, z.BogusSignatures
	}

	if p := s.poolFor(name); p != nil && qtype == dnswire.TypeA {
		s.addrs = p.next(s.addrs[:0])
		for _, a := range s.addrs {
			resp.Answers = append(resp.Answers, dnswire.RR{
				Name: name, Type: dnswire.TypeA, Class: dnswire.ClassIN, TTL: p.TTL, Addr: a,
			})
		}
	} else if z := s.zoneFor(name); z != nil {
		for _, rr := range z.Records[name] {
			if rr.Type == qtype || rr.Type == dnswire.TypeCNAME {
				resp.Answers = append(resp.Answers, rr)
			}
		}
	} else if s.poolFor(name) == nil {
		resp.Header.RCode = dnswire.RCodeNXDomain
		return name, false
	}

	if len(resp.Answers) == 0 {
		resp.Header.RCode = dnswire.RCodeNXDomain
		return name, false
	}

	if signed {
		marker := SigValid + SignRRSet(resp.Answers)
		if bogus {
			marker = SigBogus + SignRRSet(resp.Answers)
		}
		resp.Answers = append(resp.Answers, dnswire.RR{
			Name: name, Type: dnswire.TypeRRSIG, Class: dnswire.ClassIN,
			TTL: resp.Answers[0].TTL, Raw: []byte(marker),
		})
	}

	return name, true
}
