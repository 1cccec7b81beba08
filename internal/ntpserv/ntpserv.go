// Package ntpserv implements an NTP server on a simnet host. It answers
// only mode-3 client queries, and it models the server-side behaviours the
// paper measures and exploits:
//
//   - server-side rate limiting (ntpd's "restrict limited" / "discard"):
//     when queries from one client IP arrive faster than a minimum
//     interarrival time, the server optionally sends one Kiss-o'-Death
//     (RATE) and then stops answering that client for a hold-down period.
//     Spoofed mode-3 floods with the victim's source address therefore make
//     the server appear dead to the victim (Section IV-B2);
//   - attacker-operated servers that serve deliberately shifted time
//     (step C of the attack).
package ntpserv

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"dnstime/internal/ipv4"
	"dnstime/internal/ntpwire"
	"dnstime/internal/simnet"
)

// RateLimitConfig controls server-side rate limiting, modelled as a
// per-client-IP token bucket (ntpd's "restrict limited" with "discard"):
// each query consumes one token; tokens refill at one per MinInterval up to
// Burst. A query that finds the bucket empty trips a hold-down during which
// every query (including the one that tripped it) is dropped and re-arms
// the hold-down. Because the bucket keys on the *claimed* source address,
// a spoofed flood exhausts the victim's standing (Section IV-B2).
type RateLimitConfig struct {
	// Enabled turns rate limiting on (paper: ~38% of pool servers).
	Enabled bool
	// MinInterval is the sustained allowed interarrival time per client IP
	// (token refill period; default 2 s).
	MinInterval time.Duration
	// Burst is the token-bucket capacity (default 12).
	Burst int
	// HoldDown is how long the server ignores a limited client; every
	// further query during hold-down re-arms it (default 60 s).
	HoldDown time.Duration
	// SendKoD sends one RATE Kiss-o'-Death at the moment the client
	// becomes limited (paper: ~33% of pool servers send KoD).
	SendKoD bool
}

// Config configures a Server.
type Config struct {
	// Stratum reported in responses (default 2).
	Stratum uint8
	// Offset shifts the served time relative to true (simulation) time.
	// Honest servers use 0; the attacker's servers serve e.g. −500 s.
	Offset time.Duration
	// RefID is the reference identifier; for stratum ≥ 2 servers this is
	// the upstream server's IPv4 address (the P2 discovery leak). If zero
	// it defaults to an opaque constant.
	RefID [4]byte
	// RateLimit configures rate limiting.
	RateLimit RateLimitConfig
}

// Stats counts server activity.
type Stats struct {
	Queries     int
	Answered    int
	RateLimited int
	KoDSent     int
}

// limiterState is one client's token bucket, under its address.
type limiterState struct {
	client     ipv4.Addr
	tokens     float64
	lastRefill time.Time
	heldUntil  time.Time
	kodSent    bool
}

// Server is an NTP server bound to port 123 of a simnet host.
type Server struct {
	host *simnet.Host
	cfg  Config
	// state holds the rate limiter's clients sorted by address and is
	// searched by binary search: a lab server limits one client, but the
	// limiter keys on spoofable source addresses.
	state []limiterState
	stats Stats
	wire  []byte // response encode scratch; SendUDP copies before returning
	// recv is handle bound once, so that Reset re-binds the port without
	// allocating a method value.
	recv simnet.UDPHandler
}

// New binds a server to UDP port 123 on host, as Reset does.
func New(host *simnet.Host, cfg Config) (*Server, error) {
	s := &Server{host: host}
	s.recv = s.handle
	if err := s.Reset(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset binds the server to UDP port 123 of its (freshly host.Reset)
// host under cfg, with defaults applied, an empty limiter table and zero
// stats. New ends with a Reset, so a reset server is a fresh one. The
// encode scratch and the limiter table's storage are retained — that reuse
// is the point (the lab pool resets a dozen servers per campaign seed).
func (s *Server) Reset(cfg Config) error {
	if cfg.Stratum == 0 {
		cfg.Stratum = 2
	}
	if cfg.RefID == ([4]byte{}) {
		cfg.RefID = [4]byte{127, 127, 1, 0}
	}
	if cfg.RateLimit.MinInterval == 0 {
		cfg.RateLimit.MinInterval = 2 * time.Second
	}
	if cfg.RateLimit.Burst == 0 {
		cfg.RateLimit.Burst = 12
	}
	if cfg.RateLimit.HoldDown == 0 {
		cfg.RateLimit.HoldDown = 60 * time.Second
	}
	s.cfg = cfg
	s.state = s.state[:0]
	s.stats = Stats{}
	if err := s.host.HandleUDP(ntpwire.Port, s.recv); err != nil {
		return fmt.Errorf("ntpserv: bind: %w", err)
	}
	return nil
}

// Host returns the underlying host.
func (s *Server) Host() *simnet.Host { return s.host }

// Addr returns the server address.
func (s *Server) Addr() ipv4.Addr { return s.host.Addr() }

// Stats returns a snapshot of counters.
func (s *Server) Stats() Stats { return s.stats }

// RateLimits reports whether rate limiting is enabled (population scans).
func (s *Server) RateLimits() bool { return s.cfg.RateLimit.Enabled }

// IsLimiting reports whether queries from client are currently held down.
func (s *Server) IsLimiting(client ipv4.Addr) bool {
	i, ok := s.find(client)
	return ok && s.host.Clock().Now().Before(s.state[i].heldUntil)
}

// find returns where client is, or would be inserted, in s.state, and
// whether it is there.
func (s *Server) find(client ipv4.Addr) (int, bool) {
	key := addrKey(client)
	lo, hi := 0, len(s.state)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if addrKey(s.state[m].client) < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(s.state) && s.state[lo].client == client
}

// addrKey orders addresses as integers.
func addrKey(a ipv4.Addr) uint32 { return binary.BigEndian.Uint32(a[:]) }

// now returns the server's (possibly shifted) clock reading.
func (s *Server) now() time.Time {
	return s.host.Clock().Now().Add(s.cfg.Offset)
}

func (s *Server) handle(src ipv4.Addr, srcPort uint16, payload []byte) {
	s.stats.Queries++
	var q ntpwire.Packet
	if err := ntpwire.UnmarshalInto(&q, payload); err != nil || q.Mode != ntpwire.ModeClient {
		return
	}
	if s.cfg.RateLimit.Enabled && s.limit(src, srcPort) {
		return
	}
	s.stats.Answered++
	resp := ntpwire.ServerPacket(&q, s.now(), s.cfg.Stratum, s.cfg.RefID)
	s.wire = resp.AppendMarshal(s.wire[:0])
	_, _ = s.host.SendUDP(src, ntpwire.Port, srcPort, s.wire)
}

// limit applies the token-bucket rate limiter to a query from src; it
// reports whether the query must be dropped, and sends a KoD at the
// limiting edge when configured. Note the limiter keys on the *claimed*
// source address — the reason spoofed floods poison the victim's standing
// with the server.
func (s *Server) limit(src ipv4.Addr, srcPort uint16) bool {
	now := s.host.Clock().Now()
	cfg := s.cfg.RateLimit
	i, ok := s.find(src)
	if !ok {
		s.state = slices.Insert(s.state, i, limiterState{client: src, tokens: float64(cfg.Burst), lastRefill: now})
	}
	st := &s.state[i]
	if now.Before(st.heldUntil) {
		// Every query during hold-down re-arms it.
		st.heldUntil = now.Add(cfg.HoldDown)
		s.stats.RateLimited++
		return true
	}
	// Refill.
	st.tokens += float64(now.Sub(st.lastRefill)) / float64(cfg.MinInterval)
	if st.tokens > float64(cfg.Burst) {
		st.tokens = float64(cfg.Burst)
	}
	st.lastRefill = now
	if st.tokens >= 1 {
		st.tokens--
		st.kodSent = false
		return false
	}
	// Bucket dry: trip the hold-down.
	st.heldUntil = now.Add(cfg.HoldDown)
	s.stats.RateLimited++
	if cfg.SendKoD && !st.kodSent {
		st.kodSent = true
		s.stats.KoDSent++
		kod := ntpwire.NewKoD(&ntpwire.Packet{}, ntpwire.KissRATE)
		s.wire = kod.AppendMarshal(s.wire[:0])
		_, _ = s.host.SendUDP(src, ntpwire.Port, srcPort, s.wire)
	}
	return true
}
