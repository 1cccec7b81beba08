// Package dnsres implements a recursive caching DNS resolver bound to a
// simnet host — the victim of the cache-poisoning attack. It models the
// post-Kaminsky defences the attack bypasses (source-port and TXID
// randomisation per RFC 5452), TTL-driven caching, RD=0 cache-snooping
// semantics used by the Section VIII measurements, optional DNSSEC
// validation, and configurable acceptance of fragmented responses.
package dnsres

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"dnstime/internal/dnsauth"
	"dnstime/internal/dnswire"
	"dnstime/internal/ipv4"
	"dnstime/internal/simclock"
	"dnstime/internal/simnet"
	"dnstime/internal/simrand"
)

// DNSPort is the well-known DNS UDP port.
const DNSPort = 53

// Errors surfaced to lookup callers.
var (
	ErrTimeout     = errors.New("dnsres: query timed out")
	ErrServFail    = errors.New("dnsres: upstream returned SERVFAIL")
	ErrNXDomain    = errors.New("dnsres: no such domain")
	ErrBogusDNSSEC = errors.New("dnsres: DNSSEC validation failed")
)

// Config tunes resolver behaviour.
type Config struct {
	// Delegations maps zone apexes to authoritative nameserver addresses.
	// The most specific suffix match wins.
	Delegations map[string]ipv4.Addr
	// ValidateDNSSEC rejects answers carrying bogus RRSIGs and sets the AD
	// bit on validated answers. Unsigned answers still pass (as on the real
	// Internet, where pool.ntp.org is unsigned — the attack's enabler).
	ValidateDNSSEC bool
	// QueryTimeout bounds each upstream round trip (default 2 s).
	QueryTimeout time.Duration
	// Retries is the number of additional attempts after a timeout
	// (default 1).
	Retries int
	// RandSeed seeds port/TXID randomisation (deterministic per seed).
	RandSeed int64
	// MinTTL clamps cached TTLs from below (default 0).
	MinTTL time.Duration
}

// CacheEntry is one cached RRset. Its RRs live in the resolver's record
// arena: they never change while the entry is cached and stay valid until
// the resolver's next Reset, which reuses the arena.
type CacheEntry struct {
	RRs      []dnswire.RR
	Inserted time.Time
	Expires  time.Time
}

// Stats counts resolver activity.
type Stats struct {
	ClientQueries   int
	CacheHits       int
	CacheMisses     int
	UpstreamQueries int
	Poisoned        int // answers accepted whose TXID/port matched but came via fragments (diagnostic; set by tests)
	ValidationFails int
}

type cacheKey struct {
	name  string
	qtype dnswire.Type
}

// Resolver is a recursive caching resolver.
type Resolver struct {
	// exchanger sends the upstream queries. Its one reused decode message
	// absorbs the attacker's response floods without allocating.
	exchanger
	clock *simclock.Clock
	cfg   Config
	cache map[cacheKey]CacheEntry
	stats Stats
	// arena holds every RRset cached since the last Reset, each stored once
	// and never changed; CacheEntry.RRs are windows of it. hits is the
	// scratch cache hits are served from, with their TTLs counted down.
	arena []dnswire.RR
	hits  []dnswire.RR

	// cliDec and cliMsg decode client queries; handleClient copies the
	// question value out before any asynchronous work, so the scratch is
	// free for the next arrival. replyBuf is the response encode buffer —
	// a reply encodes and sends in one step (SendUDP copies), so even
	// replies fired from asynchronous lookup callbacks can share it.
	cliDec   dnswire.Decoder
	cliMsg   dnswire.Message
	replyBuf []byte
	// recv is handleClient bound once, so that Reset re-binds port 53
	// without allocating a method value.
	recv simnet.UDPHandler
}

// New binds a resolver to port 53 of host, as Reset does.
func New(host *simnet.Host, cfg Config) (*Resolver, error) {
	r := &Resolver{
		exchanger: exchanger{host: host, rng: rand.New(simrand.New(0))},
		clock:     host.Clock(),
		cache:     make(map[cacheKey]CacheEntry),
	}
	r.recv = r.handleClient
	if err := r.Reset(cfg); err != nil {
		return nil, err
	}
	return r, nil
}

// Reset binds the resolver to port 53 of its (freshly host.Reset) host
// under cfg, with defaults applied, an empty cache, zero stats and an RNG
// stream identical to rand.New(rand.NewSource(RandSeed)). New ends with a
// Reset, so a reset resolver is a fresh one. Reseeding only records
// RandSeed: internal/simrand produces the stream's first outputs, in
// closed form, as the TXIDs and ports are drawn. Decode scratch —
// including the decoders' name-intern tables, which hold only immutable
// content-addressed strings — map storage and the record arena are
// retained. Upstream queries still outstanding return to the query pool
// unanswered, so the clock must have been reset too, which drops their
// timeouts (the lab pool resets it first).
func (r *Resolver) Reset(cfg Config) error {
	if cfg.QueryTimeout == 0 {
		cfg.QueryTimeout = 2 * time.Second
	}
	if cfg.Retries == 0 {
		cfg.Retries = 1
	}
	r.cfg = cfg
	r.rng.Seed(cfg.RandSeed)
	r.reclaim()
	clear(r.cache)
	clear(r.arena)
	r.arena = r.arena[:0]
	r.stats = Stats{}
	if err := r.host.HandleUDP(DNSPort, r.recv); err != nil {
		return fmt.Errorf("dnsres: bind: %w", err)
	}
	return nil
}

// Host returns the resolver's simnet host.
func (r *Resolver) Host() *simnet.Host { return r.host }

// Addr returns the resolver's address.
func (r *Resolver) Addr() ipv4.Addr { return r.host.Addr() }

// Stats returns a snapshot of resolver counters.
func (r *Resolver) Stats() Stats { return r.stats }

// CacheLen reports the number of live cache entries.
func (r *Resolver) CacheLen() int {
	n := 0
	now := r.clock.Now()
	for _, e := range r.cache {
		if now.Before(e.Expires) {
			n++
		}
	}
	return n
}

// Lookup resolves (name, qtype) and calls done with the answer RRs.
// Answers come from cache when fresh, otherwise from the delegated
// authoritative server with a randomised source port and TXID. The RRs
// are valid only for the duration of done: a cache hit serves them from
// the resolver's scratch, which the next hit overwrites, so done must copy
// what it keeps. handleClient's reply encodes them before it returns.
func (r *Resolver) Lookup(name string, qtype dnswire.Type, done func([]dnswire.RR, error)) {
	name = dnswire.CanonicalName(name)
	if rrs, ok := r.cached(name, qtype); ok {
		r.stats.CacheHits++
		done(rrs, nil)
		return
	}
	r.stats.CacheMisses++
	server, ok := r.delegationFor(name)
	if !ok {
		done(nil, fmt.Errorf("%w: no delegation for %q", ErrServFail, name))
		return
	}
	r.queryUpstream(server, name, qtype, r.cfg.Retries, func(m *dnswire.Message, err error) {
		if err != nil {
			done(nil, err)
			return
		}
		rrs := r.acceptAnswer(name, qtype, m, done)
		if rrs == nil {
			return
		}
		done(rrs, nil)
	})
}

// acceptAnswer validates and caches a response; returns the answer RRs or
// nil after invoking done with an error.
func (r *Resolver) acceptAnswer(name string, qtype dnswire.Type, m *dnswire.Message, done func([]dnswire.RR, error)) []dnswire.RR {
	if m.Header.RCode == dnswire.RCodeNXDomain {
		done(nil, fmt.Errorf("%w: %s", ErrNXDomain, name))
		return nil
	}
	if m.Header.RCode != dnswire.RCodeNoError {
		done(nil, fmt.Errorf("%w: rcode %d", ErrServFail, m.Header.RCode))
		return nil
	}
	if r.cfg.ValidateDNSSEC {
		if err := validateAnswer(m.Answers); err != nil {
			r.stats.ValidationFails++
			done(nil, err)
			return nil
		}
	}
	start := len(r.arena)
	for _, rr := range m.Answers {
		if rr.Type == dnswire.TypeRRSIG {
			continue
		}
		r.arena = append(r.arena, rr)
	}
	if len(r.arena) == start {
		done(nil, fmt.Errorf("%w: empty answer", ErrServFail))
		return nil
	}
	rrs := r.arena[start:len(r.arena):len(r.arena)]
	r.insert(name, qtype, rrs)
	return rrs
}

// validateAnswer checks the RRSIG marker against a recomputed RRset hash:
// unsigned answers pass (as on the real Internet, where pool.ntp.org is
// unsigned); signed answers must carry a valid marker whose hash matches
// the records — which the fragment attack's rdata replacement breaks.
func validateAnswer(answers []dnswire.RR) error {
	var marker string
	for _, rr := range answers {
		if rr.Type == dnswire.TypeRRSIG {
			marker = string(rr.Raw)
		}
	}
	if marker == "" {
		return nil // unsigned
	}
	if !strings.HasPrefix(marker, dnsauth.SigValid) {
		return fmt.Errorf("%w: bogus signature", ErrBogusDNSSEC)
	}
	want := strings.TrimPrefix(marker, dnsauth.SigValid)
	if got := dnsauth.SignRRSet(answers); got != want {
		return fmt.Errorf("%w: signature does not cover the answer data", ErrBogusDNSSEC)
	}
	return nil
}

// cached returns fresh RRs with decremented TTLs, in the hit scratch:
// they are valid until the next hit.
func (r *Resolver) cached(name string, qtype dnswire.Type) ([]dnswire.RR, bool) {
	e, ok := r.cache[cacheKey{name, qtype}]
	if !ok {
		return nil, false
	}
	now := r.clock.Now()
	if !now.Before(e.Expires) {
		delete(r.cache, cacheKey{name, qtype})
		return nil, false
	}
	remaining := uint32(e.Expires.Sub(now) / time.Second)
	r.hits = append(r.hits[:0], e.RRs...)
	for i := range r.hits {
		r.hits[i].TTL = remaining
	}
	return r.hits, true
}

// insert caches an RRset keyed by (name, qtype) using the smallest TTL.
// rrs must be a window of the arena, which the entry keeps as is.
func (r *Resolver) insert(name string, qtype dnswire.Type, rrs []dnswire.RR) {
	minTTL := rrs[0].TTL
	for _, rr := range rrs {
		if rr.TTL < minTTL {
			minTTL = rr.TTL
		}
	}
	ttl := time.Duration(minTTL) * time.Second
	if ttl < r.cfg.MinTTL {
		ttl = r.cfg.MinTTL
	}
	now := r.clock.Now()
	r.cache[cacheKey{name, qtype}] = CacheEntry{
		RRs:      rrs,
		Inserted: now,
		Expires:  now.Add(ttl),
	}
}

// Peek returns the live cache entry for (name, qtype) without refreshing.
// Its RRs are the cached ones, valid until the resolver's next Reset.
func (r *Resolver) Peek(name string, qtype dnswire.Type) (CacheEntry, bool) {
	e, ok := r.cache[cacheKey{dnswire.CanonicalName(name), qtype}]
	if !ok || !r.clock.Now().Before(e.Expires) {
		return CacheEntry{}, false
	}
	return e, true
}

// OverrideCache force-installs a cache entry, representing the outcome of a
// successful poisoning. The packet-level fragment-replacement pipeline is
// exercised end-to-end in internal/attack; experiments that need poisoning
// outcomes the fragment vector cannot shape byte-for-byte (notably the
// Chronos attack's 89-address response, §VI-C — the answer *count* lives in
// the first fragment, which the off-path attacker does not control) use
// this hook and document the substitution in EXPERIMENTS.md.
func (r *Resolver) OverrideCache(name string, qtype dnswire.Type, rrs []dnswire.RR, ttl time.Duration) {
	now := r.clock.Now()
	start := len(r.arena)
	r.arena = append(r.arena, rrs...)
	r.cache[cacheKey{dnswire.CanonicalName(name), qtype}] = CacheEntry{
		RRs:      r.arena[start:len(r.arena):len(r.arena)],
		Inserted: now,
		Expires:  now.Add(ttl),
	}
}

// Evict removes a cache entry (tests and cache-eviction experiments).
func (r *Resolver) Evict(name string, qtype dnswire.Type) {
	delete(r.cache, cacheKey{dnswire.CanonicalName(name), qtype})
}

// delegationFor finds the authoritative server for name by longest-suffix
// match; "." (or "") is the default.
func (r *Resolver) delegationFor(name string) (ipv4.Addr, bool) {
	best := ""
	var addr ipv4.Addr
	found := false
	for apex, a := range r.cfg.Delegations {
		apex = dnswire.CanonicalName(apex)
		if apex == "" || name == apex || hasSuffixLabel(name, apex) {
			if len(apex) >= len(best) && (apex != "" || !found) {
				if apex == "" && best != "" {
					continue
				}
				best, addr, found = apex, a, true
			}
		}
	}
	return addr, found
}

func hasSuffixLabel(name, apex string) bool {
	return len(name) > len(apex) && name[len(name)-len(apex)-1] == '.' &&
		name[len(name)-len(apex):] == apex
}

// queryUpstream sends one upstream query, and again on each timeout
// while retries remain.
func (r *Resolver) queryUpstream(server ipv4.Addr, name string, qtype dnswire.Type, retries int, done func(*dnswire.Message, error)) {
	r.stats.UpstreamQueries++
	r.exchange(server, name, qtype, false, r.cfg.QueryTimeout, func(m *dnswire.Message, err error) {
		if retries > 0 && errors.Is(err, ErrTimeout) {
			r.queryUpstream(server, name, qtype, retries-1, done)
			return
		}
		done(m, err)
	})
}

// handleClient serves stub queries arriving on port 53. RD=1 queries are
// resolved recursively; RD=0 queries are answered from cache only — the
// semantics the cache-snooping measurement (Section VIII-A) relies on.
func (r *Resolver) handleClient(src ipv4.Addr, srcPort uint16, payload []byte) {
	q := &r.cliMsg
	if err := r.cliDec.UnmarshalInto(q, payload); err != nil || q.Header.QR || len(q.Questions) != 1 {
		return
	}
	r.stats.ClientQueries++
	// Copy the header bits and question value out of the decode scratch:
	// the reply may fire from an asynchronous lookup callback, long after
	// the scratch has been reused (the question's name is interned, so the
	// value copy retains nothing from the wire buffer).
	txid, rd := q.Header.ID, q.Header.RD
	question := q.Questions[0]
	name := dnswire.CanonicalName(question.Name)
	qtype := question.Type

	reply := func(rrs []dnswire.RR, rcode dnswire.RCode) {
		resp := dnswire.Message{Header: dnswire.Header{ID: txid, QR: true, RD: rd}}
		resp.Questions = append(resp.Questions, question)
		resp.Header.RA = true
		resp.Header.RCode = rcode
		resp.Header.AD = r.cfg.ValidateDNSSEC && rcode == dnswire.RCodeNoError && len(rrs) > 0
		resp.Answers = rrs
		wire, err := resp.AppendMarshal(r.replyBuf[:0])
		if err != nil {
			return
		}
		r.replyBuf = wire
		_, _ = r.host.SendUDP(src, DNSPort, srcPort, wire)
	}

	if !rd {
		if rrs, ok := r.cached(name, qtype); ok {
			r.stats.CacheHits++
			reply(rrs, dnswire.RCodeNoError)
		} else {
			// Not cached and recursion not desired: empty NOERROR.
			reply(nil, dnswire.RCodeNoError)
		}
		return
	}

	r.Lookup(name, qtype, func(rrs []dnswire.RR, err error) {
		switch {
		case errors.Is(err, ErrNXDomain):
			reply(nil, dnswire.RCodeNXDomain)
		case err != nil:
			reply(nil, dnswire.RCodeServFail)
		default:
			reply(rrs, dnswire.RCodeNoError)
		}
	})
}
