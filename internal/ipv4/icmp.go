package ipv4

import (
	"encoding/binary"
	"errors"
	"slices"
	"time"

	"dnstime/internal/simclock"
)

// ICMP type/code values used in the simulation.
const (
	ICMPDestUnreachable = 3
	ICMPCodeFragNeeded  = 4
)

// ErrShortICMP is returned when an ICMP payload cannot be parsed.
var ErrShortICMP = errors.New("ipv4: short icmp message")

// ICMPFragNeeded is a Destination Unreachable / Fragmentation Needed
// message (type 3, code 4). The attacker spoofs one of these, claiming to
// come from a router on the path from the nameserver to the victim
// resolver, to force the nameserver to fragment its DNS responses down to
// NextHopMTU (Section III-1).
type ICMPFragNeeded struct {
	NextHopMTU uint16
	// The embedded original header: who the "too big" packet was from/to.
	OrigSrc   Addr
	OrigDst   Addr
	OrigProto Protocol
}

// icmpFragNeededLen is the encoded length of an ICMPFragNeeded message.
const icmpFragNeededLen = 17

// Marshal encodes the message as an IP payload.
func (m *ICMPFragNeeded) Marshal() []byte {
	return m.AppendMarshal(make([]byte, 0, icmpFragNeededLen))
}

// AppendMarshal appends the message's encoding to dst and returns the
// extended slice: a caller with a scratch buffer allocates nothing.
func (m *ICMPFragNeeded) AppendMarshal(dst []byte) []byte {
	dst = slices.Grow(dst, icmpFragNeededLen)
	b := dst[len(dst) : len(dst)+icmpFragNeededLen]
	clear(b)
	b[0] = ICMPDestUnreachable
	b[1] = ICMPCodeFragNeeded
	binary.BigEndian.PutUint16(b[6:8], m.NextHopMTU)
	copy(b[8:12], m.OrigSrc[:])
	copy(b[12:16], m.OrigDst[:])
	b[16] = byte(m.OrigProto)
	return dst[:len(dst)+icmpFragNeededLen]
}

// ParseICMPFragNeeded decodes an ICMP payload. It returns (nil, nil) for
// well-formed ICMP messages of other types.
func ParseICMPFragNeeded(b []byte) (*ICMPFragNeeded, error) {
	if len(b) < 2 {
		return nil, ErrShortICMP
	}
	if b[0] != ICMPDestUnreachable || b[1] != ICMPCodeFragNeeded {
		return nil, nil
	}
	if len(b) < icmpFragNeededLen {
		return nil, ErrShortICMP
	}
	m := &ICMPFragNeeded{NextHopMTU: binary.BigEndian.Uint16(b[6:8])}
	copy(m.OrigSrc[:], b[8:12])
	copy(m.OrigDst[:], b[12:16])
	m.OrigProto = Protocol(b[16])
	return m, nil
}

// PMTUCache is a host's per-destination path-MTU table, updated by ICMP
// Fragmentation Needed messages and consulted on every send. Entries expire
// (RFC 1191 suggests ~10 minutes), after which the path MTU reverts to the
// interface default.
type PMTUCache struct {
	clock *simclock.Clock
	// MinAccepted is the lowest MTU the host will honour from an ICMP.
	// Many stacks clamp to 552 or 576; permissive ones accept down to 68.
	MinAccepted int
	// TTL is the entry lifetime.
	TTL time.Duration
	// entries is sorted by destination and searched by binary search: a
	// lab host learns at most one path MTU, but a spoofed ICMP may name
	// any destination.
	entries []pmtuEntry
}

type pmtuEntry struct {
	dst     uint32 // big-endian destination address
	mtu     int
	expires time.Time
}

// NewPMTUCache returns a PMTU cache with the given acceptance floor
// (clamped as Reset does).
func NewPMTUCache(clock *simclock.Clock, minAccepted int) *PMTUCache {
	c := &PMTUCache{clock: clock}
	c.Reset(minAccepted)
	return c
}

// Reset empties the cache and adopts a new acceptance floor, raised to
// MinMTU if below it, with a 10-minute entry TTL. Hosts reset their cache
// for reuse across pooled-lab runs.
func (c *PMTUCache) Reset(minAccepted int) {
	if minAccepted < MinMTU {
		minAccepted = MinMTU
	}
	c.MinAccepted = minAccepted
	c.TTL = 10 * time.Minute
	c.entries = c.entries[:0]
}

// find returns where dst is, or would be inserted, in c.entries, and
// whether it is there.
func (c *PMTUCache) find(dst Addr) (int, bool) {
	key := binary.BigEndian.Uint32(dst[:])
	lo, hi := 0, len(c.entries)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if c.entries[m].dst < key {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(c.entries) && c.entries[lo].dst == key
}

// Update records an MTU learned for dst. It reports whether the update was
// accepted (MTUs below the acceptance floor are ignored, modelling stacks
// that clamp or discard tiny-MTU ICMPs).
func (c *PMTUCache) Update(dst Addr, mtu int) bool {
	if mtu < c.MinAccepted {
		return false
	}
	i, ok := c.find(dst)
	now := c.clock.Now()
	e := pmtuEntry{dst: binary.BigEndian.Uint32(dst[:]), mtu: mtu, expires: now.Add(c.TTL)}
	if !ok {
		c.entries = slices.Insert(c.entries, i, e)
		return true
	}
	if cur := c.entries[i]; now.Before(cur.expires) && mtu >= cur.mtu {
		// Never raise the path MTU from an ICMP; only a timeout does.
		return false
	}
	c.entries[i] = e
	return true
}

// MTU returns the current path MTU toward dst, or DefaultMTU when no live
// entry exists.
func (c *PMTUCache) MTU(dst Addr) int {
	i, ok := c.find(dst)
	if !ok || c.clock.Now().After(c.entries[i].expires) {
		return DefaultMTU
	}
	return c.entries[i].mtu
}
