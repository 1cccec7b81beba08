package ipv4

import (
	"bytes"
	"testing"
	"time"

	"dnstime/internal/simclock"
)

// FuzzReassembly's cache policy: a bucket cap small enough that eight
// IPIDs per pair overrun it, and a timeout inside the fuzzed clock
// advances.
const (
	fuzzTimeout    = 5 * time.Second
	fuzzMaxPerPair = 3
	fuzzMaxFrags   = 128
	fuzzFragBytes  = 6
	fuzzTick       = 250 * time.Millisecond
)

// fuzzPair is one (src, dst, proto) pair fragments arrive on.
type fuzzPair struct {
	src, dst Addr
	proto    Protocol
}

// fuzzPairs are the pairs fragments arrive on: several sources to one
// destination, the same hosts under another protocol and in reverse, and
// the lowest and highest addresses, so pairs differ in every field and
// open and close at both ends and the middle of the cache's pair order.
var fuzzPairs = [8]fuzzPair{
	{hostA, hostB, ProtoUDP},
	{attacker, hostB, ProtoUDP},
	{hostA, hostB, ProtoICMP},
	{hostA, attacker, ProtoUDP},
	{hostB, hostA, ProtoUDP},
	{Addr{255, 255, 255, 255}, hostB, ProtoUDP},
	{Addr{}, Addr{255, 255, 255, 255}, ProtoUDP},
	{hostB, Addr{}, ProtoICMP},
}

// fuzzFrag is one fragment arrival decoded from FuzzReassembly's input.
type fuzzFrag struct {
	pair    int // index into fuzzPairs
	mf      bool
	id      uint16
	off     int           // bytes, not 8-byte units: overlaps land mid-block too
	n       int           // payload length
	fill    byte          // payload byte i is fill+i
	advance time.Duration // virtual time that passes before the arrival
}

// decodeFrags reads one fragment per fuzzFragBytes input bytes: flags
// (pair, MF), IPID, offset, length, fill byte and clock advance, each
// folded into a small range so arrivals collide on buckets and overlap.
func decodeFrags(data []byte) []fuzzFrag {
	var frags []fuzzFrag
	for len(data) >= fuzzFragBytes && len(frags) < fuzzMaxFrags {
		b := data[:fuzzFragBytes]
		data = data[fuzzFragBytes:]
		frags = append(frags, fuzzFrag{
			pair:    int(b[0] & 7),
			mf:      b[0]&8 != 0,
			id:      uint16(b[1] & 7),
			off:     int(b[2] & 127),
			n:       int(b[3] & 63),
			fill:    b[4],
			advance: time.Duration(b[5]&31) * fuzzTick,
		})
	}
	return frags
}

// encodeFrags is the inverse of decodeFrags, for the seed corpus.
func encodeFrags(frags ...fuzzFrag) []byte {
	var data []byte
	for _, f := range frags {
		flags := byte(f.pair)
		if f.mf {
			flags |= 8
		}
		data = append(data, flags, byte(f.id), byte(f.off), byte(f.n), f.fill, byte(f.advance/fuzzTick))
	}
	return data
}

// refKey is the reference reassembler's datagram key.
type refKey struct {
	src, dst Addr
	proto    Protocol
	id       uint16
}

// refBucket is one datagram of the reference reassembler.
type refBucket struct {
	data    [256]byte // every fuzzed fragment ends below 127+63
	covered [256]bool
	total   int // smallest end of an MF=0 fragment; -1 until one arrives
	expires time.Time
}

// refReassembler is a deliberately naive model of Reassembler: a byte
// array and coverage map per bucket written byte by byte, completion by a
// full scan, the bucket cap by counting buckets and the timeout by
// comparing times. It shares no code with the cache under test.
type refReassembler struct {
	overlap OverlapPolicy
	buckets map[refKey]*refBucket
	stats   ReassemblyStats
}

// expire drops every bucket whose timeout has passed at now.
func (r *refReassembler) expire(now time.Time) {
	for key, b := range r.buckets {
		if !b.expires.After(now) {
			delete(r.buckets, key)
			r.stats.Expired++
		}
	}
}

// pending counts the buckets open for one pair.
func (r *refReassembler) pending(pair fuzzPair) int {
	n := 0
	for key := range r.buckets {
		if (fuzzPair{key.src, key.dst, key.proto}) == pair {
			n++
		}
	}
	return n
}

// add feeds one arrival at now and returns the reassembled payload (the
// packet's own for a non-fragment) once a datagram completes.
func (r *refReassembler) add(p *Packet, now time.Time) ([]byte, bool) {
	if !p.MF && p.FragOff == 0 {
		return p.Payload, true
	}
	key := refKey{p.Src, p.Dst, p.Proto, p.ID}
	b := r.buckets[key]
	if b == nil {
		if r.pending(fuzzPair{p.Src, p.Dst, p.Proto}) >= fuzzMaxPerPair {
			r.stats.FragmentsOut++
			return nil, false
		}
		b = &refBucket{total: -1, expires: now.Add(fuzzTimeout)}
		r.buckets[key] = b
	}
	r.stats.FragmentsIn++
	for i, c := range p.Payload {
		pos := p.FragOff + i
		if b.covered[pos] && r.overlap == FirstWins {
			continue
		}
		b.data[pos], b.covered[pos] = c, true
	}
	if end := p.FragOff + len(p.Payload); !p.MF && (b.total < 0 || end < b.total) {
		b.total = end
	}
	if b.total < 0 {
		return nil, false
	}
	for pos := 0; pos < b.total; pos++ {
		if !b.covered[pos] {
			return nil, false
		}
	}
	delete(r.buckets, key)
	r.stats.Reassembled++
	return append([]byte(nil), b.data[:b.total]...), true
}

// runTo advances clk to deadline, firing every event due by then. It
// stops on a sentinel event at the deadline instead of calling RunUntil,
// which fires the next live event even past its deadline when a cancelled
// event (a completed bucket's stopped timer) tops the queue: this target
// checks the cache's timeout, not the clock.
func runTo(clk *simclock.Clock, deadline time.Time) {
	reached := false
	clk.ScheduleAt(deadline, func() { reached = true })
	for !reached && clk.Step() {
	}
}

// FuzzReassembly feeds arbitrary fragment sequences — any pair, IPID,
// byte offset, length, MF bit and clock advance — to a Reassembler under
// both overlap policies and checks every arrival against refReassembler:
// completion, the reassembled bytes and header, Stats and the per-pair
// bucket counts of all eight pairs, and at a pair's cap that a new IPID
// is counted in FragmentsOut and opens nothing. Even arrivals go through Add, odd ones through AddInto
// with a packet of the caller's that holds stale bytes. All arrivals
// share one payload buffer that is overwritten after each one, so a cache
// that retained the caller's bytes diverges from the reference, and every
// reassembled payload is checked again at the end, so a cache that handed
// out a buffer it still writes — its buckets keep theirs — is caught too.
func FuzzReassembly(f *testing.F) {
	first := fuzzFrag{pair: 0, id: 1, off: 0, n: 16, mf: true, fill: 0x10}
	middle := fuzzFrag{pair: 0, id: 1, off: 16, n: 16, mf: true, fill: 0x40}
	last := fuzzFrag{pair: 0, id: 1, off: 32, n: 8, fill: 0x70}
	plantOn := func(pair int, id uint16) fuzzFrag {
		return fuzzFrag{pair: pair, id: id, off: 16, n: 16, fill: 0xa0}
	}
	planted := func(id uint16) fuzzFrag { return plantOn(1, id) }
	// Every pair from 4 on is filled to the cap and overrun; then a head
	// completes one bucket of pair 5 and frees room for a new IPID there.
	var capped []fuzzFrag
	for pair := 4; pair < len(fuzzPairs); pair++ {
		for id := uint16(0); id <= fuzzMaxPerPair; id++ {
			capped = append(capped, plantOn(pair, id))
		}
	}
	capped = append(capped,
		fuzzFrag{pair: 5, id: 1, off: 0, n: 16, mf: true, fill: 0x20},
		plantOn(5, 7), plantOn(5, 6))
	genuine := fuzzFrag{pair: 1, id: 2, off: 0, n: 16, mf: true, fill: 0x20, advance: 4 * fuzzTick}
	seeds := [][]fuzzFrag{
		// In order, then out of order.
		{first, middle, last},
		{last, first, middle},
		// Overlapping middles: the two policies disagree.
		{first,
			fuzzFrag{pair: 0, id: 1, off: 12, n: 24, mf: true, fill: 0x80},
			fuzzFrag{pair: 0, id: 1, off: 20, n: 13, mf: true, fill: 0xc0},
			last},
		// Planting: spoofed tails fill the cap, then a genuine head
		// completes one of them and the genuine tail opens a new bucket.
		{planted(0), planted(1), planted(2), planted(3), genuine,
			fuzzFrag{pair: 1, id: 2, off: 16, n: 16, fill: 0x30}},
		// The tail arrives after the head's bucket timed out.
		{first, fuzzFrag{pair: 0, id: 1, off: 16, n: 24, fill: 0x50, advance: 24 * fuzzTick}},
		// Two final fragments: the shorter datagram wins.
		{fuzzFrag{pair: 2, id: 5, off: 24, n: 16, fill: 1},
			fuzzFrag{pair: 2, id: 5, off: 8, n: 8, fill: 2},
			fuzzFrag{pair: 2, id: 5, off: 0, n: 8, mf: true, fill: 3}},
		// A whole packet, an empty final fragment, another pair.
		{fuzzFrag{pair: 3, n: 12, fill: 9},
			fuzzFrag{pair: 3, id: 7, off: 8, n: 0},
			fuzzFrag{pair: 3, id: 7, off: 0, n: 8, mf: true, fill: 4, advance: fuzzTick}},
		capped,
		// Pairs that differ only in protocol interleave, and an emptied
		// pair opens again after another pair has taken its place.
		{fuzzFrag{pair: 0, id: 3, off: 8, n: 8, fill: 1},
			fuzzFrag{pair: 2, id: 3, off: 8, n: 8, fill: 2},
			fuzzFrag{pair: 0, id: 4, off: 8, n: 8, fill: 3},
			fuzzFrag{pair: 2, id: 3, off: 0, n: 8, mf: true, fill: 4},
			fuzzFrag{pair: 0, id: 3, off: 0, n: 8, mf: true, fill: 5},
			fuzzFrag{pair: 0, id: 4, off: 0, n: 8, mf: true, fill: 6},
			fuzzFrag{pair: 4, id: 1, off: 8, n: 8, fill: 7},
			fuzzFrag{pair: 0, id: 5, off: 8, n: 8, fill: 8},
			fuzzFrag{pair: 0, id: 6, off: 8, n: 8, fill: 9},
			fuzzFrag{pair: 4, id: 1, off: 0, n: 8, mf: true, fill: 10},
			fuzzFrag{pair: 0, id: 5, off: 0, n: 8, mf: true, fill: 11}},
	}
	for _, frags := range seeds {
		f.Add(encodeFrags(frags...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		frags := decodeFrags(data)
		for _, overlap := range []OverlapPolicy{FirstWins, LastWins} {
			clk := simclock.New(t0)
			r := NewReassembler(clk, ReassemblyPolicy{Timeout: fuzzTimeout, MaxPerPair: fuzzMaxPerPair, Overlap: overlap})
			ref := &refReassembler{overlap: overlap, buckets: map[refKey]*refBucket{}}
			check := func(step int) {
				t.Helper()
				if got := r.Stats(); got != ref.stats {
					t.Fatalf("policy %d, step %d: stats %+v, reference %+v", overlap, step, got, ref.stats)
				}
				for _, pair := range fuzzPairs {
					if got, want := r.PendingBuckets(pair.src, pair.dst, pair.proto), ref.pending(pair); got != want {
						t.Fatalf("policy %d, step %d: %v pending %d, reference %d", overlap, step, pair, got, want)
					}
				}
			}
			payload := make([]byte, 0, 64)
			var delivered [][2][]byte // reassembled payload, reference payload
			for i, fr := range frags {
				runTo(clk, clk.Now().Add(fr.advance))
				ref.expire(clk.Now())
				check(i)
				pair := fuzzPairs[fr.pair]
				payload = payload[:fr.n]
				for j := range payload {
					payload[j] = fr.fill + byte(j)
				}
				p := &Packet{Src: pair.src, Dst: pair.dst, Proto: pair.proto, ID: fr.id,
					TTL: uint8(i), MF: fr.mf, FragOff: fr.off, Payload: payload}
				// A fragment under a new IPID on a pair at the cap must be
				// turned away and counted, leaving the pair at the cap.
				atCap := p.IsFragment() && ref.buckets[refKey{pair.src, pair.dst, pair.proto, fr.id}] == nil &&
					ref.pending(pair) >= fuzzMaxPerPair
				outBefore := r.Stats().FragmentsOut
				want, wantDone := ref.add(p, clk.Now())
				// Odd steps assemble into a caller's packet whose payload
				// storage holds stale bytes, as simnet's pooled packets do.
				var got *Packet
				var done bool
				if i%2 == 0 {
					got, done = r.Add(p)
				} else {
					into := &Packet{ID: 0xbeef, MF: true, FragOff: 8, Payload: append(make([]byte, 0, 64), 0xdd, 0xdd)}
					if done = r.AddInto(into, p); done {
						got = into
					}
				}
				switch {
				case done != wantDone:
					t.Fatalf("policy %d, step %d (%+v): completed %t, reference %t", overlap, i, fr, done, wantDone)
				case !done && got != nil:
					t.Fatalf("policy %d, step %d: incomplete Add returned a packet", overlap, i)
				case done && !p.IsFragment() && i%2 == 0 && got != p:
					t.Fatalf("policy %d, step %d: a whole packet was not passed through", overlap, i)
				case done && !p.IsFragment() && i%2 == 1 && (got.ID != p.ID || got.MF || got.FragOff != 0 || !bytes.Equal(got.Payload, p.Payload)):
					t.Fatalf("policy %d, step %d: a whole packet was not copied whole: %+v from %+v", overlap, i, got, p)
				case done && p.IsFragment():
					if got.Src != p.Src || got.Dst != p.Dst || got.Proto != p.Proto || got.ID != p.ID ||
						got.TTL != p.TTL || got.MF || got.FragOff != 0 {
						t.Fatalf("policy %d, step %d: reassembled header %+v from fragment %+v", overlap, i, got, p)
					}
					if !bytes.Equal(got.Payload, want) {
						t.Fatalf("policy %d, step %d: reassembled %x, reference %x", overlap, i, got.Payload, want)
					}
					delivered = append(delivered, [2][]byte{got.Payload, want})
				}
				if atCap {
					if out, pending := r.Stats().FragmentsOut, r.PendingBuckets(pair.src, pair.dst, pair.proto); done || out != outBefore+1 || pending != fuzzMaxPerPair {
						t.Fatalf("policy %d, step %d: new IPID on %v at the cap: completed %t, FragmentsOut %d → %d, pending %d, want %d",
							overlap, i, pair, done, outBefore, out, pending, fuzzMaxPerPair)
					}
				}
				for j := range payload {
					payload[j] = 0xee
				}
				check(i)
			}
			runTo(clk, clk.Now().Add(2*fuzzTimeout))
			ref.expire(clk.Now())
			check(len(frags))
			for i, d := range delivered {
				if !bytes.Equal(d[0], d[1]) {
					t.Fatalf("policy %d: reassembled payload %d changed after delivery: %x, want %x", overlap, i, d[0], d[1])
				}
			}
		}
	})
}
