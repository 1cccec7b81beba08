package ipv4

import (
	"bytes"
	"encoding/binary"
	"slices"
	"time"

	"dnstime/internal/simclock"
)

// OverlapPolicy determines which bytes win when fragments overlap in the
// defragmentation cache.
type OverlapPolicy int

// Overlap policies.
const (
	// FirstWins keeps the bytes of the fragment that arrived first — the
	// behaviour the attack relies on: a spoofed second fragment planted in
	// the cache beats the real second fragment that arrives later.
	FirstWins OverlapPolicy = iota + 1
	// LastWins lets later fragments overwrite earlier bytes.
	LastWins
)

// ReassemblyPolicy captures the OS-specific defragmentation cache behaviour
// measured in Section IV-A.
type ReassemblyPolicy struct {
	// Timeout is how long an incomplete bucket is retained. Linux: 30 s;
	// Windows: 60–120 s; RFC 2460 specifies 60 s.
	Timeout time.Duration
	// MaxPerPair bounds the number of concurrent reassembly buckets (one
	// per IPID) per (src,dst,proto) pair — i.e. how many "identical
	// fragments, each with a different IPID value" the attacker can park.
	// Windows allows 100, patched Linux 64.
	MaxPerPair int
	// Overlap selects the byte-overlap resolution policy.
	Overlap OverlapPolicy
}

// Predefined policies from the paper's measurements.
var (
	// LinuxPolicy models a patched Linux stack: 30 s timeout, 64 buckets.
	LinuxPolicy = ReassemblyPolicy{Timeout: 30 * time.Second, MaxPerPair: 64, Overlap: FirstWins}
	// WindowsPolicy models Windows: 60 s timeout, 100 buckets.
	WindowsPolicy = ReassemblyPolicy{Timeout: 60 * time.Second, MaxPerPair: 100, Overlap: FirstWins}
	// RFCPolicy is the RFC 2460 default of 60 s with a generous bucket cap.
	RFCPolicy = ReassemblyPolicy{Timeout: 60 * time.Second, MaxPerPair: 1024, Overlap: FirstWins}
)

// ReassemblyStats counts cache activity for measurements and tests.
type ReassemblyStats struct {
	FragmentsIn  int // fragments accepted into the cache
	FragmentsOut int // fragments rejected (bucket cap)
	Reassembled  int // packets completed
	Expired      int // buckets dropped on timeout
}

// Reassembler is an IPv4 defragmentation cache driven by a virtual clock.
// Fragment bytes are applied into a persistent per-bucket buffer on
// arrival (the overlap policy decides winners at write time), so Add never
// retains the caller's packet or payload and performs no per-arrival
// re-assembly work. Dropped and completed buckets return to a free list
// with their buffers, keeping the cache allocation-lean under the
// attacker's bucket-filling floods and across completed datagrams.
//
// The open buckets are indexed by sorted slices: pairs holds every
// (src, dst, proto) pair with an open bucket, sorted by pairKey, and each
// pair its buckets sorted by IPID, so a fragment costs one binary search
// over the pairs and one over at most MaxPerPair IPIDs.
type Reassembler struct {
	clock  *simclock.Clock
	policy ReassemblyPolicy
	pairs  []pairBuckets
	free   []*bucket
	// spare holds the emptied bucket lists of dropped pairs, for reuse.
	spare [][]idBucket
	stats ReassemblyStats
}

// pairKey is the (src, dst, proto) pair a bucket counts against. The two
// addresses are packed big-endian into one integer, so pairs order as
// (src, dst, proto).
type pairKey struct {
	addrs uint64
	proto Protocol
}

func pairOf(src, dst Addr, proto Protocol) pairKey {
	return pairKey{uint64(binary.BigEndian.Uint32(src[:]))<<32 | uint64(binary.BigEndian.Uint32(dst[:])), proto}
}

func (k pairKey) less(o pairKey) bool {
	return k.addrs < o.addrs || k.addrs == o.addrs && k.proto < o.proto
}

// pairBuckets is one pair's open buckets, sorted by IPID; its length is
// the count MaxPerPair caps.
type pairBuckets struct {
	key  pairKey
	open []idBucket
}

// idBucket is an open bucket under its IPID.
type idBucket struct {
	id uint16
	b  *bucket
}

type bucket struct {
	buf      []byte // assembled bytes, grown to the highest fragment end
	covered  []byte // 1 where buf holds fragment data (byte-wide: coverage scans vectorise)
	totalLen int    // -1 until the MF=0 fragment arrives
	pair     pairKey
	id       uint16
	expireFn func()         // timeout callback bound to this bucket, reused across recycles
	expiry   simclock.Timer // caller-owned timer, re-armed in place
}

// NewReassembler returns a defragmentation cache using the given policy
// (zero fields defaulted as Reset does).
func NewReassembler(clock *simclock.Clock, policy ReassemblyPolicy) *Reassembler {
	r := &Reassembler{clock: clock}
	r.Reset(policy)
	return r
}

// Stats returns a snapshot of cache counters.
func (r *Reassembler) Stats() ReassemblyStats { return r.stats }

// Reset empties the cache and zeroes its counters, adopting policy: a
// zero Overlap means FirstWins, a zero Timeout 30 s and a zero MaxPerPair
// 64. Expiry timers are assumed dead — the lab pool resets the clock
// before resetting hosts — so buckets are recycled without stopping them.
// NewReassembler ends with a Reset, so a reset cache is a fresh one that
// keeps its bucket free list warm.
func (r *Reassembler) Reset(policy ReassemblyPolicy) {
	if policy.Overlap == 0 {
		policy.Overlap = FirstWins
	}
	if policy.Timeout == 0 {
		policy.Timeout = 30 * time.Second
	}
	if policy.MaxPerPair == 0 {
		policy.MaxPerPair = 64
	}
	r.policy = policy
	for i := range r.pairs {
		for _, e := range r.pairs[i].open {
			r.recycle(e.b)
		}
		r.releaseList(r.pairs[i].open)
	}
	clear(r.pairs)
	r.pairs = r.pairs[:0]
	r.stats = ReassemblyStats{}
}

// findPair returns where key is, or would be inserted, in r.pairs, and
// whether it is there. It and findID are written-out searches because
// slices.BinarySearchFunc calls its comparator through a function value
// at every probe, which took a rejected flood fragment from 13 to 46 ns.
func (r *Reassembler) findPair(key pairKey) (int, bool) {
	lo, hi := 0, len(r.pairs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if r.pairs[m].key.less(key) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(r.pairs) && r.pairs[lo].key == key
}

// findID returns where id is, or would be inserted, in open, and whether
// it is there.
func findID(open []idBucket, id uint16) (int, bool) {
	lo, hi := 0, len(open)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if open[m].id < id {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(open) && open[lo].id == id
}

// remove takes bucket j of pair i out of the index, and the pair too when
// that was its last bucket. The bucket itself is the caller's to recycle.
func (r *Reassembler) remove(i, j int) {
	p := &r.pairs[i]
	p.open = slices.Delete(p.open, j, j+1)
	if len(p.open) == 0 {
		r.releaseList(p.open)
		r.pairs = slices.Delete(r.pairs, i, i+1)
	}
}

// releaseList keeps an emptied pair's bucket list for the next new pair.
func (r *Reassembler) releaseList(open []idBucket) {
	clear(open)
	r.spare = append(r.spare, open[:0])
}

// acquireBucket takes a bucket from the free list (or allocates one) and
// restores it to the empty state. The timeout closure is built once per
// bucket and reads the bucket's current key fields, so recycled buckets
// re-arm their expiry without allocating.
func (r *Reassembler) acquireBucket() *bucket {
	if n := len(r.free); n > 0 {
		b := r.free[n-1]
		r.free[n-1] = nil
		r.free = r.free[:n-1]
		return b
	}
	b := &bucket{totalLen: -1}
	b.expireFn = func() { r.expire(b.pair, b.id) }
	return b
}

// recycle returns a dropped bucket to the free list, buffers included. The
// coverage bitmap is cleared out to its full capacity so a reused bucket
// never sees stale coverage; the byte buffer needs no clearing because
// completeness requires every read byte to have been covered (written)
// this cycle.
func (r *Reassembler) recycle(b *bucket) {
	b.buf = b.buf[:0]
	b.covered = b.covered[:cap(b.covered)]
	clear(b.covered)
	b.covered = b.covered[:0]
	b.totalLen = -1
	b.expiry = simclock.Timer{}
	r.free = append(r.free, b)
}

// PendingBuckets reports the number of incomplete reassembly buckets for a
// (src,dst,proto) pair — what the attacker is filling when it plants
// fragments under many candidate IPIDs.
func (r *Reassembler) PendingBuckets(src, dst Addr, proto Protocol) int {
	if i, ok := r.findPair(pairOf(src, dst, proto)); ok {
		return len(r.pairs[i].open)
	}
	return 0
}

// Add feeds one packet into the cache. Non-fragments are returned
// immediately. Fragments are buffered; when a datagram completes, the
// reassembled packet is returned. The boolean reports whether a full packet
// is being returned. Add never retains p or p.Payload: fragment bytes are
// copied into the bucket's own buffer at write time, so callers may recycle
// the packet as soon as Add returns. A reassembled packet is newly
// allocated and its payload belongs to the caller; AddInto is the variant
// that assembles into a packet the caller supplies.
func (r *Reassembler) Add(p *Packet) (*Packet, bool) {
	if !p.IsFragment() {
		return p, true
	}
	b := r.place(p)
	if b == nil {
		return nil, false
	}
	whole := &Packet{}
	r.finish(whole, p, b)
	return whole, true
}

// AddInto is Add writing the complete datagram into whole instead of
// allocating a packet: whole's header is overwritten and the datagram's
// bytes are copied into whole.Payload's storage, grown only when too
// small. A non-fragment is copied into whole the same way. It reports
// whether whole now holds a complete datagram; when it does not, whole is
// untouched. The bucket keeps its buffers for the next datagram, so in
// the steady state reassembly allocates nothing. The payload belongs to
// the caller and no later Add or AddInto changes it.
func (r *Reassembler) AddInto(whole, p *Packet) bool {
	if !p.IsFragment() {
		whole.CopyFrom(p)
		return true
	}
	b := r.place(p)
	if b == nil {
		return false
	}
	r.finish(whole, p, b)
	return true
}

// place files the fragment p into its bucket, opening one when the pair's
// cap allows, and returns the bucket when p completed its datagram (nil
// otherwise). The completed bucket is already out of the index with its
// expiry stopped; finish copies the datagram out and recycles it.
func (r *Reassembler) place(p *Packet) *bucket {
	pair := pairOf(p.Src, p.Dst, p.Proto)
	i, havePair := r.findPair(pair)
	var open []idBucket
	if havePair {
		open = r.pairs[i].open
	}
	j, ok := findID(open, p.ID)
	var b *bucket
	if ok {
		b = open[j].b
	} else {
		if len(open) >= r.policy.MaxPerPair {
			r.stats.FragmentsOut++
			return nil
		}
		if !havePair {
			var list []idBucket
			if n := len(r.spare); n > 0 {
				list = r.spare[n-1]
				r.spare[n-1] = nil
				r.spare = r.spare[:n-1]
			}
			r.pairs = slices.Insert(r.pairs, i, pairBuckets{key: pair, open: list})
		}
		b = r.acquireBucket()
		b.pair, b.id = pair, p.ID
		r.clock.ScheduleInto(&b.expiry, r.policy.Timeout, b.expireFn)
		r.pairs[i].open = slices.Insert(r.pairs[i].open, j, idBucket{p.ID, b})
	}
	r.stats.FragmentsIn++
	b.apply(p.FragOff, p.Payload, r.policy.Overlap)
	if !p.MF {
		end := p.FragOff + len(p.Payload)
		if b.totalLen < 0 || end < b.totalLen {
			b.totalLen = end
		}
	}
	if !b.complete() {
		return nil
	}
	b.expiry.Stop()
	r.remove(i, j)
	return b
}

// finish writes the datagram the completed bucket b holds into whole,
// with the header of p, the fragment that completed it, and recycles the
// bucket with its buffers.
func (r *Reassembler) finish(whole, p *Packet, b *bucket) {
	*whole = Packet{
		Src:     p.Src,
		Dst:     p.Dst,
		ID:      p.ID,
		Proto:   p.Proto,
		TTL:     p.TTL,
		Payload: append(whole.Payload[:0], b.buf[:b.totalLen]...),
	}
	r.recycle(b)
	r.stats.Reassembled++
}

// expire is the bucket-timeout callback: it drops the bucket held under
// (pair, id), if any.
func (r *Reassembler) expire(pair pairKey, id uint16) {
	if i, ok := r.findPair(pair); ok {
		if j, ok := findID(r.pairs[i].open, id); ok {
			b := r.pairs[i].open[j].b
			r.remove(i, j)
			r.recycle(b)
		}
	}
	r.stats.Expired++
}

// apply writes one fragment's bytes into the bucket buffer, growing it to
// the fragment's end. Under FirstWins, positions already covered keep their
// bytes — application order is arrival order, so write-time resolution is
// exactly the old assemble-time resolution. Bytes past a later-learned
// totalLen are never read, so no clipping is needed.
func (b *bucket) apply(off int, data []byte, overlap OverlapPolicy) {
	end := off + len(data)
	if end > len(b.buf) {
		b.buf = growBytes(b.buf, end)
		b.covered = growBytes0(b.covered, end)
	}
	if overlap == FirstWins && bytes.IndexByte(b.covered[off:end], 1) >= 0 {
		// Overlap under FirstWins: earlier bytes win, merge byte by byte.
		for i, c := range data {
			pos := off + i
			if b.covered[pos] != 0 {
				continue
			}
			b.buf[pos] = c
			b.covered[pos] = 1
		}
		return
	}
	// LastWins, or FirstWins over untouched bytes: block copy.
	copy(b.buf[off:end], data)
	markCovered(b.covered[off:end])
}

// onesBlock is a static all-ones source so coverage marking is a memmove
// instead of a byte loop.
var onesBlock = func() (b [4096]byte) {
	for i := range b {
		b[i] = 1
	}
	return
}()

func markCovered(cov []byte) {
	for len(cov) > 0 {
		cov = cov[copy(cov, onesBlock[:]):]
	}
}

// complete reports whether the final-fragment length is known and coverage
// is contiguous from 0 — the old assemble() success condition.
func (b *bucket) complete() bool {
	if b.totalLen < 0 || b.totalLen > len(b.buf) {
		return false
	}
	return bytes.IndexByte(b.covered[:b.totalLen], 0) < 0
}

// growBytes extends s to length n. Bytes in the grown region are
// unspecified (recycled buckets carry stale bytes); completeness guarantees
// every read position was written this cycle.
func growBytes(s []byte, n int) []byte {
	if cap(s) >= n {
		return s[:n]
	}
	return append(s, make([]byte, n-len(s))...)
}

// growBytes0 extends s to length n with the grown region zero. Recycled
// coverage maps are cleared out to capacity, and append-growth zeroes
// fresh backing arrays, so reslicing within capacity is already zero.
func growBytes0(s []byte, n int) []byte {
	if cap(s) >= n {
		return s[:n]
	}
	return append(s, make([]byte, n-len(s))...)
}
