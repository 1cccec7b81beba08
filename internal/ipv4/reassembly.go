package ipv4

import (
	"bytes"
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
// re-assembly work. Dropped buckets return to a free list, keeping the
// cache allocation-lean under the attacker's bucket-filling floods.
type Reassembler struct {
	clock   *simclock.Clock
	policy  ReassemblyPolicy
	buckets map[bucketKey]*bucket
	perPair map[pairKey]int
	free    []*bucket
	stats   ReassemblyStats
}

// pairKey is the (src, dst, proto) pair a bucket counts against.
type pairKey struct {
	src, dst Addr
	proto    Protocol
}

// bucketKey identifies one datagram: its pair and its IPID, held as two
// big-endian bytes. Both keys are built of byte-sized fields only, so they
// have no padding, and a map hashes and compares each as one run of
// memory rather than field by field.
type bucketKey struct {
	pairKey
	id [2]byte
}

type bucket struct {
	buf      []byte // assembled bytes, grown to the highest fragment end
	covered  []byte // 1 where buf holds fragment data (byte-wide: coverage scans vectorise)
	totalLen int    // -1 until the MF=0 fragment arrives
	key      bucketKey
	expireFn func()         // timeout callback bound to this bucket, reused across recycles
	expiry   simclock.Timer // caller-owned timer, re-armed in place
}

// NewReassembler returns a defragmentation cache using the given policy.
func NewReassembler(clock *simclock.Clock, policy ReassemblyPolicy) *Reassembler {
	if policy.Overlap == 0 {
		policy.Overlap = FirstWins
	}
	if policy.Timeout == 0 {
		policy.Timeout = 30 * time.Second
	}
	if policy.MaxPerPair == 0 {
		policy.MaxPerPair = 64
	}
	return &Reassembler{
		clock:   clock,
		policy:  policy,
		buckets: make(map[bucketKey]*bucket),
		perPair: make(map[pairKey]int),
	}
}

// Stats returns a snapshot of cache counters.
func (r *Reassembler) Stats() ReassemblyStats { return r.stats }

// Reset empties the cache and zeroes its counters, adopting policy (with
// the same defaulting as NewReassembler). Expiry timers are assumed dead —
// the lab pool resets the clock before resetting hosts — so buckets are
// recycled without stopping them. A reset cache is indistinguishable from a
// fresh one while keeping its bucket free list warm.
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
	for key, b := range r.buckets {
		delete(r.buckets, key)
		r.recycle(b)
	}
	clear(r.perPair)
	r.stats = ReassemblyStats{}
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
	b.expireFn = func() { r.expire(b.key) }
	return b
}

// recycle returns a dropped bucket to the free list. The coverage bitmap is
// cleared out to its full capacity so a reused bucket never sees stale
// coverage; the byte buffer needs no clearing because completeness requires
// every read byte to have been covered (written) this cycle.
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
	return r.perPair[pairKey{src, dst, proto}]
}

// Add feeds one packet into the cache. Non-fragments are returned
// immediately. Fragments are buffered; when a datagram completes, the
// reassembled packet is returned. The boolean reports whether a full packet
// is being returned. Add never retains p or p.Payload: fragment bytes are
// copied into the bucket's own buffer at write time, so callers may recycle
// the packet as soon as Add returns.
func (r *Reassembler) Add(p *Packet) (*Packet, bool) {
	if !p.IsFragment() {
		return p, true
	}
	pair := pairKey{p.Src, p.Dst, p.Proto}
	key := bucketKey{pair, [2]byte{byte(p.ID >> 8), byte(p.ID)}}
	b, ok := r.buckets[key]
	if !ok {
		n := r.perPair[pair]
		if n >= r.policy.MaxPerPair {
			r.stats.FragmentsOut++
			return nil, false
		}
		b = r.acquireBucket()
		b.key = key
		r.clock.ScheduleInto(&b.expiry, r.policy.Timeout, b.expireFn)
		r.buckets[key] = b
		r.perPair[pair] = n + 1
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
		return nil, false
	}
	b.expiry.Stop()
	// Transfer the assembled buffer out of the bucket before recycling it:
	// the returned packet owns its payload.
	payload := b.buf[:b.totalLen:b.totalLen]
	b.buf = nil
	r.dropBucket(b)
	r.stats.Reassembled++
	whole := &Packet{
		Src:     p.Src,
		Dst:     p.Dst,
		ID:      p.ID,
		Proto:   p.Proto,
		TTL:     p.TTL,
		Payload: payload,
	}
	return whole, true
}

// expire is the bucket-timeout callback: it drops the bucket held under
// key, if any.
func (r *Reassembler) expire(key bucketKey) {
	if b, ok := r.buckets[key]; ok {
		r.dropBucket(b)
	}
	r.stats.Expired++
}

// dropBucket removes b from the cache and its pair's count, and recycles
// it.
func (r *Reassembler) dropBucket(b *bucket) {
	delete(r.buckets, b.key)
	if n := r.perPair[b.key.pairKey]; n > 1 {
		r.perPair[b.key.pairKey] = n - 1
	} else {
		delete(r.perPair, b.key.pairKey)
	}
	r.recycle(b)
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
