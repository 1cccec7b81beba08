// Package simrand provides the simulation's random streams: a Source
// yields exactly the stream rand.NewSource(seed) yields, so every
// reproduced number keeps its bytes, but seeding it costs almost nothing.
//
// math/rand's Seed runs ≈1 900 steps of its seeding generator (≈11 µs)
// before the first draw, and a campaign seed builds many labs whose
// components are seeded with the same few values: Table I runs seven labs
// per seed, the race-margin sweep ten. A Source's Seed only records the
// seed. Its first draw copies that seed's first 607 outputs from a
// process-wide cache; a miss seeds one private math/rand source and reads
// them from it. Later draws continue math/rand's own additive
// lagged-Fibonacci recurrence,
//
//	x[n] = x[n−607] + x[n−273]  (mod 2⁶⁴),
//
// by which every output of a math/rand source past its 607th follows
// from the outputs before it. So the stream is math/rand's by
// construction, with no copy of its seeding table and no reflection on
// its internals.
//
// The cache holds 16 to 64 seeds, eight per processor the process may
// run on, and evicts the least recently used, so it never takes more
// than 320 KiB. Its hits and misses are counted on obs.Default as
// dnstime_rng_seed_cache_hits_total and
// dnstime_rng_seed_cache_misses_total.
//
// The lab components, the pool populations, fig7's timing draw and the
// search draw through math/rand's own methods on rand.New(source). The
// population draws (internal/population) that draw 10⁴–10⁶ values per
// seed decide on the Source's raw outputs instead, with integer compares
// (Value, Cut, Intn) that give exactly math/rand's answers. The
// open-resolver and domain-nameserver tallies walk the unread rest of
// the current block (Unread, Advance), a member at a time, and decide
// only what they count; an Intn output they do not decode is checked
// with one compare against Intn.Limit. A member the block cannot decide,
// and every member of the Generate functions and of the ad-client and
// shared-resolver draws, is read in sequence, one Float64 or Intn at a
// time (Float64Value, Test, Source.Intn), each reading again exactly
// where math/rand draws again.
package simrand

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"

	"dnstime/internal/obs"
)

// The shape of math/rand's additive lagged-Fibonacci generator: a
// register of the last rngLen outputs, of which x[n−rngTap] feeds x[n].
const (
	rngLen = 607
	rngTap = 273
)

// mask63 clears an output's top bit: math/rand's Int63 of that output.
const mask63 = 1<<63 - 1

// Source is a rand.Source64 whose stream is exactly rand.NewSource(seed)'s
// for the seed last passed to New or Seed. Like math/rand's sources it is
// not safe for concurrent use; the cache behind it is.
//
// A Source holds one block of outputs, 4.9 KB. A draw loop declares it
// as a value (var src Source; src.Seed(seed)) to keep it on the stack;
// one from New is usually on the heap.
type Source struct {
	seed   int64
	loaded bool // buf holds outputs of seed (false until the first draw)
	pos    int  // next output in buf; rngLen when buf is used up
	buf    [rngLen]uint64
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// Seed restarts the stream at seed. The seed's outputs are produced only
// when the stream is first drawn from.
func (s *Source) Seed(seed int64) {
	s.seed, s.loaded, s.pos = seed, false, rngLen
}

// Int63 returns a non-negative pseudo-random 63-bit integer, as
// math/rand's source does: the next Uint64 with its top bit cleared.
func (s *Source) Int63() int64 { return int64(s.Uint64() & mask63) }

// Uint64 returns the next output of the stream.
func (s *Source) Uint64() uint64 {
	if s.pos == rngLen {
		s.refill()
	}
	x := s.buf[s.pos]
	s.pos++
	return x
}

// Unread returns the unread rest of the stream's current block of 607
// outputs, at least one output, without consuming any. A draw that
// decides a whole record from the returned outputs consumes them with
// Advance; one that needs more than the block holds draws in sequence.
func (s *Source) Unread() []uint64 {
	if s.pos == rngLen {
		s.refill()
	}
	return s.buf[s.pos:]
}

// Advance consumes the next n outputs; n must not exceed the length of
// the last Unread.
func (s *Source) Advance(n int) { s.pos += n }

// refill puts the next rngLen outputs into buf: the seed's first ones
// from the cache, then each block from the one before by the recurrence.
func (s *Source) refill() {
	if !s.loaded {
		load(s.seed, &s.buf)
		s.loaded = true
	} else {
		step(&s.buf)
	}
	s.pos = 0
}

// step advances reg, which holds x[n−607], …, x[n−1], to the next block,
// x[n], …, x[n+606], by math/rand's recurrence. x[n+i] overwrites
// x[n+i−607] in place, reading x[n+i−273] from the old block for
// i < rngTap and from the new one after that.
func step(reg *[rngLen]uint64) {
	for i := 0; i < rngTap; i++ {
		reg[i] += reg[i+rngLen-rngTap]
	}
	for i := rngTap; i < rngLen; i++ {
		reg[i] += reg[i-rngTap]
	}
}

// capacity is the number of seeds the cache holds: eight per processor
// the process may run on, at least 16 and at most 64. A lab draws on
// three to five seeds and a campaign worker runs one lab at a time, so
// this keeps every worker's seeds resident between the labs of one
// campaign seed. It is fixed when the process starts.
var capacity = min(max(8*runtime.GOMAXPROCS(0), 16), 64)

// cacheBytes bounds the memory the cache holds at its largest capacity:
// 64 entries of 607 outputs (4.75 KiB each) and the private source.
const cacheBytes = 320 << 10

// entry is one cached seed's first rngLen outputs.
type entry struct {
	seed int64
	out  [rngLen]uint64
}

// cache is the process-wide seed cache, its entries most recently used
// first. Entries are allocated as seeds arrive, up to capacity; after
// that a miss overwrites the last one, so a copy out of an entry must
// finish under mu.
var cache struct {
	mu      sync.Mutex
	entries []*entry
	src     rand.Source64 // the private source a miss is read from
}

var (
	cacheHits = obs.Default.Counter("dnstime_rng_seed_cache_hits_total",
		"Random streams whose first outputs were copied from the seed cache.")
	cacheMisses = obs.Default.Counter("dnstime_rng_seed_cache_misses_total",
		"Random streams whose seed had to be run through math/rand's seeding.")
)

// load copies seed's first rngLen outputs into dst, producing them on a
// miss.
func load(seed int64, dst *[rngLen]uint64) {
	cache.mu.Lock()
	defer cache.mu.Unlock()
	i := slices.IndexFunc(cache.entries, func(e *entry) bool { return e.seed == seed })
	if i >= 0 {
		cacheHits.Inc()
	} else {
		cacheMisses.Inc()
		if len(cache.entries) < capacity {
			cache.entries = append(cache.entries, &entry{})
		}
		i = len(cache.entries) - 1
		e := cache.entries[i]
		if cache.src == nil {
			cache.src = rand.NewSource(seed).(rand.Source64)
		} else {
			cache.src.Seed(seed)
		}
		for j := range e.out {
			e.out[j] = cache.src.Uint64()
		}
		e.seed = seed
	}
	e := cache.entries[i]
	copy(cache.entries[1:i+1], cache.entries[:i])
	cache.entries[0] = e
	*dst = e.out
}
