// Package simrand provides the simulation's random streams: a Source
// yields exactly the stream rand.NewSource(seed) yields, so every
// reproduced number keeps its bytes, but seeding it costs almost nothing.
//
// math/rand's Seed fills a register of 607 values before the first draw,
// from 1 841 steps of the seeding generator g[j+1] = 48 271·g[j] mod
// (2³¹−1), each with a divide (≈11 µs), and a lab component then draws
// only a handful of outputs. A Source's Seed only records g[0], the
// normalised seed. Its first block of 607 outputs is produced in closed
// form, a few outputs at a time as they are drawn: g[j] is
// 48 271ʲ·g[0] mod (2³¹−1), so with a package table of those powers each
// register value
//
//	s(i) = g[21+3i]≪40 ⊕ g[22+3i]≪20 ⊕ g[23+3i] ⊕ rngCooked[i]
//
// costs three multiplies with a Mersenne reduction and no divide, and
// the first block's output k is
//
//	s(333−k) + s(606−k)    for k < 273,
//	s(333−k) + out[k−273]  for 273 ≤ k ≤ 333,
//	s(940−k) + out[k−273]  after that.
//
// Later blocks continue math/rand's own additive lagged-Fibonacci
// recurrence,
//
//	x[n] = x[n−607] + x[n−273]  (mod 2⁶⁴),
//
// by which every output of a math/rand source past its 607th follows
// from the outputs before it. math/rand's rngCooked values are derived
// once, when the package is initialised, by inverting the first-block
// formulas on rand.NewSource(1)'s first block, so the package copies no
// math/rand table and reads no math/rand internals. Its tables are
// written only then, so Sources share nothing mutable.
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

import "math/rand"

// The shape of math/rand's additive lagged-Fibonacci generator: a
// register of the last rngLen outputs, of which x[n−rngTap] feeds x[n].
const (
	rngLen = 607
	rngTap = 273
)

// mask63 clears an output's top bit: math/rand's Int63 of that output.
const mask63 = 1<<63 - 1

// math/rand's seeding generator, g[j+1] = seedMul·g[j] mod seedMod, and
// the g[0] it takes for a seed that is a multiple of seedMod.
const (
	seedMod  = 1<<31 - 1
	seedMul  = 48271
	seedZero = 89482311
)

// chunk is how many outputs of a seed's first block a draw produces
// when it reaches the end of those produced. A lab stream draws 4–8
// outputs on average, and in BenchmarkReseedDraw chunks of 4 cost less
// than chunks of 8 or 16.
const chunk = 4

// seedTab[i] holds what register value i takes besides g[0]: the powers
// of seedMul by which g[0] becomes g[21+3i], g[22+3i] and g[23+3i], and
// math/rand's rngCooked[i]. It is written only by init.
var seedTab [rngLen]struct {
	pow    [3]uint64
	cooked uint64
}

func init() {
	p := uint64(1)
	for range 20 {
		p = mulMod(p, seedMul)
	}
	for i := range seedTab {
		for j := range seedTab[i].pow {
			p = mulMod(p, seedMul)
			seedTab[i].pow[j] = p
		}
	}
	deriveCooked()
}

// deriveCooked fills seedTab's rngCooked values from seed 1's first
// block, the package's only math/rand seeding: the first-block formulas
// give its register, s(0…60) and s(334…606) from outputs 273…606 and
// the rest from outputs 0…272, and seed 1's part of each value, its
// s(i) while the cooked values are still zero, is XORed off.
func deriveCooked() {
	src := rand.NewSource(1).(rand.Source64)
	var out, reg [rngLen]uint64
	for k := range out {
		out[k] = src.Uint64()
	}
	for k := rngTap; k < rngLen; k++ {
		reg[tapped(k)] = out[k] - out[k-rngTap]
	}
	for k := range rngTap {
		reg[rngLen-rngTap-1-k] = out[k] - reg[rngLen-1-k]
	}
	for i := range seedTab {
		seedTab[i].cooked = reg[i] ^ seeded(1, i)
	}
}

// mulMod returns a·b mod seedMod for a and b in [1, seedMod): their
// product is below 2⁶², and never a multiple of the prime seedMod, so
// one fold of its bits above the 31st and one subtraction reduce it.
func mulMod(a, b uint64) uint64 {
	x := a * b
	x = x&seedMod + x>>31
	if x >= seedMod {
		x -= seedMod
	}
	return x
}

// seeded returns math/rand's register value i for g[0] = g0: s(i).
func seeded(g0 uint64, i int) uint64 {
	t := &seedTab[i]
	return mulMod(g0, t.pow[0])<<40 ^ mulMod(g0, t.pow[1])<<20 ^ mulMod(g0, t.pow[2]) ^ t.cooked
}

// tapped returns i for the s(i) that the first block's output k adds to
// output k−273, for 273 ≤ k < 607: 333−k, or 940−k past 333.
func tapped(k int) int {
	i := rngLen - rngTap - 1 - k
	if i < 0 {
		i += rngLen
	}
	return i
}

// Source is a rand.Source64 whose stream is exactly rand.NewSource(seed)'s
// for the seed last passed to New or Seed. Like math/rand's sources it is
// not safe for concurrent use.
//
// A Source holds one block of outputs, 4.9 KB. A draw loop declares it
// as a value (var src Source; src.Seed(seed)) to keep it on the stack;
// one from New is usually on the heap.
type Source struct {
	g0  uint64 // the normalised seed, g[0]
	pos int    // next output in buf
	end int    // outputs produced in buf; below rngLen only in the first block
	buf [rngLen]uint64
}

// New returns a Source seeded with seed.
func New(seed int64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// Seed restarts the stream at seed, normalised as math/rand's Seed does
// it: taken mod 2³¹−1 into [0, 2³¹−1), with 0 standing for 89 482 311.
// Outputs are produced only as the stream is drawn from.
func (s *Source) Seed(seed int64) {
	seed %= seedMod
	if seed < 0 {
		seed += seedMod
	}
	if seed == 0 {
		seed = seedZero
	}
	s.g0, s.pos, s.end = uint64(seed), 0, 0
}

// Int63 returns a non-negative pseudo-random 63-bit integer, as
// math/rand's source does: the next Uint64 with its top bit cleared.
func (s *Source) Int63() int64 { return int64(s.Uint64() & mask63) }

// Uint64 returns the next output of the stream.
func (s *Source) Uint64() uint64 {
	if s.pos == s.end {
		s.produce()
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
	for s.end < rngLen || s.pos == rngLen {
		s.produce()
	}
	return s.buf[s.pos:]
}

// Advance consumes the next n outputs; n must not exceed the length of
// the last Unread.
func (s *Source) Advance(n int) { s.pos += n }

// produce makes more outputs readable at pos: the next chunk of the
// seed's first block while that block is unfinished, and otherwise the
// next block, from the one before by the recurrence.
func (s *Source) produce() {
	if s.end == rngLen {
		step(&s.buf)
		s.pos = 0
		return
	}
	g0, k, n := s.g0, s.end, min(s.end+chunk, rngLen)
	for ; k < min(n, rngTap); k++ {
		s.buf[k] = seeded(g0, rngLen-rngTap-1-k) + seeded(g0, rngLen-1-k)
	}
	for ; k < n; k++ {
		s.buf[k] = seeded(g0, tapped(k)) + s.buf[k-rngTap]
	}
	s.end = n
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
