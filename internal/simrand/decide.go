package simrand

import "math/bits"

// Float64Value returns the 63-bit value v from which math/rand's next
// Float64 is taken, float64(v)/(1<<63): the next output with its top bit
// cleared, read again exactly where Float64 draws again (v ≥ Redraw). So
// Float64() < p is Float64Value() < uint64(Below(p)), and one value can
// be compared with several Cuts, as a switch on one Float64 does.
func (s *Source) Float64Value() uint64 {
	for {
		if v := s.Uint64() & mask63; v < Redraw {
			return v
		}
	}
}

// Test draws math/rand's next Float64 and reports whether it passes c:
// whether it is below p for c = Below(p). It is Float64Value() < c,
// written out so that a decision costs one call, not two: neither
// method inlines.
func (s *Source) Test(c Cut) bool {
	for {
		if v := s.Uint64() & mask63; v < Redraw {
			return v < uint64(c)
		}
	}
}

// Intn returns math/rand's next Rand.Intn(n) for d = NewIntn(n), reading
// again exactly where it draws again. Like Rand.Intn it panics for
// n ≤ 0.
func (s *Source) Intn(d Intn) int {
	if d.max < 0 {
		panic("invalid argument to Intn")
	}
	for {
		if v, ok := d.Of(s.Uint64()); ok {
			return v
		}
	}
}

// Redraw is the least 63-bit value on which math/rand's Float64 draws
// again: float64(v)/(1<<63) rounds to 1 for every v from 2⁶³−512 on.
const Redraw = 1<<63 - 512

// Value returns the 63-bit value math/rand reads from output x: x with
// its top bit cleared. A Cut c passes x exactly when Value(x) < c,
// Float64 draws again exactly when Value(x) ≥ Redraw, and an Intn d
// accepts x exactly when Value(x) < d.Limit().
func Value(x uint64) uint64 { return x & mask63 }

// A Cut decides one Float64 test on a raw output with an integer compare:
// the test passes exactly on the 63-bit values below the Cut.
type Cut uint64

// Below returns the Cut for Float64() < p: for every output whose 63-bit
// value v = x&(1<<63−1) is below Redraw, float64(v)/(1<<63) < p exactly
// when v < Below(p). It is found by bisection on math/rand's own
// expression, so it is exact for every p, NaN, infinities and
// subnormals included.
func Below(p float64) Cut { return cut(func(f float64) bool { return f < p }) }

// NotAtLeast returns the Cut for !(Float64() >= p). It differs from
// Below(p) only when p is NaN, which every draw passes.
func NotAtLeast(p float64) Cut { return cut(func(f float64) bool { return !(f >= p) }) }

// cut returns the number of 63-bit values below Redraw whose Float64
// passes; pass must hold on a prefix of them, as any test monotone in the
// drawn value does.
func cut(pass func(f float64) bool) Cut {
	lo, hi := uint64(0), uint64(Redraw)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if pass(float64(int64(mid)) / (1 << 63)) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return Cut(lo)
}

// Of decides the test on output x. ok is false when math/rand's Float64
// would draw again on x, and then pass means nothing.
func (c Cut) Of(x uint64) (pass, ok bool) {
	v := x & mask63
	return v < uint64(c), v < Redraw
}

// An Intn decides math/rand's Rand.Intn(n) on one raw output. Up to
// n = 2³¹−1 Intn draws with Int31n, from bits 32–62 of the output, and
// above it with Int63n, from bits 0–62. Either takes that value v mod n,
// but draws again when v ≥ n·⌊2³¹/n⌋ (n·⌊2⁶³/n⌋), so that every
// remainder is equally likely; for a power of two that bound is 2³¹
// (2⁶³), and no value is drawn again.
//
// On the Int31n branch Of takes the remainder without a divide, after
// Lemire, Kaser and Kurz, "Faster remainder by direct computation"
// (2019): with m = ⌊(2⁶⁴−1)/n⌋ + 1, v mod n is the high 64 bits of
// (m·v mod 2⁶⁴)·n, exactly, for every 32-bit v and n. At n = 1, m wraps
// to 0 and so does the remainder.
type Intn struct {
	n     uint64
	m     uint64 // ⌊(2⁶⁴−1)/n⌋ + 1 mod 2⁶⁴ for Int31n; unused for Int63n
	shift uint   // 32 for Int31n, 0 for Int63n
	max   int64  // the largest accepted value; −1 refuses every output
}

// NewIntn returns the decider for Rand.Intn(n). For n ≤ 0 it refuses
// every output, and Source.Intn panics, as Rand.Intn does.
func NewIntn(n int) Intn {
	switch {
	case n <= 0:
		return Intn{n: 1, max: -1}
	case n <= 1<<31-1:
		max := int64(1<<31 - 1)
		if n&(n-1) != 0 {
			max -= int64((1 << 31) % uint32(n))
		}
		return Intn{n: uint64(n), m: ^uint64(0)/uint64(n) + 1, shift: 32, max: max}
	default:
		max := int64(1<<63 - 1)
		if n&(n-1) != 0 {
			max -= int64((1 << 63) % uint64(n))
		}
		return Intn{n: uint64(n), max: max}
	}
}

// Limit returns the least 63-bit value on which d draws again: Of
// accepts x exactly when Value(x) < d.Limit(), so one compare checks an
// output without decoding it. It is 0 for n ≤ 0, where every output is
// refused.
func (d Intn) Limit() uint64 {
	if d.max < 0 {
		return 0
	}
	return (uint64(d.max) + 1) << d.shift
}

// Of returns Rand.Intn(n) drawn from output x, and false when math/rand
// would draw again instead.
func (d Intn) Of(x uint64) (int, bool) {
	v := int64(x&mask63) >> d.shift
	if v > d.max {
		return 0, false
	}
	if d.shift == 0 {
		return int(uint64(v) % d.n), true
	}
	rem, _ := bits.Mul64(d.m*uint64(v), d.n)
	return int(rem), true
}
