package simrand

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// float64Of is math/rand's Float64 of one output, before its redraw
// test.
func float64Of(x uint64) float64 { return float64(int64(x&(1<<63-1))) / (1 << 63) }

// TestCutMatchesFloat64: for every p, Below(p) and NotAtLeast(p) decide
// Float64() < p and !(Float64() >= p) exactly, at the outputs around the
// cut, at 0 and at the largest output math/rand keeps, with the top bit
// math/rand clears set or not.
func TestCutMatchesFloat64(t *testing.T) {
	ps := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, 0x1p-64, 0x1p-53,
		0.5, 1 - 0x1p-53, 1, 1.5, math.Inf(1), math.Inf(-1), math.NaN(),
		0.5828, 0.6941, 0.6392, 0.6128, 0.6155, 0.5858,
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		p := rng.Float64()
		if i%2 == 1 {
			p = math.Float64frombits(rng.Uint64())
		}
		ps = append(ps, p)
	}
	for _, p := range ps {
		for _, tc := range []struct {
			name string
			cut  Cut
			pass func(f float64) bool
		}{
			{"Below", Below(p), func(f float64) bool { return f < p }},
			{"NotAtLeast", NotAtLeast(p), func(f float64) bool { return !(f >= p) }},
		} {
			c := uint64(tc.cut)
			if c > Redraw {
				t.Fatalf("%s(%v) = %d, above Redraw", tc.name, p, c)
			}
			for _, x := range []uint64{0, c - 1, c, c + 1, Redraw - 1} {
				if x >= Redraw {
					continue // c−1 wrapped, or c+1 is past the last kept output
				}
				want := tc.pass(float64Of(x))
				if (x < c) != want {
					t.Fatalf("%s(%v): %d < %d is %v, Float64 test %v", tc.name, p, x, c, x < c, want)
				}
				for _, top := range []uint64{0, 1 << 63} {
					if pass, ok := tc.cut.Of(x | top); !ok || pass != want {
						t.Fatalf("%s(%v).Of(%#x) = %v, %v; want %v, true", tc.name, p, x|top, pass, ok, want)
					}
				}
			}
		}
	}
	// NaN is where the two forms part: no draw is below NaN, and no draw
	// is at least NaN either.
	if Below(math.NaN()) != 0 || NotAtLeast(math.NaN()) != Redraw {
		t.Errorf("Below(NaN) = %d, NotAtLeast(NaN) = %d; want 0, %d", Below(math.NaN()), NotAtLeast(math.NaN()), uint64(Redraw))
	}
}

// script is a rand.Source64 that yields a fixed list of outputs and
// counts what was read.
type script struct {
	out  []uint64
	read int
}

func (s *script) Uint64() uint64 {
	x := s.out[s.read]
	s.read++
	return x
}
func (s *script) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }
func (s *script) Seed(int64)   {}

// TestRedraw: the 63-bit values 2⁶³−512 … 2⁶³−1 are exactly the outputs
// on which math/rand's Float64 draws again, and Cut.Of refuses exactly
// those.
func TestRedraw(t *testing.T) {
	for _, tc := range []struct {
		x      uint64
		redraw bool
	}{
		{1<<63 - 513, false},
		{1<<63 - 512, true},
		{1<<63 - 1, true},
		{1<<64 - 513, false},
		{1<<64 - 512, true},
		{1<<64 - 1, true},
	} {
		if got := float64Of(tc.x) == 1; got != tc.redraw {
			t.Errorf("%#x: Float64 rounds to 1 is %v, want %v", tc.x, got, tc.redraw)
		}
		s := &script{out: []uint64{tc.x, 7}}
		f := rand.New(s).Float64()
		if redrawn := s.read == 2; redrawn != tc.redraw {
			t.Errorf("%#x: math/rand's Float64 read %d outputs, redraw %v", tc.x, s.read, tc.redraw)
		}
		if want := float64Of(7); tc.redraw && f != want {
			t.Errorf("%#x: redrawn Float64 = %v, want %v", tc.x, f, want)
		}
		for _, p := range []float64{0, 0.5, 1, math.NaN()} {
			if _, ok := Below(p).Of(tc.x); ok == tc.redraw {
				t.Errorf("Below(%v).Of(%#x) ok = %v, redraw %v", p, tc.x, ok, tc.redraw)
			}
		}
	}
}

// TestIntnMatchesMathRand: Intn.Of returns what math/rand's Intn(n)
// returns from the same output, and refuses exactly the outputs Intn
// draws again on: around each accepted bound, for n on both of Intn's
// branches, powers of two and 500 random n on the Int31n branch
// included. For n ≤ 0 it refuses every output, where Intn panics.
func TestIntnMatchesMathRand(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ns := []int{0, -1, math.MinInt, 1, 2, 3, 128, 151, 1<<30 + 1, 1<<31 - 1, 1 << 31, 1<<31 + 1, 1 << 40, 3<<61 + 1, math.MaxInt64}
	for range 500 {
		ns = append(ns, 1+rng.Intn(1<<31-1))
	}
	for _, n := range ns {
		d := NewIntn(n)
		xs := []uint64{0, 1<<63 - 1, 1<<64 - 1}
		bound := uint64(d.max) << d.shift // the largest accepted output
		for _, b := range []uint64{bound, bound + 1<<d.shift, bound + 1<<d.shift - 1} {
			xs = append(xs, b, b|1<<63)
		}
		for range 200 {
			xs = append(xs, rng.Uint64())
		}
		for _, x := range xs {
			if msg := intnDiff(n, x); msg != "" {
				t.Fatal(msg)
			}
		}
	}
}

// intnDiff describes how NewIntn(n).Of(x) departs from math/rand's
// Intn(n) on a source whose next output is x, or returns "" when they
// agree: Of must refuse x exactly when Intn draws again, and exactly
// when x's Value is not below Limit, return Intn's value when it
// accepts, and refuse every x for n ≤ 0, where Intn panics.
func intnDiff(n int, x uint64) (msg string) {
	got, ok := NewIntn(n).Of(x)
	s := &script{out: []uint64{x, 0}}
	defer func() {
		if recover() != nil && (n > 0 || ok) {
			msg = fmt.Sprintf("Intn(%d) on %#x: math/rand panicked, Of = %d, %v", n, x, got, ok)
		}
	}()
	if below := Value(x) < NewIntn(n).Limit(); below != ok {
		return fmt.Sprintf("Intn(%d) on %#x: Of ok = %v, below Limit %v", n, x, ok, below)
	}
	want := rand.New(s).Intn(n)
	switch accepted := s.read == 1; {
	case n <= 0:
		return fmt.Sprintf("Intn(%d) did not panic", n)
	case ok != accepted:
		return fmt.Sprintf("Intn(%d) on %#x: Of ok = %v, math/rand read %d outputs", n, x, ok, s.read)
	case ok && got != want:
		return fmt.Sprintf("Intn(%d) on %#x: Of = %d, math/rand %d", n, x, got, want)
	}
	return ""
}

// FuzzIntn: for any n, on either of Intn's branches or at most 0, and any
// output x, Intn.Of(x) decides math/rand's Intn(n) exactly.
func FuzzIntn(f *testing.F) {
	f.Add(int64(1), uint64(0))
	f.Add(int64(151), uint64(1<<64-1))
	f.Add(int64(3), uint64(0xFFFFFFFD)<<32)
	f.Add(int64(1<<31-1), uint64(1<<63-1))
	f.Add(int64(1<<31+1), uint64(1<<62))
	f.Add(int64(0), uint64(7))
	f.Add(int64(-1), uint64(1<<63))
	f.Fuzz(func(t *testing.T, n int64, x uint64) {
		if msg := intnDiff(int(n), x); msg != "" {
			t.Fatal(msg)
		}
	})
}

// decision maps a FuzzReaderDecisions program byte to the pair.step op
// and argument it runs: b%3 picks Float64Value, Test or Intn, and b/3
// the test's p and cut, or the n.
func decision(b byte) (op, arg byte) { return opFloat64Value + b%3, b / 3 }

// FuzzReaderDecisions: for any seed and program of decisions, a Source's
// Float64Value, Test and Intn read math/rand's stream exactly as
// rand.New(rand.NewSource(seed))'s Float64 and Intn do, and both streams
// stand at the same output afterwards. The corpus runs every decision,
// and Intn(1<<30+1) 1 500 times, which redraws across block boundaries,
// at edge seeds.
func FuzzReaderDecisions(f *testing.F) {
	every := make([]byte, 256)
	for b := range every {
		every[b] = byte(b)
	}
	rejecting := slices.Repeat([]byte{opIntn - opFloat64Value + 3*intnArg(1<<30+1)}, 1500)
	for _, seed := range []int64{1, 0, -1, math.MinInt64, math.MaxInt64} {
		f.Add(seed, every)
		f.Add(seed, rejecting)
	}
	f.Fuzz(func(t *testing.T, seed int64, program []byte) {
		p := newPair(seed)
		for i, b := range program {
			if diff := p.step(decision(b)); diff != "" {
				t.Fatalf("seed %d, decision %d: %s differs from math/rand", seed, i, diff)
			}
		}
		if diff := p.step(1, 0); diff != "" {
			t.Fatalf("seed %d: next output after the program: %s differs from math/rand", seed, diff)
		}
	})
}

// TestReaderDecisionsDrawAgain: a Source's sequential decisions read
// again on exactly the outputs math/rand's Float64 and Intn draw again
// on, which no seed reaches often enough to test: Float64 on the 512
// largest 63-bit values, Intn past the last whole multiple of n. Each
// case feeds the same outputs to a Source, at the end of its produced
// block, and to math/rand, through a script source, and compares the
// answer and the outputs read.
func TestReaderDecisionsDrawAgain(t *testing.T) {
	rejected31 := uint64(1<<30+1) << 32 // the least Int31n value Intn(1<<30+1) draws again on
	for _, tc := range []struct {
		name    string
		out     []uint64
		op, arg byte
	}{
		{"Float64Value past Redraw", []uint64{Redraw, 1<<63 - 1, 1<<64 - 1, 5}, opFloat64Value, 0},
		{"Float64Value top bit set", []uint64{1<<63 | 7}, opFloat64Value, 0},
		{"Test past Redraw", []uint64{1<<64 - 512, 1 << 62}, opTest, testArg(0.5, false)},
		{"Test NaN past Redraw", []uint64{Redraw, 3}, opTest, testArg(math.NaN(), false)},
		{"Test NotAtLeast NaN past Redraw", []uint64{Redraw, 3}, opTest, testArg(math.NaN(), true)},
		{"Intn(1<<30+1) rejected", []uint64{rejected31, rejected31 | 1<<63, rejected31 - 1<<32}, opIntn, intnArg(1<<30 + 1)},
		{"Intn(3<<61) rejected", []uint64{3 << 61, 1<<63 - 1, 3<<61 - 1}, opIntn, intnArg(3 << 61)},
		{"Intn(0)", []uint64{9}, opIntn, intnArg(0)},
	} {
		src := &Source{pos: rngLen - len(tc.out), end: rngLen}
		copy(src.buf[src.pos:], tc.out)
		s := &script{out: tc.out}
		if diff := (pair{src: src, want: rand.New(s)}).step(tc.op, tc.arg); diff != "" {
			t.Errorf("%s: %s differs from math/rand", tc.name, diff)
		}
		if read := src.pos - (rngLen - len(tc.out)); read != s.read {
			t.Errorf("%s: the Source read %d outputs, math/rand %d", tc.name, read, s.read)
		}
	}
}
