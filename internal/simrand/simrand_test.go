package simrand

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// m is math/rand's seed modulus, 2³¹−1.
const m = 1<<31 - 1

// edgeSeeds are the seeds the oracle tests run: 0 and multiples of m,
// which math/rand's Seed maps to 89 482 311 (among them too); ±1; the
// neighbours of ±m, 2³¹ and −2³¹ among them, which normalise to the
// least and greatest generator states, 1 and m−1; the int64 extremes;
// and 42.
var edgeSeeds = []int64{
	0, 1, -1, m, -m, 2 * m, m * m, -3 * m, m - 1, m + 1, -m + 1, -m - 1,
	math.MinInt64, math.MaxInt64, 89482311, 42,
}

// pair drives a Source and a math/rand reference source in lockstep:
// through math/rand's own methods on rand.New(src), and through the
// Source's own reads and decisions.
type pair struct {
	src       *Source
	got, want *rand.Rand
}

func newPair(seed int64) pair {
	src := New(seed)
	return pair{src: src, got: rand.New(src), want: rand.New(rand.NewSource(seed))}
}

// The ops of pair.step that read the Source itself, after the ten that
// draw through rand.New(src).
const (
	opUnread = 10 + iota
	opFloat64Value
	opTest
	opIntn
	numOps
)

// decisionPs are the probabilities opTest tests Float64 against: the
// ends of [0, 1] and beyond, NaN, the smallest and largest steps, and
// the populations' own.
var decisionPs = []float64{
	0, 1, 1.5, math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, 1 - 0x1p-53,
	0.5, 0.95, 0.01, 0.0766, 0.0705, 0.832, 0.6, 0.113, 0.002,
}

// decisionNs are the n opIntn draws Intn(n) at: both of Intn's branches,
// powers of two, the rejection-heavy 1<<30+1 (about half of all Int31n
// values drawn again) and 3<<61 (a quarter of all Int63n values), and
// n ≤ 0, where Intn panics.
var decisionNs = []int{1, 2, 3, 30, 151, 600, 1<<30 + 1, 1<<31 - 1, 1 << 31, 3 << 61, math.MaxInt64, 0, -1, math.MinInt}

// testArg and intnArg are the step arguments for Test(Below(p)), or
// Test(NotAtLeast(p)), and Intn(n), for p in decisionPs and n in
// decisionNs. An opTest argument picks p by its remainder and the cut by
// the parity of its quotient, both modulo len(decisionPs).
func testArg(p float64, notAtLeast bool) byte {
	i := slices.IndexFunc(decisionPs, func(q float64) bool { return q == p || math.IsNaN(p) && math.IsNaN(q) })
	if notAtLeast {
		i += len(decisionPs)
	}
	return byte(i)
}
func intnArg(n int) byte { return byte(slices.Index(decisionNs, n)) }

// catch calls f and returns the value it panicked with, nil if none.
func catch(f func()) (panicked any) {
	defer func() { panicked = recover() }()
	f()
	return nil
}

// step performs op on both sides, with arg choosing its argument, and
// returns a description of the first difference ("" when they agree).
func (p pair) step(op, arg byte) string {
	switch op % numOps {
	case 0:
		if g, w := p.got.Int63(), p.want.Int63(); g != w {
			return "Int63"
		}
	case 1:
		if g, w := p.got.Uint64(), p.want.Uint64(); g != w {
			return "Uint64"
		}
	case 2:
		n := 1 + int(arg)<<(arg%40)
		if g, w := p.got.Intn(n), p.want.Intn(n); g != w {
			return "Intn"
		}
	case 3:
		n := 1 + int32(arg)<<(arg%23)
		if g, w := p.got.Int31n(n), p.want.Int31n(n); g != w {
			return "Int31n"
		}
	case 4:
		if g, w := p.got.Float64(), p.want.Float64(); g != w {
			return "Float64"
		}
	case 5:
		g, w := p.got.Perm(int(arg%64)), p.want.Perm(int(arg%64))
		for i := range g {
			if g[i] != w[i] {
				return "Perm"
			}
		}
	case 6:
		g, w := make([]int, arg%64), make([]int, arg%64)
		for i := range g {
			g[i], w[i] = i, i
		}
		p.got.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
		p.want.Shuffle(len(w), func(i, j int) { w[i], w[j] = w[j], w[i] })
		for i := range g {
			if g[i] != w[i] {
				return "Shuffle"
			}
		}
	case 7:
		n := 1 + int64(arg)<<(arg%56)
		if g, w := p.got.Int63n(n), p.want.Int63n(n); g != w {
			return "Int63n"
		}
	case 8:
		if g, w := p.got.NormFloat64(), p.want.NormFloat64(); g != w {
			return "NormFloat64"
		}
	case 9:
		if g, w := p.got.Uint32(), p.want.Uint32(); g != w {
			return "Uint32"
		}
	case opUnread:
		// Unread shows the rest of the current block. Consume a prefix
		// of it, or all of it (arg a multiple of 4), so that the window
		// ends at the block boundary and the next read steps the block.
		w := p.src.Unread()
		if len(w) == 0 || p.src.pos+len(w) != rngLen {
			return fmt.Sprintf("Unread (%d outputs at %d)", len(w), p.src.pos)
		}
		k := len(w)
		if arg%4 != 0 {
			k = int(arg) % (len(w) + 1)
		}
		for _, x := range w[:k] {
			if x != p.want.Uint64() {
				return "Unread"
			}
		}
		p.src.Advance(k)
	case opFloat64Value:
		if v, f := p.src.Float64Value(), p.want.Float64(); float64(int64(v))/(1<<63) != f || v >= Redraw {
			return "Float64Value"
		}
	case opTest:
		q, notAtLeast := decisionPs[int(arg)%len(decisionPs)], int(arg)/len(decisionPs)%2 == 1
		c, pass := Below(q), func(f float64) bool { return f < q }
		if notAtLeast {
			c, pass = NotAtLeast(q), func(f float64) bool { return !(f >= q) }
		}
		if g, f := p.src.Test(c), p.want.Float64(); g != pass(f) {
			return fmt.Sprintf("Test (p %v, NotAtLeast %v)", q, notAtLeast)
		}
	case opIntn:
		// For n ≤ 0 both must panic alike without drawing.
		n := decisionNs[int(arg)%len(decisionNs)]
		var g, w int
		gotPanic := catch(func() { g = p.src.Intn(NewIntn(n)) })
		wantPanic := catch(func() { w = p.want.Intn(n) })
		if gotPanic != wantPanic || g != w {
			return fmt.Sprintf("Source.Intn(NewIntn(%d)) (panic %v)", n, gotPanic)
		}
	}
	return ""
}

// reseed calls Seed on both sides mid-stream.
func (p pair) reseed(seed int64) {
	p.got.Seed(seed)
	p.want.Seed(seed)
}

// run steps p through prog, pairs of op and argument, and returns the
// first difference, with the pair it happened at ("" when none).
func (p pair) run(prog []byte) string {
	for i := 0; i+1 < len(prog); i += 2 {
		if diff := p.step(prog[i], prog[i+1]); diff != "" {
			return fmt.Sprintf("op %d: %s", i/2, diff)
		}
	}
	return ""
}

// TestSourceMatchesMathRand: a Source's stream is rand.NewSource's for
// the edge seeds over more than 100 000 mixed draws, math/rand's own
// methods on rand.New(src) between the Source's Unread and Advance,
// Float64Value, Test and Intn, with Seed called mid-stream: on a seed's
// first use, on its reuse, and on its reuse after other seeds.
func TestSourceMatchesMathRand(t *testing.T) {
	var others []int64
	for i := range 20 {
		others = append(others, 1000+int64(i))
	}
	driver := rand.New(rand.NewSource(7))
	p := newPair(edgeSeeds[0])
	draws := 0
	run := func(seeds []int64, phase string) {
		for _, seed := range seeds {
			p.reseed(seed)
			// Short runs stay inside the first block, produced as it is
			// drawn; long ones cross several 607-output blocks of the
			// recurrence.
			n := driver.Intn(40)
			if driver.Intn(2) == 0 {
				n = 2000 + driver.Intn(6000)
			}
			for i := 0; i < n; i++ {
				op, arg := byte(driver.Intn(256)), byte(driver.Intn(256))
				if diff := p.step(op, arg); diff != "" {
					t.Fatalf("%s: seed %d, draw %d: %s differs from math/rand", phase, seed, i, diff)
				}
				draws++
			}
		}
	}
	run(edgeSeeds, "first use")
	run(edgeSeeds, "reuse")
	run(others, "other seeds")
	run(edgeSeeds, "reuse after other seeds")
	// Seeding twice, or seeding and never drawing, leaves the stream
	// where the last Seed put it.
	p.reseed(5)
	p.reseed(6)
	run([]int64{6}, "double seed")
	if draws < 100000 {
		t.Fatalf("only %d draws compared", draws)
	}
}

// stops are the outputs the boundary programs stop at: a chunk's
// boundaries, where the first block's formulas change (at 273 and 334),
// and the block's end, each with the output before it.
var stops = []int{1, chunk - 1, chunk, chunk + 1, 272, 273, 333, 334, 606, 607}

// boundaryProg returns a pair.step program that reads the first n
// outputs through read and then reads across the stop, by first
// (opUnread or Uint64, op 1) and then the other. "uint64" draws the n
// outputs one at a time; "advance" consumes them from Unread windows;
// "mixed" draws half of them one at a time and advances past the rest.
// The program ends with the next block's first output.
func boundaryProg(read string, n int, first byte) []byte {
	var prog []byte
	draw := func(k int) {
		for range k {
			prog = append(prog, 1, 0)
		}
	}
	advance := func(k int) {
		// An opUnread argument a consumes a outputs unless a%4 is 0.
		for k > 0 {
			a := min(k, 255)
			if a%4 == 0 {
				a--
			}
			prog = append(prog, opUnread, byte(a))
			k -= a
		}
	}
	switch read {
	case "uint64":
		draw(n)
	case "advance":
		advance(n)
	case "mixed":
		draw(n / 2)
		advance(n - n/2)
	}
	if first == opUnread {
		return append(prog, opUnread, 1, opUnread, 0, 1, 0)
	}
	return append(prog, 1, 0, 1, 0, opUnread, 0, 1, 0)
}

// boundaryProgs returns every boundary program: each reader to each
// stop, then across it by each reader first.
func boundaryProgs() (progs []struct {
	name string
	prog []byte
}) {
	for _, read := range []string{"uint64", "advance", "mixed"} {
		for _, n := range stops {
			for _, first := range []byte{1, opUnread} {
				name := fmt.Sprintf("%s to %d, then Uint64", read, n)
				if first == opUnread {
					name = fmt.Sprintf("%s to %d, then Unread", read, n)
				}
				progs = append(progs, struct {
					name string
					prog []byte
				}{name, boundaryProg(read, n, first)})
			}
		}
	}
	return progs
}

// TestSourceBoundaries: at every edge seed, a Source read up to each
// output where its first block changes formula or chunk, or ends, by
// Uint64, by Unread and Advance, or by both, and then read on by each,
// is rand.NewSource's stream.
func TestSourceBoundaries(t *testing.T) {
	for _, bp := range boundaryProgs() {
		for _, seed := range edgeSeeds {
			if diff := newPair(seed).run(bp.prog); diff != "" {
				t.Errorf("%s, seed %d: %s differs from math/rand", bp.name, seed, diff)
			}
		}
	}
}

// TestSourceManySeeds: a Source's first three blocks are rand.NewSource's
// for 3 000 seeds drawn from the whole int64 range and 2 000 near 0,
// read through Unread windows cut at random points and Uint64.
func TestSourceManySeeds(t *testing.T) {
	driver := rand.New(rand.NewSource(11))
	var src Source
	for i := range 5000 {
		seed := int64(driver.Uint64())
		if i >= 3000 {
			seed = int64(i - 4000)
		}
		src.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for read := 0; read < 3*rngLen; {
			w := src.Unread()
			k := 1 + driver.Intn(len(w))
			for j, x := range w[:k] {
				if y := want.Uint64(); x != y {
					t.Fatalf("seed %d: output %d is %#x, math/rand %#x", seed, read+j, x, y)
				}
			}
			src.Advance(k)
			read += k
			if x, y := src.Uint64(), want.Uint64(); x != y {
				t.Fatalf("seed %d: output %d is %#x, math/rand %#x", seed, read, x, y)
			}
			read++
		}
	}
}

// TestReaderMatchesMathRand: a Source read the way the population draws
// read it is rand.NewSource's stream for the edge seeds: the unread rest
// of its block (Unread), consumed whole, so that the next read steps the
// block, or by any prefix, none included (Advance), with Uint64, Int63
// and math/rand's own methods on rand.New(src) in between.
func TestReaderMatchesMathRand(t *testing.T) {
	driver := rand.New(rand.NewSource(3))
	for _, seed := range edgeSeeds {
		want := rand.New(rand.NewSource(seed))
		src := New(seed)
		got := rand.New(src)
		for op := 0; op < 3000; op++ {
			switch driver.Intn(4) {
			case 0:
				w := src.Unread()
				if len(w) == 0 || src.pos+len(w) != rngLen {
					t.Fatalf("seed %d, op %d: Unread holds %d outputs at %d", seed, op, len(w), src.pos)
				}
				k := len(w)
				if driver.Intn(2) == 0 {
					k = driver.Intn(len(w) + 1)
				}
				for i, x := range w[:k] {
					if y := want.Uint64(); x != y {
						t.Fatalf("seed %d, op %d: unread output %d is %#x, math/rand %#x", seed, op, i, x, y)
					}
				}
				src.Advance(k)
			case 1:
				if x, y := src.Uint64(), want.Uint64(); x != y {
					t.Fatalf("seed %d, op %d: Uint64 %#x, math/rand %#x", seed, op, x, y)
				}
			case 2:
				if x, y := src.Int63(), want.Int63(); x != y {
					t.Fatalf("seed %d, op %d: Int63 %d, math/rand %d", seed, op, x, y)
				}
			case 3:
				if x, y := got.Float64(), want.Float64(); x != y {
					t.Fatalf("seed %d, op %d: Float64 %v, math/rand %v", seed, op, x, y)
				}
				if x, y := got.Intn(151), want.Intn(151); x != y {
					t.Fatalf("seed %d, op %d: Intn %d, math/rand %d", seed, op, x, y)
				}
			}
		}
	}
}

// TestSourceSeedWithoutDrawIsFree: seeding alone produces no output and
// allocates nothing; the first draw after many seeds is the last seed's.
func TestSourceSeedWithoutDrawIsFree(t *testing.T) {
	src := New(3)
	r := rand.New(src)
	allocs := testing.AllocsPerRun(100, func() {
		for i := int64(0); i < 100; i++ {
			r.Seed(i)
		}
	})
	if allocs != 0 || src.end != 0 {
		t.Errorf("seeding without drawing allocated %v times and produced %d outputs", allocs, src.end)
	}
	if x, y := src.Uint64(), rand.NewSource(99).(rand.Source64).Uint64(); x != y {
		t.Errorf("first output after seeding 99: %#x, math/rand %#x", x, y)
	}
}

// TestSourceConcurrentSharedSeeds: Sources on several goroutines draw
// from seeds they share, as the campaign workers' labs do. Sources share
// only the package's read-only tables, so every stream stays math/rand's
// and the race detector finds nothing. Run under -race.
func TestSourceConcurrentSharedSeeds(t *testing.T) {
	const seeds = 24
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			p := newPair(0)
			for i := 0; i < 3*seeds; i++ {
				seed := int64((g*7 + i*5) % seeds)
				p.reseed(seed)
				for j := 0; j < 700; j++ {
					if diff := p.step(byte(j), byte(i+j)); diff != "" {
						t.Errorf("goroutine %d: seed %d, draw %d: %s differs from math/rand", g, seed, j, diff)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// FuzzSource: for any seed and any program of draws, reads, decisions
// and reseeds, a Source's stream is math/rand's, and both stand at the
// same output afterwards. The corpus holds every edge seed and every
// boundary program.
func FuzzSource(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(int64(0), []byte{10, 0, 255, 7})
	f.Add(int64(math.MinInt64), []byte{1, 1, 1, 1})
	f.Add(int64(math.MaxInt64), []byte{5, 63, 6, 63})
	f.Add(int64(1<<31-1), []byte{4, 4, 4, 4, 4, 4})
	for _, seed := range edgeSeeds {
		f.Add(seed, []byte{1, 0, 10, 0, 240, 1})
	}
	for i, bp := range boundaryProgs() {
		f.Add(edgeSeeds[i%len(edgeSeeds)], bp.prog)
	}
	f.Fuzz(func(t *testing.T, seed int64, prog []byte) {
		p := newPair(seed)
		for i := 0; i+1 < len(prog); i += 2 {
			op, arg := prog[i], prog[i+1]
			switch {
			case op >= 250:
				// Reseed near the fuzzed seed, so programs reseed with
				// seeds they have drawn from.
				p.reseed(seed + int64(arg%4))
			case op >= 240:
				// A long run crosses into the recurrence.
				for j := 0; j < 607*int(arg%3+1); j++ {
					if diff := p.step(1, 0); diff != "" {
						t.Fatalf("op %d, long run draw %d: %s differs from math/rand", i/2, j, diff)
					}
				}
			default:
				if diff := p.step(op, arg); diff != "" {
					t.Fatalf("op %d: %s differs from math/rand", i/2, diff)
				}
			}
		}
		if diff := p.step(1, 0); diff != "" {
			t.Fatalf("next output after the program: %s differs from math/rand", diff)
		}
	})
}

var sinkInt int

// BenchmarkReseedDraw compares seeding a lab component's stream and
// drawing a few values from it (the resolver's TXID and port on a
// pooled lab) on a Source against math/rand's own source, at a seed's
// first use and at its reuse, one of four seeds drawn in turn. A Source
// costs the same either way; math/rand seeds every time.
func BenchmarkReseedDraw(b *testing.B) {
	for _, bc := range []struct {
		name string
		r    *rand.Rand
	}{
		{"simrand", rand.New(New(1))},
		{"math-rand", rand.New(rand.NewSource(1))},
	} {
		for _, seeds := range []struct {
			name string
			of   func(i int) int64
		}{
			{"first-use", func(i int) int64 { return int64(i) }},
			{"reuse", func(i int) int64 { return int64(i % 4) }},
		} {
			b.Run(bc.name+"/"+seeds.name, func(b *testing.B) {
				for i := 0; b.Loop(); i++ {
					bc.r.Seed(seeds.of(i))
					sinkInt += bc.r.Intn(1<<16) + bc.r.Intn(64512)
				}
			})
		}
	}
}

var sinkUint64 uint64

// BenchmarkFirstBlock times seeding a stream and producing its whole
// first block, as a population draw's first Unread does, against
// math/rand's seeding and 607 draws.
func BenchmarkFirstBlock(b *testing.B) {
	b.Run("simrand", func(b *testing.B) {
		var src Source
		for i := int64(0); b.Loop(); i++ {
			src.Seed(i)
			sinkUint64 += src.Unread()[rngLen-1]
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		src := rand.NewSource(1).(rand.Source64)
		for i := int64(0); b.Loop(); i++ {
			src.Seed(i)
			for range rngLen {
				sinkUint64 += src.Uint64()
			}
		}
	})
}
