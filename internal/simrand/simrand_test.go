package simrand

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
)

// resetCache empties the process-wide cache, so a test sees first uses
// as misses.
func resetCache() {
	cache.mu.Lock()
	defer cache.mu.Unlock()
	cache.entries, cache.src = nil, nil
}

// cached reports whether seed's outputs are in the cache.
func cached(seed int64) bool {
	cache.mu.Lock()
	defer cache.mu.Unlock()
	return slices.ContainsFunc(cache.entries, func(e *entry) bool { return e.seed == seed })
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

// TestSourceMatchesMathRand: a Source's stream is rand.NewSource's for
// edge seeds (0, ±1, multiples of 2³¹−1, the int64 extremes) over more
// than 100 000 mixed draws, math/rand's own methods on rand.New(src)
// between the Source's Unread and Advance, Float64Value, Test and Intn,
// with Seed called mid-stream, on a seed's first use (a cache miss), on
// its reuse (a hit) and on its reuse after the cache evicted it.
func TestSourceMatchesMathRand(t *testing.T) {
	resetCache()
	const m = 1<<31 - 1
	edges := []int64{0, 1, -1, m, -m, 2 * m, m * m, -3 * m, math.MinInt64, math.MaxInt64, 89482311, 42}
	var fill []int64 // enough other seeds to evict every edge seed
	for i := 0; i < capacity+4; i++ {
		fill = append(fill, 1000+int64(i))
	}
	driver := rand.New(rand.NewSource(7))
	p := newPair(edges[0])
	draws := 0
	run := func(seeds []int64, phase string) {
		for _, seed := range seeds {
			p.reseed(seed)
			// Short runs stay inside the cached outputs; long ones cross
			// several 607-output blocks of the recurrence.
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

	hits, misses := cacheHits.Value(), cacheMisses.Value()
	run(edges, "first use")
	if got := cacheMisses.Value() - misses; got != int64(len(edges)) {
		t.Errorf("first use: %d misses, want %d", got, len(edges))
	}
	hits, misses = cacheHits.Value(), cacheMisses.Value()
	run(edges, "reuse")
	if got := cacheHits.Value() - hits; got != int64(len(edges)) {
		t.Errorf("reuse: %d hits, want %d", got, len(edges))
	}
	run(fill, "fill")
	for _, seed := range edges {
		if cached(seed) {
			t.Fatalf("seed %d still cached after %d other seeds", seed, len(fill))
		}
	}
	misses = cacheMisses.Value()
	run(edges, "reuse after eviction")
	if got := cacheMisses.Value() - misses; got != int64(len(edges)) {
		t.Errorf("reuse after eviction: %d misses, want %d", got, len(edges))
	}
	// Seeding twice, or seeding and never drawing, leaves the stream
	// where the last Seed put it.
	p.reseed(5)
	p.reseed(6)
	run([]int64{6}, "double seed")
	if draws < 100000 {
		t.Fatalf("only %d draws compared", draws)
	}
}

// TestReaderMatchesMathRand: a Source read the way the population draws
// read it is rand.NewSource's stream for edge seeds: the unread rest of
// its block (Unread), consumed whole, so that the next read steps the
// block, or by any prefix, none included (Advance), with Uint64, Int63
// and math/rand's own methods on rand.New(src) in between.
func TestReaderMatchesMathRand(t *testing.T) {
	const m = 1<<31 - 1
	driver := rand.New(rand.NewSource(3))
	for _, seed := range []int64{0, 1, -1, m, -m, math.MinInt64, math.MaxInt64, 42} {
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

// TestSourceSeedWithoutDrawIsFree: seeding alone never touches the cache.
func TestSourceSeedWithoutDrawIsFree(t *testing.T) {
	resetCache()
	before := cacheHits.Value() + cacheMisses.Value()
	r := rand.New(New(3))
	for i := int64(0); i < 100; i++ {
		r.Seed(i)
	}
	if after := cacheHits.Value() + cacheMisses.Value(); after != before || cached(99) {
		t.Errorf("seeding without drawing used the cache (%d lookups)", after-before)
	}
}

// TestSourceConcurrentSharedSeeds: Sources on several goroutines draw
// from seeds they share, more seeds than the cache holds, so entries are
// evicted and refilled while other goroutines copy out of them. Every
// stream stays math/rand's. Run under -race.
func TestSourceConcurrentSharedSeeds(t *testing.T) {
	resetCache()
	seeds := capacity + capacity/2
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

// TestCacheMemoryBound: however many seeds pass through it, the cache at
// its largest capacity allocates no more than cacheBytes, and it never
// holds more than capacity entries.
func TestCacheMemoryBound(t *testing.T) {
	if capacity < 16 || capacity > 64 {
		t.Fatalf("capacity %d outside [16, 64]", capacity)
	}
	defer func(c int) { capacity = c; resetCache() }(capacity)
	capacity = 64
	resetCache()
	var buf [rngLen]uint64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for seed := int64(0); seed < 200; seed++ {
		load(seed, &buf)
	}
	runtime.ReadMemStats(&after)
	if n := len(cache.entries); n != capacity {
		t.Errorf("cache holds %d entries, want %d", n, capacity)
	}
	got := after.TotalAlloc - before.TotalAlloc
	if got > cacheBytes {
		t.Errorf("cache allocated %d bytes, bound %d", got, cacheBytes)
	}
	t.Logf("%d entries: %d bytes allocated, bound %d", len(cache.entries), got, cacheBytes)
}

// FuzzSource: for any seed and any program of draws, reads, decisions
// and reseeds, a Source's stream is math/rand's, and both stand at the
// same output afterwards.
func FuzzSource(f *testing.F) {
	f.Add(int64(1), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(int64(0), []byte{10, 0, 255, 7})
	f.Add(int64(math.MinInt64), []byte{1, 1, 1, 1})
	f.Add(int64(math.MaxInt64), []byte{5, 63, 6, 63})
	f.Add(int64(1<<31-1), []byte{4, 4, 4, 4, 4, 4})
	f.Fuzz(func(t *testing.T, seed int64, prog []byte) {
		p := newPair(seed)
		for i := 0; i+1 < len(prog); i += 2 {
			op, arg := prog[i], prog[i+1]
			switch {
			case op >= 250:
				// Reseed near the fuzzed seed, so programs revisit
				// cached seeds.
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
// pooled lab) on a Source against math/rand's own source.
func BenchmarkReseedDraw(b *testing.B) {
	for _, bc := range []struct {
		name string
		r    *rand.Rand
	}{
		{"simrand", rand.New(New(1))},
		{"math-rand", rand.New(rand.NewSource(1))},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; b.Loop(); i++ {
				bc.r.Seed(int64(i % 4))
				sinkInt += bc.r.Intn(1<<16) + bc.r.Intn(64512)
			}
		})
	}
}
