package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 10, 1)
	for _, v := range []float64{0, 0.5, 1, 5.9, 9.99} {
		h.Add(v)
	}
	if h.Bin(0) != 2 || h.Bin(1) != 1 || h.Bin(5) != 1 || h.Bin(9) != 1 {
		t.Errorf("bins wrong: %v %v %v %v", h.Bin(0), h.Bin(1), h.Bin(5), h.Bin(9))
	}
	if h.Total() != 5 {
		t.Errorf("total = %d", h.Total())
	}
}

func TestHistogramClampsTails(t *testing.T) {
	h := NewHistogram(-50, 200, 10)
	h.Add(-100)
	h.Add(500)
	h.Add(0)
	if h.Under() != 1 || h.Over() != 1 {
		t.Errorf("under/over = %d/%d", h.Under(), h.Over())
	}
}

// TestHistogramNaNCountsUnder: a NaN sample, such as Figure 7's delta
// under a NaN jitter, counts under Min, where CDF ranks it, instead of
// indexing a bin.
func TestHistogramNaNCountsUnder(t *testing.T) {
	h := NewHistogram(-50, 200, 5)
	h.Add(math.NaN())
	h.AddN(math.NaN(), 2)
	h.Add(0)
	if h.Under() != 3 || h.Over() != 0 || h.Total() != 4 || h.Bin(10) != 1 {
		t.Errorf("under %d, over %d, total %d, bin of 0 %d; want 3, 0, 4, 1", h.Under(), h.Over(), h.Total(), h.Bin(10))
	}
}

// TestHistogramAddN: AddN(v, n) records what n calls of Add(v) record,
// in range, on the edges and in both tails, n = 0 included.
func TestHistogramAddN(t *testing.T) {
	for _, v := range []float64{-60, -50, -0.5, 0, 4.99, 5, 199.9, 200, 1e9} {
		for _, n := range []int{0, 1, 3} {
			got, want := NewHistogram(-50, 200, 5), NewHistogram(-50, 200, 5)
			got.AddN(v, n)
			for range n {
				want.Add(v)
			}
			if got.Total() != want.Total() || got.Under() != want.Under() || got.Over() != want.Over() || !slices.Equal(got.counts, want.counts) {
				t.Errorf("AddN(%v, %d) = %+v, %d Adds give %+v", v, n, *got, n, *want)
			}
		}
	}
}

// TestCDFAddNMatchesSortedSamples: a CDF built with Add and AddN answers
// At exactly as a search of its sorted samples does, NaNs first, for
// samples and points that include NaN, ±Inf and −0, and n = 0.
func TestCDFAddNMatchesSortedSamples(t *testing.T) {
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 292, 548}
	rng := rand.New(rand.NewSource(1))
	pick := func() float64 {
		if rng.Intn(2) == 0 {
			return special[rng.Intn(len(special))]
		}
		return float64(rng.Intn(2000) - 100)
	}
	for round := range 200 {
		var c CDF
		var samples []float64
		for range rng.Intn(8) {
			v, n := pick(), rng.Intn(4)
			if n == 1 && rng.Intn(2) == 0 {
				c.Add(v)
			} else {
				c.AddN(v, n)
			}
			samples = append(samples, slices.Repeat([]float64{v}, n)...)
		}
		sort.Float64s(samples)
		if c.Len() != len(samples) {
			t.Fatalf("round %d: Len %d, %d samples", round, c.Len(), len(samples))
		}
		for range 20 {
			v := pick()
			want := 0.0
			if len(samples) > 0 {
				want = float64(sort.SearchFloat64s(samples, math.Nextafter(v, math.Inf(1)))) / float64(len(samples))
			}
			if got := c.At(v); got != want {
				t.Fatalf("round %d: At(%v) = %v over %v, sorted search %v", round, v, got, samples, want)
			}
		}
	}
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram(0, 3, 1)
	h.Add(0.5)
	h.Add(1.5)
	h.Add(1.6)
	out := h.Render(20)
	if !strings.Contains(out, "#") || len(strings.Split(out, "\n")) < 3 {
		t.Errorf("render output unexpected:\n%s", out)
	}
}

func TestCDFAt(t *testing.T) {
	var c CDF
	for _, v := range []float64{292, 548, 548, 548, 1500} {
		c.Add(v)
	}
	if got := c.At(291); got != 0 {
		t.Errorf("At(291) = %f", got)
	}
	if got := c.At(292); got != 0.2 {
		t.Errorf("At(292) = %f, want 0.2", got)
	}
	if got := c.At(548); got != 0.8 {
		t.Errorf("At(548) = %f, want 0.8", got)
	}
	if got := c.At(1500); got != 1 {
		t.Errorf("At(1500) = %f, want 1", got)
	}
}

func TestCDFPoints(t *testing.T) {
	var c CDF
	c.Add(1)
	c.Add(2)
	pts := c.Points([]float64{0, 1, 2})
	if pts[0][1] != 0 || pts[1][1] != 0.5 || pts[2][1] != 1 {
		t.Errorf("points = %v", pts)
	}
}

func TestCDFEmpty(t *testing.T) {
	var c CDF
	if c.At(5) != 0 {
		t.Error("empty CDF At != 0")
	}
}

func TestMeanMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if Mean(xs) != 2.5 {
		t.Errorf("mean = %f", Mean(xs))
	}
	if Median(xs) != 2.5 {
		t.Errorf("median = %f", Median(xs))
	}
	if Median([]float64{1, 2, 9}) != 2 {
		t.Errorf("odd median = %f", Median([]float64{1, 2, 9}))
	}
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Median(nil)) {
		t.Error("empty mean/median should be NaN")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Client", "Scenario", "Duration")
	tb.AddRow("NTPd", "P2", "47 minutes")
	tb.AddRow("NTPd", "P1", "17 minutes")
	out := tb.String()
	if !strings.Contains(out, "NTPd") || !strings.Contains(out, "47 minutes") {
		t.Errorf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Errorf("lines = %d, want 4", len(lines))
	}
}

func TestTableFloatFormatting(t *testing.T) {
	tb := NewTable("x")
	tb.AddRow(38.0451)
	if !strings.Contains(tb.String(), "38.0") {
		t.Errorf("float not formatted: %s", tb.String())
	}
}

// Property: CDF.At is monotone and bounded in [0,1].
func TestPropertyCDFMonotone(t *testing.T) {
	f := func(samples []float64, a, b float64) bool {
		var c CDF
		for _, s := range samples {
			if !math.IsNaN(s) && !math.IsInf(s, 0) {
				c.Add(s)
			}
		}
		if a > b {
			a, b = b, a
		}
		pa, pb := c.At(a), c.At(b)
		return pa >= 0 && pb <= 1 && pa <= pb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: histogram total equals adds.
func TestPropertyHistogramTotal(t *testing.T) {
	f := func(vals []float64) bool {
		h := NewHistogram(0, 100, 5)
		n := 0
		for _, v := range vals {
			if math.IsNaN(v) {
				continue
			}
			h.Add(v)
			n++
		}
		sum := h.Under() + h.Over()
		for i := 0; i < h.Bins(); i++ {
			sum += h.Bin(i)
		}
		return sum == n && h.Total() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStddev(t *testing.T) {
	if got := Stddev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); math.Abs(got-2.138) > 0.01 {
		t.Errorf("Stddev = %v, want ≈2.138", got)
	}
	if got := Stddev([]float64{42}); got != 0 {
		t.Errorf("Stddev of one sample = %v, want 0", got)
	}
}

func TestWilson(t *testing.T) {
	// 8/10 successes: the 95% Wilson interval is ≈ [0.490, 0.943].
	ci := Wilson(8, 10)
	if math.Abs(ci.Lo-0.490) > 0.005 || math.Abs(ci.Hi-0.943) > 0.005 {
		t.Errorf("Wilson(8,10) = %+v, want ≈[0.490, 0.943]", ci)
	}
	// Degenerate cases stay inside [0,1] and keep uncertainty.
	if ci := Wilson(0, 20); ci.Lo != 0 || ci.Hi <= 0 || ci.Hi > 1 {
		t.Errorf("Wilson(0,20) = %+v", ci)
	}
	if ci := Wilson(20, 20); ci.Hi != 1 || ci.Lo >= 1 || ci.Lo < 0 {
		t.Errorf("Wilson(20,20) = %+v", ci)
	}
	if ci := Wilson(0, 0); ci.Lo != 0 || ci.Hi != 1 {
		t.Errorf("Wilson(0,0) = %+v, want [0,1]", ci)
	}
}

func TestMeanCI(t *testing.T) {
	xs := []float64{10, 12, 8, 11, 9}
	ci := MeanCI(xs)
	m := Mean(xs)
	if !(ci.Lo < m && m < ci.Hi) {
		t.Errorf("MeanCI = %+v does not bracket mean %v", ci, m)
	}
	if ci := MeanCI([]float64{7}); ci.Lo != 7 || ci.Hi != 7 {
		t.Errorf("MeanCI of one sample = %+v, want point interval", ci)
	}
}

// Property: the Wilson interval always brackets the point estimate.
func TestPropertyWilsonBrackets(t *testing.T) {
	f := func(s, n uint8) bool {
		k, m := int(s), int(n)
		if m == 0 {
			m = 1
		}
		k %= m + 1
		ci := Wilson(k, m)
		p := float64(k) / float64(m)
		return ci.Lo >= 0 && ci.Hi <= 1 && ci.Lo <= p && p <= ci.Hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
