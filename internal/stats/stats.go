package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Histogram is a fixed-bin histogram over float64 samples.
type Histogram struct {
	Min, Max float64
	BinWidth float64
	counts   []int
	under    int
	over     int
	total    int
}

// NewHistogram creates a histogram covering [min, max) with the given bin
// width.
func NewHistogram(min, max, binWidth float64) *Histogram {
	n := int(math.Ceil((max - min) / binWidth))
	if n < 1 {
		n = 1
	}
	return &Histogram{Min: min, Max: max, BinWidth: binWidth, counts: make([]int, n)}
}

// Add records one sample. Out-of-range samples are clamped into the under/
// over buckets (as Figure 7 does: "values below −50 ms and above 200 ms are
// summed up on the sides").
func (h *Histogram) Add(v float64) { h.AddN(v, 1) }

// AddN records n ≥ 0 samples of value v, as n calls of Add do. A NaN
// sample counts as under Min, as CDF ranks NaN below every value.
func (h *Histogram) AddN(v float64, n int) {
	h.total += n
	switch {
	case !(v >= h.Min):
		h.under += n
	case v >= h.Max:
		h.over += n
	default:
		h.counts[int((v-h.Min)/h.BinWidth)] += n
	}
}

// Total returns the number of samples recorded.
func (h *Histogram) Total() int { return h.total }

// Bin returns the count of bin i (0-based); the under/over buckets are
// reported by Under and Over.
func (h *Histogram) Bin(i int) int { return h.counts[i] }

// Bins returns the number of regular bins.
func (h *Histogram) Bins() int { return len(h.counts) }

// Under and Over return the clamped-tail counts.
func (h *Histogram) Under() int { return h.under }

// Over returns the count of samples at or above Max.
func (h *Histogram) Over() int { return h.over }

// Render draws an ASCII bar chart with the given maximum bar width.
func (h *Histogram) Render(width int) string {
	var sb strings.Builder
	maxCount := 1
	for _, c := range h.counts {
		if c > maxCount {
			maxCount = c
		}
	}
	for i, c := range h.counts {
		lo := h.Min + float64(i)*h.BinWidth
		bar := strings.Repeat("#", c*width/maxCount)
		fmt.Fprintf(&sb, "%10.1f | %-*s %d\n", lo, width, bar, c)
	}
	return sb.String()
}

// CDF is an empirical cumulative distribution over float64 samples. It
// keeps each added value with its count, one entry per Add or AddN call,
// so a distribution over a few distinct values, such as Figure 5's
// fragment sizes, takes a few entries however many samples it holds.
type CDF struct {
	values []float64
	counts []int
	n      int // samples
}

// Add records one sample.
func (c *CDF) Add(v float64) { c.AddN(v, 1) }

// AddN records n ≥ 0 samples of value v, as n calls of Add do.
func (c *CDF) AddN(v float64, n int) {
	if n > 0 {
		c.values = append(c.values, v)
		c.counts = append(c.counts, n)
		c.n += n
	}
}

// Len returns the number of samples.
func (c *CDF) Len() int { return c.n }

// At returns P(X ≤ v): the fraction of samples below the least float64
// above v. A NaN sample counts as below every v, and At(NaN) is 1.
func (c *CDF) At(v float64) float64 {
	if c.n == 0 {
		return 0
	}
	above := math.Nextafter(v, math.Inf(1))
	k := 0
	for i, s := range c.values {
		if !(s >= above) {
			k += c.counts[i]
		}
	}
	return float64(k) / float64(c.n)
}

// Points returns (x, P(X≤x)) pairs at the given x values — the series
// plotted in Figure 5.
func (c *CDF) Points(xs []float64) [][2]float64 {
	out := make([][2]float64, 0, len(xs))
	for _, x := range xs {
		out = append(out, [2]float64{x, c.At(x)})
	}
	return out
}

// Mean returns the sample mean.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Stddev returns the sample standard deviation (n−1 denominator).
func Stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// Interval is a two-sided 95% confidence interval.
type Interval struct {
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// z95 is the normal quantile for two-sided 95% intervals.
const z95 = 1.959963984540054

// Wilson returns the 95% Wilson score interval for a binomial proportion
// with the given success count out of n trials, as fractions in [0,1].
// With n = 0 the interval is [0,1] (no information).
func Wilson(successes, n int) Interval {
	if n <= 0 {
		return Interval{0, 1}
	}
	p := float64(successes) / float64(n)
	nf := float64(n)
	z2 := z95 * z95
	denom := 1 + z2/nf
	centre := p + z2/(2*nf)
	spread := z95 * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf))
	lo := (centre - spread) / denom
	hi := (centre + spread) / denom
	// At p = 0 (and symmetrically p = 1) centre and spread are equal in
	// exact arithmetic but can differ by an ulp in floating point,
	// leaving lo a hair above 0 (or hi below 1) and breaking the
	// invariant that the interval brackets p. Pin the exact endpoints.
	if successes == 0 {
		lo = 0
	}
	if successes == n {
		hi = 1
	}
	return Interval{math.Max(0, lo), math.Min(1, hi)}
}

// MeanCI returns the 95% normal-approximation confidence interval for the
// mean of xs. With fewer than two samples it collapses to the point value.
func MeanCI(xs []float64) Interval {
	if len(xs) == 0 {
		return Interval{math.NaN(), math.NaN()}
	}
	m := Mean(xs)
	if len(xs) < 2 {
		return Interval{m, m}
	}
	se := Stddev(xs) / math.Sqrt(float64(len(xs)))
	return Interval{m - z95*se, m + z95*se}
}

// Median returns the sample median.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Table renders fixed-width text tables in the style of the paper.
type Table struct {
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(headers ...string) *Table {
	return &Table{headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.1f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	writeRow(t.headers)
	total := len(widths)*2 - 2
	for _, w := range widths {
		total += w
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteByte('\n')
	for _, row := range t.rows {
		writeRow(row)
	}
	return sb.String()
}
