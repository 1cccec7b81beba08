package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be non-negative; counters only go up).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an integer metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// FloatCounter is a monotonically increasing float metric (accumulated
// seconds, mostly).
type FloatCounter struct{ bits atomic.Uint64 }

// Add accumulates v.
func (c *FloatCounter) Add(v float64) {
	for {
		old := c.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the accumulated total.
func (c *FloatCounter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Histogram counts observations into fixed upper-bound buckets and
// tracks their sum, in the Prometheus cumulative-bucket style.
type Histogram struct {
	bounds []float64 // sorted upper bounds; an implicit +Inf bucket follows
	counts []atomic.Int64
	count  atomic.Int64
	sum    FloatCounter
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// DurationBuckets is the default upper-bound set for latency histograms,
// in seconds: 1ms to 60s, roughly logarithmic.
var DurationBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

// kind tags a family for TYPE exposition and registration checks.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// family is one named metric, optionally fanned out over a single label
// dimension. An unlabeled family has exactly one child keyed "".
type family struct {
	name, help, kind, label string
	float                   bool // counter backed by FloatCounter
	bounds                  []float64
	mu                      sync.Mutex
	children                map[string]any
}

func (f *family) child(label string) any {
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.children[label]; ok {
		return m
	}
	var m any
	switch {
	case f.kind == kindHistogram:
		m = &Histogram{bounds: f.bounds, counts: make([]atomic.Int64, len(f.bounds)+1)}
	case f.kind == kindGauge:
		m = &Gauge{}
	case f.float:
		m = &FloatCounter{}
	default:
		m = &Counter{}
	}
	f.children[label] = m
	return m
}

func (f *family) labels() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]string, 0, len(f.children))
	for l := range f.children {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// Registry holds named metric families. Registration is idempotent:
// asking for the same name again returns the existing metric, and asking
// with a conflicting kind or label panics (metrics are wired at startup;
// a clash is a programming error).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// Default is the process-wide registry: the campaign engine's seed-latency
// histograms, the lab pool's hit/reset counters, and the phase-timing
// accumulator live here. internal/serve merges it into /metrics.
var Default = NewRegistry()

func (r *Registry) family(name, help, kind, label string, float bool, bounds []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || f.label != label || f.float != float {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s/label=%q (was %s/label=%q)",
				name, kind, label, f.kind, f.label))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, label: label,
		float: float, bounds: bounds, children: map[string]any{}}
	r.families[name] = f
	return f
}

// Counter registers (or fetches) an unlabeled integer counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.family(name, help, kindCounter, "", false, nil).child("").(*Counter)
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.family(name, help, kindGauge, "", false, nil).child("").(*Gauge)
}

// FloatCounter registers (or fetches) an unlabeled float counter.
func (r *Registry) FloatCounter(name, help string) *FloatCounter {
	return r.family(name, help, kindCounter, "", true, nil).child("").(*FloatCounter)
}

// Histogram registers (or fetches) an unlabeled histogram with the given
// sorted upper bounds (an implicit +Inf bucket is added).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.family(name, help, kindHistogram, "", false, bounds).child("").(*Histogram)
}

// CounterVec is a counter family fanned out over one label dimension.
type CounterVec struct{ f *family }

// CounterVec registers (or fetches) an integer-counter family with one
// label dimension named label.
func (r *Registry) CounterVec(name, help, label string) *CounterVec {
	return &CounterVec{r.family(name, help, kindCounter, label, false, nil)}
}

// With returns the counter for the given label value, creating it on
// first use.
func (v *CounterVec) With(label string) *Counter { return v.f.child(label).(*Counter) }

// Labels returns the label values seen so far, sorted.
func (v *CounterVec) Labels() []string { return v.f.labels() }

// FloatCounterVec is a float-counter family fanned out over one label.
type FloatCounterVec struct{ f *family }

// FloatCounterVec registers (or fetches) a float-counter family with one
// label dimension named label.
func (r *Registry) FloatCounterVec(name, help, label string) *FloatCounterVec {
	return &FloatCounterVec{r.family(name, help, kindCounter, label, true, nil)}
}

// With returns the float counter for the given label value.
func (v *FloatCounterVec) With(label string) *FloatCounter { return v.f.child(label).(*FloatCounter) }

// HistogramVec is a histogram family fanned out over one label.
type HistogramVec struct{ f *family }

// HistogramVec registers (or fetches) a histogram family with one label
// dimension named label and the given bucket upper bounds.
func (r *Registry) HistogramVec(name, help, label string, bounds []float64) *HistogramVec {
	return &HistogramVec{r.family(name, help, kindHistogram, label, false, bounds)}
}

// With returns the histogram for the given label value.
func (v *HistogramVec) With(label string) *Histogram { return v.f.child(label).(*Histogram) }

// Labels returns the label values seen so far, sorted.
func (v *HistogramVec) Labels() []string { return v.f.labels() }

// WritePrometheus renders every family of the given registries in the
// Prometheus text exposition format (version 0.0.4): families sorted by
// name, samples sorted by label value, floats via strconv 'g' — fully
// deterministic for a given metric state. A family name registered in
// more than one registry is an error.
func WritePrometheus(w io.Writer, regs ...*Registry) error {
	var fams []*family
	seen := map[string]bool{}
	for _, r := range regs {
		r.mu.Lock()
		for _, f := range r.families {
			if seen[f.name] {
				r.mu.Unlock()
				return fmt.Errorf("obs: metric %q registered in more than one registry", f.name)
			}
			seen[f.name] = true
			fams = append(fams, f)
		}
		r.mu.Unlock()
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	var b []byte
	for _, f := range fams {
		b = b[:0]
		b = append(b, "# HELP "...)
		b = append(b, f.name...)
		b = append(b, ' ')
		b = append(b, escapeHelp(f.help)...)
		b = append(b, "\n# TYPE "...)
		b = append(b, f.name...)
		b = append(b, ' ')
		b = append(b, f.kind...)
		b = append(b, '\n')
		for _, lv := range f.labels() {
			b = appendSamples(b, f, lv)
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

func appendSamples(b []byte, f *family, labelValue string) []byte {
	pair := ""
	if f.label != "" {
		pair = f.label + `="` + escapeLabel(labelValue) + `"`
	}
	name := func(suffix, extra string) []byte {
		b = append(b, f.name...)
		b = append(b, suffix...)
		if pair != "" || extra != "" {
			b = append(b, '{')
			b = append(b, pair...)
			if pair != "" && extra != "" {
				b = append(b, ',')
			}
			b = append(b, extra...)
			b = append(b, '}')
		}
		b = append(b, ' ')
		return b
	}
	m := f.child(labelValue)
	switch m := m.(type) {
	case *Counter:
		b = name("", "")
		b = strconv.AppendInt(b, m.Value(), 10)
		b = append(b, '\n')
	case *Gauge:
		b = name("", "")
		b = strconv.AppendInt(b, m.Value(), 10)
		b = append(b, '\n')
	case *FloatCounter:
		b = name("", "")
		b = strconv.AppendFloat(b, m.Value(), 'g', -1, 64)
		b = append(b, '\n')
	case *Histogram:
		cum := int64(0)
		for i, bound := range m.bounds {
			cum += m.counts[i].Load()
			b = name("_bucket", `le="`+strconv.FormatFloat(bound, 'g', -1, 64)+`"`)
			b = strconv.AppendInt(b, cum, 10)
			b = append(b, '\n')
		}
		cum += m.counts[len(m.bounds)].Load()
		b = name("_bucket", `le="+Inf"`)
		b = strconv.AppendInt(b, cum, 10)
		b = append(b, '\n')
		b = name("_sum", "")
		b = strconv.AppendFloat(b, m.Sum(), 'g', -1, 64)
		b = append(b, '\n')
		b = name("_count", "")
		b = strconv.AppendInt(b, m.Count(), 10)
		b = append(b, '\n')
	}
	return b
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}
