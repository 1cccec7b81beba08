package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one wall-clock interval the benchmark recorded around a call
// into a layer. parent is the id of the span that caused it (0 = root).
type span struct {
	id, parent int
	cat, name  string
	start, end time.Time
}

// spanLog keeps a traced run's spans in memory until the run ends. A nil
// *spanLog records nothing, so untraced runs pass nil and pay one branch.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	seeds atomic.Int64
}

// maxSeedSpans bounds the seed spans kept: the workload's own campaigns,
// which run first, fit; the sweep of microsecond scenarios would add
// hundreds of thousands.
const maxSeedSpans = 20000

// seedRoom reports whether one more seed span may be recorded.
func (l *spanLog) seedRoom() bool {
	return l != nil && l.seeds.Add(1) <= maxSeedSpans
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its id; end closes it.
func (l *spanLog) begin(cat, name string, parent int) int {
	if l == nil {
		return 0
	}
	return l.add(cat, name, parent, time.Now(), time.Time{})
}

func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	now := time.Now()
	l.mu.Lock()
	l.spans[id-1].end = now
	l.mu.Unlock()
}

// add records a span (end may be zero for one still open) and returns its id.
func (l *spanLog) add(cat, name string, parent int, start, end time.Time) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{id: id, parent: parent, cat: cat, name: name, start: start, end: end})
	return id
}

// chromeEvent is one complete ("X") event of the Chrome trace_event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// write saves the spans as one Chrome trace (Perfetto, chrome://tracing).
// Spans that overlap without nesting, such as seeds running on different
// workers, are put on separate lanes (tid), because the viewers require the
// events of one lane to nest.
func (l *spanLog) write(path string) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	spans := append([]span(nil), l.spans...)
	l.mu.Unlock()
	for i := range spans {
		if spans[i].end.IsZero() {
			spans[i].end = spans[i].start
		}
	}
	sort.SliceStable(spans, func(i, j int) bool {
		if !spans[i].start.Equal(spans[j].start) {
			return spans[i].start.Before(spans[j].start)
		}
		return spans[i].end.After(spans[j].end)
	})
	var lanes [][]span // per lane, the stack of spans still open
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		lane := -1
		for i := range lanes {
			stack := lanes[i]
			for len(stack) > 0 && !stack[len(stack)-1].end.After(s.start) {
				stack = stack[:len(stack)-1]
			}
			lanes[i] = stack
			if len(stack) == 0 || !s.end.After(stack[len(stack)-1].end) {
				lane = i
				break
			}
		}
		if lane < 0 {
			lanes = append(lanes, nil)
			lane = len(lanes) - 1
		}
		lanes[lane] = append(lanes[lane], s)
		events = append(events, chromeEvent{
			Name: s.name, Cat: s.cat, Ph: "X",
			Ts:  float64(s.start.Sub(l.t0).Nanoseconds()) / 1e3,
			Dur: float64(s.end.Sub(s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: lane + 1,
			Args: map[string]int{"id": s.id, "parent": s.parent},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	err = json.NewEncoder(bw).Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"})
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
