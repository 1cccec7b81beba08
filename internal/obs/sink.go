package obs

import (
	"bytes"
	"io"
	"strconv"
	"sync"
	"time"
)

// TraceWriter is a Tracer that serialises events to an io.Writer as a
// Chrome trace_event JSON array (NewChrome). All formatting is
// hand-rolled integer/string work — no maps, no reflection — so the same
// event sequence always produces the same bytes.
//
// Close terminates the array and reports the first write error
// encountered; a TraceWriter must be Closed to produce a valid trace.
type TraceWriter struct {
	mu      sync.Mutex
	w       io.Writer
	pid     int64
	events  int
	base    time.Time // first emission's virtual time; Chrome ts are relative to it
	haveT0  bool
	scratch []byte
	err     error
	closed  bool
}

// NewChrome returns a TraceWriter emitting the Chrome trace_event array
// format understood by Perfetto and chrome://tracing. pid labels every
// event's process id (the serve path uses the run's seed so a combined
// job trace shows one process lane per seed). Timestamps are microseconds
// (with nanosecond fractions) relative to the writer's first event, which
// keeps them inside double precision for viewers.
func NewChrome(w io.Writer, pid int64) *TraceWriter {
	return &TraceWriter{w: w, pid: pid, scratch: make([]byte, 0, 256)}
}

// Enabled always reports true: a constructed TraceWriter records.
func (t *TraceWriter) Enabled() bool { return true }

// Event records an instant event at virtual time at.
func (t *TraceWriter) Event(at time.Time, cat, name, detail string) {
	t.emit(at, at, cat, name, detail, false)
}

// Span records a completed interval [from, to].
func (t *TraceWriter) Span(from, to time.Time, cat, name, detail string) {
	t.emit(from, to, cat, name, detail, true)
}

func (t *TraceWriter) emit(from, to time.Time, cat, name, detail string, span bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || t.err != nil {
		return
	}
	if !t.haveT0 {
		t.base, t.haveT0 = from, true
	}
	b := t.scratch[:0]
	if t.events == 0 {
		b = append(b, "[\n"...)
	} else {
		b = append(b, ",\n"...)
	}
	b = append(b, `{"name":`...)
	b = appendJSONString(b, name)
	b = append(b, `,"cat":`...)
	b = appendJSONString(b, cat)
	if span {
		b = append(b, `,"ph":"X","ts":`...)
		b = appendMicros(b, from.Sub(t.base))
		b = append(b, `,"dur":`...)
		b = appendMicros(b, to.Sub(from))
	} else {
		b = append(b, `,"ph":"i","s":"t","ts":`...)
		b = appendMicros(b, from.Sub(t.base))
	}
	b = append(b, `,"pid":`...)
	b = strconv.AppendInt(b, t.pid, 10)
	b = append(b, `,"tid":0`...)
	if detail != "" {
		b = append(b, `,"args":{"detail":`...)
		b = appendJSONString(b, detail)
		b = append(b, '}')
	}
	b = append(b, '}')
	t.scratch = b[:0]
	t.events++
	if _, err := t.w.Write(b); err != nil {
		t.err = err
	}
}

// Close terminates the output (writing the array's closing bracket, or
// "[]" if no events were recorded) and returns the first write error.
// Close is idempotent.
func (t *TraceWriter) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return t.err
	}
	t.closed = true
	if t.err == nil {
		var tail []byte
		if t.events == 0 {
			tail = []byte("[]\n")
		} else {
			tail = []byte("\n]\n")
		}
		if _, err := t.w.Write(tail); err != nil {
			t.err = err
		}
	}
	return t.err
}

// MergeChrome combines per-seed Chrome trace arrays (each produced by a
// closed NewChrome TraceWriter) into a single trace_event array. Parts
// with no events contribute nothing. The inputs must be in the exact
// format TraceWriter emits; the merge is deterministic in the order the
// parts are given.
func MergeChrome(parts ...[]byte) []byte {
	var bodies [][]byte
	for _, p := range parts {
		body := bytes.TrimSuffix(bytes.TrimSpace(p), []byte("]"))
		body = bytes.TrimPrefix(body, []byte("["))
		body = bytes.TrimSpace(body)
		if len(body) == 0 {
			continue
		}
		bodies = append(bodies, body)
	}
	out := []byte("[\n")
	if len(bodies) == 0 {
		return []byte("[]\n")
	}
	out = append(out, bytes.Join(bodies, []byte(",\n"))...)
	out = append(out, "\n]\n"...)
	return out
}

// appendMicros appends d as a microsecond count with a fixed 3-digit
// nanosecond fraction ("12.345"), handling negative durations.
func appendMicros(b []byte, d time.Duration) []byte {
	n := int64(d)
	if n < 0 {
		b = append(b, '-')
		n = -n
	}
	b = strconv.AppendInt(b, n/1000, 10)
	b = append(b, '.')
	frac := n % 1000
	b = append(b, byte('0'+frac/100), byte('0'+frac/10%10), byte('0'+frac%10))
	return b
}

// appendJSONString appends s as a JSON string literal, escaping quotes,
// backslashes and control characters. Valid UTF-8 passes through.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c == '\n':
			b = append(b, '\\', 'n')
		case c == '\t':
			b = append(b, '\\', 't')
		case c < 0x20:
			const hex = "0123456789abcdef"
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}
