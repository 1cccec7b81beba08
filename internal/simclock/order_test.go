package simclock

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"
	"time"
)

// recurringDelays are the delays FuzzClockOrder draws most often: more
// distinct values than the clock gives lanes, so some recurring delays
// share the heap with the one-off ones.
var recurringDelays = func() []time.Duration {
	ds := []time.Duration{0, time.Nanosecond, time.Millisecond, 10 * time.Millisecond, time.Second, 20 * time.Second, 30 * time.Second, 64 * time.Second}
	for i := range maxLanes + 8 {
		ds = append(ds, time.Duration(i+1)*1234567*time.Nanosecond)
	}
	return ds
}()

// tickIntervals are the Ticker intervals FuzzClockOrder uses: positive and
// long enough that a RunUntil window fires each ticker a bounded number of
// times.
var tickIntervals = []time.Duration{time.Second, 5 * time.Second, 30 * time.Second, 64 * time.Second}

// maxTickers bounds the tickers one FuzzClockOrder input starts.
const maxTickers = 8

// refEvent is one event of the reference queue.
type refEvent struct {
	at        int64
	seq       uint64
	id        int // what the fire records
	child     time.Duration
	spawns    bool
	ticker    *refTicker
	cancelled bool
	fired     bool
}

type refTicker struct {
	interval time.Duration
	id       int
	pending  *refEvent
	stopped  bool
}

// refClock is a deliberately naive model of Clock: a list of every queued
// event, the earliest found by a scan over (at, seq). Its RunUntil checks
// the earliest queued event, cancelled or not, as Clock's does, so a
// cancelled event at or before the deadline lets the next live one fire
// even when it lies past the deadline.
type refClock struct {
	now    int64
	seq    uint64
	queue  []*refEvent
	fires  []fire
	nextID int
}

// fire is one executed event: what it records and when it ran.
type fire struct {
	id int
	at int64
}

func (r *refClock) schedule(d time.Duration, id int) *refEvent {
	if d < 0 {
		d = 0
	}
	ev := &refEvent{at: r.now + int64(d), seq: r.seq, id: id}
	r.seq++
	r.queue = append(r.queue, ev)
	return ev
}

// earliest returns the queue index of the earliest event, or -1.
func (r *refClock) earliest() int {
	m := -1
	for i, ev := range r.queue {
		if m < 0 || ev.at < r.queue[m].at || ev.at == r.queue[m].at && ev.seq < r.queue[m].seq {
			m = i
		}
	}
	return m
}

func (r *refClock) step() bool {
	for {
		i := r.earliest()
		if i < 0 {
			return false
		}
		ev := r.queue[i]
		r.queue = slices.Delete(r.queue, i, i+1)
		if ev.cancelled {
			continue
		}
		ev.fired = true
		r.now = ev.at
		r.fires = append(r.fires, fire{ev.id, ev.at})
		if ev.spawns {
			r.schedule(ev.child, ev.id+1_000_000)
		}
		if t := ev.ticker; t != nil && !t.stopped {
			t.pending = r.schedule(t.interval, t.id)
			t.pending.ticker = t
		}
		return true
	}
}

func (r *refClock) runUntil(deadline int64) {
	for {
		i := r.earliest()
		if i < 0 || r.queue[i].at > deadline {
			r.now = max(r.now, deadline)
			return
		}
		r.step()
	}
}

func (r *refClock) len() int {
	n := 0
	for _, ev := range r.queue {
		if !ev.cancelled {
			n++
		}
	}
	return n
}

// fuzzOps reads FuzzClockOrder's input: one operation per step, each
// taking its arguments from the following bytes.
type fuzzOps struct{ data []byte }

func (o *fuzzOps) byte() byte {
	if len(o.data) == 0 {
		return 0
	}
	b := o.data[0]
	o.data = o.data[1:]
	return b
}

// delay returns a recurring delay three times in four, otherwise a
// one-off delay of up to about 17 minutes.
func (o *fuzzOps) delay() time.Duration {
	b := o.byte()
	if b < 192 {
		return recurringDelays[int(b)%len(recurringDelays)]
	}
	var w [4]byte
	for i := range w {
		w[i] = o.byte()
	}
	return time.Duration(binary.BigEndian.Uint32(w[:])&0x3fffffff) * time.Microsecond
}

// FuzzClockOrder drives Clock with a call sequence decoded from the input
// (Schedule, ScheduleInto, After, AfterArg, ScheduleAt, Tick, Timer.Stop,
// Ticker.Stop, Step, RunUntil and Reset, with fired events scheduling
// children) and checks every fire, every Step and Stop result, Len and Now
// against refClock after each call.
func FuzzClockOrder(f *testing.F) {
	// A stopped timer at 1 s is the earliest event when RunUntil(5 s)
	// looks, so the 20 s timer behind it fires.
	f.Add([]byte{0, 4, 0, 0, 5, 0, 6, 0, 9, 10})
	f.Add([]byte{0, 3, 0, 3, 0, 3, 1, 10, 8, 0})
	f.Add([]byte{5, 1, 0, 200, 1, 2, 3, 4, 2, 6, 6, 0, 9, 40, 7, 0, 8, 0})
	f.Add([]byte{0, 5, 0, 5, 0, 5, 0, 5, 6, 0, 9, 2, 10, 9, 200, 0})
	// Every recurring delay twice, so the lanes run out, then a run, two
	// steps, a Reset and the same again on the reset clock.
	var seed []byte
	for range 2 {
		for i := range recurringDelays {
			seed = append(seed, 2, byte(i), 0)
		}
	}
	seed = append(seed, 9, 255, 8, 8, 10, 0)
	f.Add(append(seed, seed...))
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := &fuzzOps{data: data}
		c := New(t0)
		ref := &refClock{now: t0.UnixNano()}
		var fires []fire
		checked := 0 // fires already compared with ref's
		record := func(id int) func() {
			return func() { fires = append(fires, fire{id, c.Now().UnixNano()}) }
		}
		type timer struct {
			tm  *Timer
			ref *refEvent
		}
		type ticker struct {
			tk  *Ticker
			ref *refTicker
		}
		var timers []timer
		var tickers []ticker
		var into Timer
		var intoRef *refEvent
		// schedule queues one event on both clocks; a spawning event
		// schedules a child with its own delay when it fires.
		schedule := func(kind byte, d time.Duration, spawns bool, child time.Duration) {
			ref.nextID++
			id := ref.nextID
			fn := record(id)
			if spawns {
				fn = func() {
					record(id)()
					c.After(child, record(id+1_000_000))
				}
			}
			var ev *refEvent
			switch kind % 4 {
			case 0:
				tm := c.Schedule(d, fn)
				ev = ref.schedule(d, id)
				timers = append(timers, timer{tm, ev})
			case 1:
				c.ScheduleInto(&into, d, fn)
				ev = ref.schedule(d, id)
				intoRef = ev
			case 2:
				c.After(d, fn)
				ev = ref.schedule(d, id)
			case 3:
				c.AfterArg(d, func(any) { fn() }, nil)
				ev = ref.schedule(d, id)
			}
			ev.spawns, ev.child = spawns, child
		}
		for steps := 0; len(ops.data) > 0 && steps < 1024; steps++ {
			switch op := ops.byte() % 11; op {
			case 0, 1, 2, 3:
				d := ops.delay()
				spawns := ops.byte()&1 != 0
				var child time.Duration
				if spawns {
					child = ops.delay()
				}
				schedule(op, d, spawns, child)
			case 4:
				// ScheduleAt up to a minute before or after now.
				off := time.Duration(int8(ops.byte())) * 500 * time.Millisecond
				at := c.Now().Add(off)
				ref.nextID++
				id := ref.nextID
				tm := c.ScheduleAt(at, record(id))
				timers = append(timers, timer{tm, ref.schedule(off, id)})
			case 5:
				if len(tickers) == maxTickers {
					continue
				}
				iv := tickIntervals[int(ops.byte())%len(tickIntervals)]
				ref.nextID++
				id := ref.nextID
				tk := c.Tick(iv, record(id))
				rt := &refTicker{interval: iv, id: id}
				rt.pending = ref.schedule(iv, id)
				rt.pending.ticker = rt
				tickers = append(tickers, ticker{tk, rt})
			case 6:
				// The last index stands for the ScheduleInto timer.
				tm := timer{&into, intoRef}
				if k := int(ops.byte()) % (len(timers) + 1); k < len(timers) {
					tm = timers[k]
				}
				want := tm.ref != nil && !tm.ref.cancelled && !tm.ref.fired
				if got := tm.tm.Stop(); got != want {
					t.Fatalf("step %d: Timer.Stop = %t, want %t", steps, got, want)
				}
				if want {
					tm.ref.cancelled = true
				}
			case 7:
				if len(tickers) == 0 {
					continue
				}
				tk := tickers[int(ops.byte())%len(tickers)]
				tk.tk.Stop()
				tk.ref.stopped = true
				if ev := tk.ref.pending; ev != nil && !ev.fired {
					ev.cancelled = true
				}
			case 8:
				if got, want := c.Step(), ref.step(); got != want {
					t.Fatalf("step %d: Step = %t, want %t", steps, got, want)
				}
			case 9:
				d := time.Duration(ops.byte()) * 500 * time.Millisecond
				deadline := c.Now().Add(d)
				c.RunUntil(deadline)
				ref.runUntil(deadline.UnixNano())
			case 10:
				start := t0.Add(time.Duration(ops.byte()) * time.Hour)
				c.Reset(start)
				// Every queued event is dropped: handles to them stop
				// nothing, and no ticker re-arms.
				for _, ev := range ref.queue {
					ev.fired = true
				}
				for _, tk := range tickers {
					tk.ref.stopped = true
				}
				*ref = refClock{now: start.UnixNano(), fires: ref.fires, nextID: ref.nextID}
			}
			if !slices.Equal(fires[checked:], ref.fires[checked:]) {
				t.Fatalf("step %d: fires\n%v\nwant\n%v", steps, fires[checked:], ref.fires[checked:])
			}
			checked = len(fires)
			if got, want := c.Len(), ref.len(); got != want {
				t.Fatalf("step %d: Len = %d, want %d", steps, got, want)
			}
			if got := c.Now().UnixNano(); got != ref.now {
				t.Fatalf("step %d: Now = %d, want %d", steps, got, ref.now)
			}
		}
		// Drain what is left, tickers stopped, so the tail order is
		// checked too.
		for _, tk := range tickers {
			tk.tk.Stop()
			tk.ref.stopped = true
			if ev := tk.ref.pending; ev != nil && !ev.fired {
				ev.cancelled = true
			}
		}
		for c.Step() {
			ref.step()
		}
		if ref.step() || !slices.Equal(fires[checked:], ref.fires[checked:]) {
			t.Fatalf("drain: fires\n%v\nwant\n%v", fires[checked:], ref.fires[checked:])
		}
	})
}

// BenchmarkDispatch measures one schedule plus one fire with depth events
// pending, the delays either cycling through four recurring values (every
// event in a lane) or all distinct (every event in the heap).
func BenchmarkDispatch(b *testing.B) {
	for _, recurring := range []bool{true, false} {
		for _, depth := range []int{40, 300} {
			name := fmt.Sprintf("one-off/depth=%d", depth)
			if recurring {
				name = fmt.Sprintf("recurring/depth=%d", depth)
			}
			b.Run(name, func(b *testing.B) {
				c := New(t0)
				recur := []time.Duration{time.Millisecond, 10 * time.Millisecond, 30 * time.Second, 20 * time.Second}
				var i int64
				delay := func() time.Duration {
					i++
					if recurring {
						return recur[i%4]
					}
					return time.Duration(i%7919+1)*time.Millisecond + time.Duration(i)
				}
				fn := func() {}
				for range depth {
					c.After(delay(), fn)
				}
				for b.Loop() {
					c.After(delay(), fn)
					c.Step()
				}
			})
		}
	}
}

// TestLanesBounded: however many delays recur, at most maxLanes get a
// lane, the rest queue in the heap, and events still fire in (time,
// sequence) order. Reset forgets every lane and every seen delay.
func TestLanesBounded(t *testing.T) {
	c := New(t0)
	var fired []time.Time
	// Each delay is used twice in a row, so it is admitted on its second
	// use while lanes remain, whatever delays share its slot.
	for i := range 2 * maxLanes {
		for range 3 {
			c.After(time.Duration(2*maxLanes-i)*time.Millisecond, func() { fired = append(fired, c.Now()) })
		}
	}
	if len(c.lanes) != maxLanes {
		t.Errorf("%d lanes, want %d", len(c.lanes), maxLanes)
	}
	c.Run()
	if len(fired) != 6*maxLanes || !slices.IsSortedFunc(fired, time.Time.Compare) {
		t.Errorf("fired %d events out of order: %v", len(fired), fired)
	}
	c.Reset(t0)
	fresh := New(t0)
	if len(c.lanes) != 0 || c.delays != fresh.delays || len(c.events) != 0 || c.seq != 0 {
		t.Errorf("Reset left %d lanes, %d heap nodes, seq %d, or seen delays behind", len(c.lanes), len(c.events), c.seq)
	}
}
