// Package simclock provides a deterministic virtual clock with a
// discrete-event scheduler. Every component of the simulated internetwork
// (NTP clients, DNS resolvers, attackers) schedules work on a shared Clock,
// which executes callbacks in strict timestamp order. This makes multi-hour
// attack experiments run in milliseconds and makes every run bit-for-bit
// reproducible.
//
// The scheduler is single-threaded by design: callbacks run inline on the
// goroutine that drives the clock (Step, Run, RunFor, RunUntil) and must not
// block. Callbacks may schedule further events, including events at the
// current instant, which execute before time advances. A Clock is NOT safe
// for concurrent use — every simulation owns its clock from exactly one
// goroutine, so the scheduler carries no locks on its hot path.
//
// The event queue is allocation-lean: fired and cancelled events return to
// a per-clock free list, the heap orders events by pre-computed integer
// nanosecond keys, and the After/AfterArg entry points schedule without
// allocating a Timer handle — the campaign engine's packet-delivery hot
// path schedules millions of events per second through them.
package simclock

import (
	"strconv"
	"time"

	"dnstime/internal/obs"
)

// Clock is a virtual time source and event scheduler. The zero value is not
// usable; construct with New.
type Clock struct {
	now    time.Time
	nowN   int64 // now.UnixNano(), the heap ordering key
	events []heapNode
	seq    uint64
	arena  []event  // every event slot this clock has ever allocated
	free   []int32  // recycled arena slots (fired or cancelled events)
	onFire FireHook // observability hook; nil (the default) costs one branch
}

// FireHook observes every event the clock executes, called from Step with
// the event's virtual timestamp and insertion sequence number immediately
// before the callback runs. Because execution order is the strict
// (timestamp, sequence) total order, the hook sees a deterministic stream
// for a deterministic simulation. The hook must not mutate the clock.
type FireHook func(at time.Time, seq uint64)

// SetFireHook installs (or with nil removes) the clock's fire hook.
// Reset clears it, like every other piece of run state.
func (c *Clock) SetFireHook(h FireHook) { c.onFire = h }

// TraceTo returns a fire hook that records every fire on tr as a "clock"
// "fire" event carrying the event's sequence number.
func TraceTo(tr obs.Tracer) FireHook {
	return func(at time.Time, seq uint64) {
		tr.Event(at, "clock", "fire", "seq="+strconv.FormatUint(seq, 10))
	}
}

// New returns a Clock whose current time is start.
func New(start time.Time) *Clock {
	return &Clock{now: start, nowN: start.UnixNano()}
}

// Reset drops every pending event and rewinds the clock to start, keeping
// the allocated event-queue capacity. It is the lab pool's hard-reset hook:
// a reset clock is indistinguishable from New(start) to every scheduler
// client, while reusing the heap and free-list storage warmed up by the
// previous run.
func (c *Clock) Reset(start time.Time) {
	for _, n := range c.events {
		c.recycleEvent(n.idx)
	}
	c.events = c.events[:0]
	c.seq = 0
	c.now = start
	c.nowN = start.UnixNano()
	c.onFire = nil
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Time { return c.now }

// Len reports the number of pending (non-cancelled) events.
func (c *Clock) Len() int {
	n := 0
	for _, node := range c.events {
		if !c.arena[node.idx].cancelled {
			n++
		}
	}
	return n
}

// Timer is a handle to a scheduled event. Stop cancels it. The handle
// addresses its event by arena slot, not pointer: the clock's event arena
// may move as it grows, and slot indices stay valid across both growth and
// recycling (the generation counter catches reuse).
type Timer struct {
	clock *Clock
	idx   int32
	gen   uint64
	at    time.Time
}

// Stop cancels the timer. It reports whether the event was still pending
// (i.e. had not fired and had not already been stopped).
func (t *Timer) Stop() bool {
	if t == nil || t.clock == nil {
		return false
	}
	ev := &t.clock.arena[t.idx]
	if ev.gen != t.gen || ev.cancelled || ev.fired {
		return false
	}
	ev.cancelled = true
	return true
}

// When returns the virtual time at which the timer fires.
func (t *Timer) When() time.Time { return t.at }

// Schedule runs fn after delay d of virtual time. A non-positive delay
// schedules fn at the current instant; it still runs through the event loop,
// after any event currently executing returns. Prefer After when the caller
// never stops the event: it schedules without allocating a Timer.
func (c *Clock) Schedule(d time.Duration, fn func()) *Timer {
	idx := c.scheduleEvent(d, fn, nil, nil)
	ev := &c.arena[idx]
	return &Timer{clock: c, idx: idx, gen: ev.gen, at: ev.at}
}

// ScheduleInto arms the caller-owned Timer t to run fn after delay d,
// overwriting whatever t previously held (the caller stops any prior
// pending arm itself). Pooled objects embed a Timer value and re-arm
// through here without allocating a handle per schedule.
func (c *Clock) ScheduleInto(t *Timer, d time.Duration, fn func()) {
	idx := c.scheduleEvent(d, fn, nil, nil)
	ev := &c.arena[idx]
	*t = Timer{clock: c, idx: idx, gen: ev.gen, at: ev.at}
}

// ScheduleAt runs fn at virtual time t. Times in the past are clamped to the
// current instant.
func (c *Clock) ScheduleAt(t time.Time, fn func()) *Timer {
	d := t.Sub(c.now)
	idx := c.scheduleEvent(d, fn, nil, nil)
	ev := &c.arena[idx]
	return &Timer{clock: c, idx: idx, gen: ev.gen, at: ev.at}
}

// After runs fn after delay d of virtual time, like Schedule, but returns no
// Timer handle: fire-and-forget events schedule with zero allocations once
// the clock's event free list is warm.
func (c *Clock) After(d time.Duration, fn func()) {
	c.scheduleEvent(d, fn, nil, nil)
}

// AfterArg runs fn(arg) after delay d of virtual time. Passing the state as
// an argument instead of closing over it lets hot paths (packet delivery)
// schedule with a static fn and a pooled arg — no closure allocation.
func (c *Clock) AfterArg(d time.Duration, fn func(any), arg any) {
	c.scheduleEvent(d, nil, fn, arg)
}

// scheduleEvent enqueues an event d from now in a recycled arena slot (or a
// freshly grown one) and returns its index. Negative delays clamp to the
// current instant.
func (c *Clock) scheduleEvent(d time.Duration, fn func(), argFn func(any), arg any) int32 {
	if d < 0 {
		d = 0
	}
	var idx int32
	if n := len(c.free); n > 0 {
		idx = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		c.arena = append(c.arena, event{})
		idx = int32(len(c.arena) - 1)
	}
	ev := &c.arena[idx]
	ev.at = c.now.Add(d)
	ev.atN = c.nowN + int64(d)
	ev.seq = c.seq
	ev.fn = fn
	ev.argFn = argFn
	ev.arg = arg
	ev.cancelled = false
	ev.fired = false
	c.seq++
	c.heapPush(ev.atN, ev.seq, idx)
	return idx
}

// recycleEvent returns a popped event slot to the free list, invalidating
// any outstanding Timer handles via the generation counter.
func (c *Clock) recycleEvent(idx int32) {
	ev := &c.arena[idx]
	ev.gen++
	ev.fn = nil
	ev.argFn = nil
	ev.arg = nil
	c.free = append(c.free, idx)
}

// Ticker repeatedly schedules a callback at a fixed virtual interval until
// stopped. Like the Clock that owns it, a Ticker is confined to the
// simulation's goroutine, so re-arming carries no lock.
type Ticker struct {
	clock    *Clock
	interval time.Duration
	fn       func()
	run      func()
	idx      int32
	gen      uint64
	armed    bool
	stopped  bool
}

// Tick schedules fn to run every interval of virtual time, with the first
// run one interval from now. Stop the returned Ticker to cancel. Re-arming
// reuses one closure and the clock's event free list, so a long-lived
// ticker allocates nothing per tick.
func (c *Clock) Tick(interval time.Duration, fn func()) *Ticker {
	t := &Ticker{clock: c, interval: interval, fn: fn}
	t.run = func() {
		t.fn()
		t.arm()
	}
	t.arm()
	return t
}

func (t *Ticker) arm() {
	if t.stopped {
		return
	}
	idx := t.clock.scheduleEvent(t.interval, t.run, nil, nil)
	t.idx, t.gen, t.armed = idx, t.clock.arena[idx].gen, true
}

// Stop cancels the ticker; no further callbacks run.
func (t *Ticker) Stop() {
	t.stopped = true
	if !t.armed {
		return
	}
	ev := &t.clock.arena[t.idx]
	if ev.gen == t.gen && !ev.cancelled && !ev.fired {
		ev.cancelled = true
	}
}

// Step executes the earliest pending event, advancing the clock to its
// timestamp. It reports whether an event was executed.
func (c *Clock) Step() bool {
	for {
		if len(c.events) == 0 {
			return false
		}
		idx := c.heapPopMin()
		ev := &c.arena[idx]
		if ev.cancelled {
			c.recycleEvent(idx)
			continue
		}
		ev.fired = true
		c.now = ev.at
		c.nowN = ev.atN
		fn, argFn, arg := ev.fn, ev.argFn, ev.arg
		if c.onFire != nil {
			c.onFire(ev.at, ev.seq)
		}
		c.recycleEvent(idx)
		if fn != nil {
			fn()
		} else if argFn != nil {
			argFn(arg)
		}
		return true
	}
}

// Run executes events until none remain. Use with care: self-rescheduling
// components (tickers, polling clients) never drain; prefer RunFor/RunUntil.
func (c *Clock) Run() {
	for c.Step() {
	}
}

// RunFor advances the clock by d, executing every event due in that window.
// The clock ends exactly at now+d even if no event lands there.
func (c *Clock) RunFor(d time.Duration) {
	c.RunUntil(c.Now().Add(d))
}

// RunUntil executes every event with timestamp ≤ deadline and then sets the
// clock to deadline.
func (c *Clock) RunUntil(deadline time.Time) {
	deadlineN := deadline.UnixNano()
	for {
		if len(c.events) == 0 || c.events[0].atN > deadlineN {
			if c.now.Before(deadline) {
				c.now = deadline
				c.nowN = deadlineN
			}
			return
		}
		c.Step()
	}
}

type event struct {
	at        time.Time
	atN       int64 // at.UnixNano(), the heap comparison key
	seq       uint64
	gen       uint64 // bumped on recycle; stale Timer handles no-op
	fn        func()
	argFn     func(any)
	arg       any
	cancelled bool
	fired     bool
}

// heapNode is one entry of the clock's priority queue. The ordering key
// (timestamp nanoseconds, insertion sequence) is stored inline so heap
// comparisons never dereference the event — the queue regularly holds tens
// of thousands of pending events during flood scenarios, and pointer-chasing
// comparisons dominated the campaign CPU profile. The event itself is
// addressed by arena slot: a pointer-free node means sift moves in push/pop
// skip the GC write barrier and the garbage collector never scans the heap
// array at all.
type heapNode struct {
	atN int64
	seq uint64
	idx int32
}

// less orders nodes by (timestamp, insertion sequence): deterministic FIFO
// behaviour for simultaneous events. (atN, seq) is a strict total order, so
// the popped minimum — and therefore execution order — is unique regardless
// of the heap's internal arrangement.
func (a heapNode) less(b heapNode) bool {
	if a.atN != b.atN {
		return a.atN < b.atN
	}
	return a.seq < b.seq
}

// heapPush inserts an event into the 4-ary min-heap. A 4-ary layout halves
// the tree depth of a binary heap and keeps sibling comparisons within one
// or two cache lines of the node array.
func (c *Clock) heapPush(atN int64, seq uint64, idx int32) {
	n := heapNode{atN: atN, seq: seq, idx: idx}
	h := append(c.events, n)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if h[p].less(n) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = n
	c.events = h
}

// heapPopMin removes and returns the arena slot of the earliest event. The
// caller must have checked len(c.events) > 0.
func (c *Clock) heapPopMin() int32 {
	h := c.events
	ev := h[0].idx
	n := len(h) - 1
	last := h[n]
	h = h[:n]
	c.events = h
	if n == 0 {
		return ev
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		m := first
		end := first + 4
		if end > n {
			end = n
		}
		for j := first + 1; j < end; j++ {
			if h[j].less(h[m]) {
				m = j
			}
		}
		if !h[m].less(last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = last
	return ev
}
