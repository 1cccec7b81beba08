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
// a per-clock free list, and the After/AfterArg entry points schedule
// without allocating a Timer handle — the campaign engine's packet-delivery
// hot path schedules millions of events per second through them. Time runs
// on integer nanoseconds: an event slot holds only its callback, and its
// (nanosecond, sequence) key lives in the queue's nodes, so scheduling
// computes no time.Time. Now builds the time.Time when it is read, as the
// start time (or the last RunUntil deadline) advanced by the nanoseconds
// run since: the same value, location included, that adding up each
// event's delay would give.
//
// A simulation schedules most of its events with a few recurring delays
// (link latency, poll intervals, reassembly timeouts). An event whose delay
// recurs joins a FIFO lane for that delay: the clock never moves backwards
// and sequence numbers only grow, so appending now+d keeps each lane sorted
// by (timestamp, sequence) at no cost. Only the head of each non-empty lane
// competes in a 4-ary min-heap, beside the events whose delays do not
// recur, so the heap stays a few nodes deep however many events are
// pending. Execution order is the same (timestamp, sequence) total order
// whichever structure holds an event.
package simclock

import (
	"strconv"
	"time"

	"dnstime/internal/obs"
)

// Clock is a virtual time source and event scheduler. The zero value is not
// usable; construct with New.
type Clock struct {
	nowN   int64      // the current time in Unix nanoseconds, the heap ordering key
	nowAt  int64      // the nowN at which nowT was last brought up to date
	nowT   time.Time  // the current time as of nowAt; Now advances it lazily
	events []heapNode // 4-ary min-heap: one-off events and the head of each non-empty lane
	lanes  []lane     // FIFO lanes, one per admitted recurring delay
	seq    uint64
	arena  []event               // every event slot this clock has ever allocated
	free   []int32               // recycled arena slots (fired or cancelled events)
	onFire FireHook              // observability hook; nil (the default) costs one branch
	delays [delaySlots]delaySlot // delays seen, for lane admission; last, off the hot fields' cache lines
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
	c := &Clock{}
	c.setNow(start)
	return c
}

// setNow makes t the current time.
func (c *Clock) setNow(t time.Time) {
	c.nowT = t
	c.nowN = t.UnixNano()
	c.nowAt = c.nowN
}

// Reset drops every pending event and rewinds the clock to start, keeping
// the allocated event-queue capacity. It is the lab pool's hard-reset hook:
// a reset clock is indistinguishable from New(start) to every scheduler
// client — no lane is admitted and no delay remembered — while reusing the
// heap, lane and free-list storage warmed up by the previous run.
func (c *Clock) Reset(start time.Time) {
	for _, n := range c.events {
		if n.lane == 0 {
			c.recycleEvent(n.idx)
		}
	}
	c.events = c.events[:0]
	for i := range c.lanes {
		for l := &c.lanes[i]; l.n > 0; {
			c.recycleEvent(l.pop().idx)
		}
	}
	c.lanes = c.lanes[:0]
	c.delays = [delaySlots]delaySlot{}
	c.seq = 0
	c.setNow(start)
	c.onFire = nil
}

// Now returns the current virtual time: the start time advanced by every
// delay the clock has run through since, or the last RunUntil deadline
// advanced likewise. Small enough to inline; catchUp, out of line, does
// the time.Time arithmetic once per instant that is read. Since that
// updates the clock, Now too belongs to the clock's one goroutine.
func (c *Clock) Now() time.Time {
	if c.nowN != c.nowAt {
		c.catchUp()
	}
	return c.nowT
}

// catchUp advances nowT to nowN. It is kept out of line so that Now,
// which calls it only when the clock has moved since the last read,
// inlines.
//
//go:noinline
func (c *Clock) catchUp() {
	c.nowT = c.nowT.Add(time.Duration(c.nowN - c.nowAt))
	c.nowAt = c.nowN
}

// Len reports the number of pending (non-cancelled) events.
func (c *Clock) Len() int {
	n := 0
	for _, node := range c.events {
		if node.lane == 0 && !c.arena[node.idx].cancelled {
			n++
		}
	}
	for i := range c.lanes {
		l := &c.lanes[i]
		for j := range l.n {
			if !c.arena[l.at(j).idx].cancelled {
				n++
			}
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
}

// Stop cancels the timer. It reports whether the event was still pending
// (i.e. had not fired and had not already been stopped). A fired event's
// slot has moved to a later generation before its callback runs, so the
// handle no longer matches it.
func (t *Timer) Stop() bool {
	if t == nil || t.clock == nil {
		return false
	}
	ev := &t.clock.arena[t.idx]
	if ev.gen != t.gen || ev.cancelled {
		return false
	}
	ev.cancelled = true
	return true
}

// Schedule runs fn after delay d of virtual time. A non-positive delay
// schedules fn at the current instant; it still runs through the event loop,
// after any event currently executing returns. Prefer After when the caller
// never stops the event: it schedules without allocating a Timer.
func (c *Clock) Schedule(d time.Duration, fn func()) *Timer {
	idx := c.scheduleEvent(d, fn, nil, nil)
	return &Timer{clock: c, idx: idx, gen: c.arena[idx].gen}
}

// ScheduleInto arms the caller-owned Timer t to run fn after delay d,
// overwriting whatever t previously held (the caller stops any prior
// pending arm itself). Pooled objects embed a Timer value and re-arm
// through here without allocating a handle per schedule.
func (c *Clock) ScheduleInto(t *Timer, d time.Duration, fn func()) {
	idx := c.scheduleEvent(d, fn, nil, nil)
	*t = Timer{clock: c, idx: idx, gen: c.arena[idx].gen}
}

// ScheduleAt runs fn at virtual time t. Times in the past are clamped to the
// current instant.
func (c *Clock) ScheduleAt(t time.Time, fn func()) *Timer {
	d := t.Sub(c.Now())
	idx := c.scheduleEvent(d, fn, nil, nil)
	return &Timer{clock: c, idx: idx, gen: c.arena[idx].gen}
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
	ev.fn = fn
	ev.argFn = argFn
	ev.arg = arg
	ev.cancelled = false
	n := heapNode{atN: c.nowN + int64(d), seq: c.seq, idx: idx}
	c.seq++
	// A lane only takes an event whose timestamp did not overflow, so
	// every lane stays sorted.
	if k := c.laneFor(int64(d)); k > 0 && n.atN >= c.nowN {
		l := &c.lanes[k-1]
		l.push(n)
		if l.n == 1 {
			n.lane = k
			c.heapPush(n)
		}
		return idx
	}
	c.heapPush(n)
	return idx
}

// laneFor returns 1 + the index of the lane for delay d, or 0: the event
// goes to the heap. A delay is remembered in the table of seen delays when
// first used and admitted to a lane on its next use, while fewer than
// maxLanes are taken. A lookup starts at the delay's hash and steps over
// the slots of other delays' lanes to the first slot that holds no lane:
// there it finds the delay remembered, or remembers it in place of
// whatever delay was there. Lanes keep their slots until Reset, so a
// delay's lane lies on its path before any slot without one.
func (c *Clock) laneFor(d int64) int32 {
	// Delays are round numbers of nanoseconds, rich in trailing zero
	// bits, so fold high bits down before the multiplicative hash.
	h := uint64(d)
	h ^= h >> 25
	i := h * 0x9E3779B97F4A7C15 >> (64 - delaySlotBits)
	s := &c.delays[i]
	for s.lane > 0 {
		if s.d == d {
			return s.lane
		}
		i = (i + 1) % delaySlots
		s = &c.delays[i]
	}
	if s.d != d || s.lane == 0 {
		s.d, s.lane = d, -1
		return 0
	}
	if len(c.lanes) == maxLanes {
		return 0
	}
	if len(c.lanes) < cap(c.lanes) {
		c.lanes = c.lanes[:len(c.lanes)+1] // reuse the ring of a lane dropped by Reset
	} else {
		c.lanes = append(c.lanes, lane{})
	}
	s.lane = int32(len(c.lanes))
	return s.lane
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
	t := &Ticker{}
	c.TickInto(t, interval, fn)
	return t
}

// TickInto starts the caller-owned Ticker t as Tick starts a new one,
// stopping whatever t ran before. Pooled objects embed a Ticker value
// and restart it through here: its re-arm callback is bound on the first
// start only, so a restart allocates nothing.
func (c *Clock) TickInto(t *Ticker, interval time.Duration, fn func()) {
	t.Stop()
	if t.run == nil {
		t.run = t.fire
	}
	t.clock, t.interval, t.fn = c, interval, fn
	t.armed, t.stopped = false, false
	t.arm()
}

// fire runs the ticker's callback and re-arms it.
func (t *Ticker) fire() {
	t.fn()
	t.arm()
}

func (t *Ticker) arm() {
	if t.stopped {
		return
	}
	idx := t.clock.scheduleEvent(t.interval, t.run, nil, nil)
	t.idx, t.gen, t.armed = idx, t.clock.arena[idx].gen, true
}

// Stop cancels the ticker; no further callbacks run. Stopping a zero
// Ticker does nothing.
func (t *Ticker) Stop() {
	t.stopped = true
	if !t.armed {
		return
	}
	if ev := &t.clock.arena[t.idx]; ev.gen == t.gen {
		ev.cancelled = true
	}
}

// Step executes the earliest pending event, advancing the clock to its
// timestamp. It reports whether an event was executed.
func (c *Clock) Step() bool {
	for len(c.events) > 0 {
		n := c.popMin()
		ev := &c.arena[n.idx]
		if ev.cancelled {
			c.recycleEvent(n.idx)
			continue
		}
		c.nowN = n.atN
		fn, argFn, arg := ev.fn, ev.argFn, ev.arg
		if c.onFire != nil {
			c.onFire(c.Now(), n.seq)
		}
		c.recycleEvent(n.idx)
		if fn != nil {
			fn()
		} else if argFn != nil {
			argFn(arg)
		}
		return true
	}
	return false
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
			if c.Now().Before(deadline) {
				c.setNow(deadline)
			}
			return
		}
		c.Step()
	}
}

// event is one arena slot: the callback and its handle state. Its key,
// (timestamp, sequence), is kept in the heap or lane node that queues it.
type event struct {
	fn        func()
	argFn     func(any)
	arg       any
	gen       uint64 // bumped on recycle, before the callback runs; stale handles no-op
	cancelled bool
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
	atN  int64
	seq  uint64
	idx  int32
	lane int32 // in the heap: 1 + the index of the lane this node heads, or 0
}

// maxLanes bounds how many recurring delays get a lane; later ones share
// the heap with the one-off delays. A lane costs little while it is empty,
// and a long simulation uses a few dozen recurring delays, some only after
// its first phase.
const maxLanes = 64

// delaySlotBits sizes the table of seen delays that admits lanes. With
// four times as many slots as lanes, a lookup rarely steps over a lane.
const (
	delaySlotBits = 8
	delaySlots    = 1 << delaySlotBits
)

// delaySlot remembers one delay: lane is 1 + its lane index once admitted,
// -1 while the delay has been used once, and 0 for an empty slot.
type delaySlot struct {
	d    int64
	lane int32
}

// lane is a FIFO of the pending events of one delay, in a ring whose
// length is zero or a power of two. Pushes arrive in (timestamp, sequence)
// order, so the head is always the lane's earliest event.
type lane struct {
	ring []heapNode
	head int // ring index of the earliest node
	n    int // nodes queued
}

// at returns the j-th queued node, 0 being the head.
func (l *lane) at(j int) heapNode { return l.ring[(l.head+j)&(len(l.ring)-1)] }

func (l *lane) push(n heapNode) {
	if l.n == len(l.ring) {
		ring := make([]heapNode, max(8, 2*len(l.ring)))
		for j := range l.n {
			ring[j] = l.at(j)
		}
		l.ring, l.head = ring, 0
	}
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = n
	l.n++
}

// pop removes and returns the head node.
func (l *lane) pop() heapNode {
	n := l.ring[l.head]
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	return n
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

// heapPush inserts a node into the 4-ary min-heap. A 4-ary layout halves
// the tree depth of a binary heap and keeps sibling comparisons within one
// or two cache lines of the node array.
func (c *Clock) heapPush(n heapNode) {
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

// popMin removes and returns the node of the earliest event. The caller
// must have checked len(c.events) > 0. When the earliest event heads a
// lane, the lane's next event takes its place at the top of the heap.
func (c *Clock) popMin() heapNode {
	h := c.events
	top := h[0]
	if top.lane > 0 {
		l := &c.lanes[top.lane-1]
		if l.pop(); l.n > 0 {
			next := l.at(0)
			next.lane = top.lane
			c.siftDown(next)
			return top
		}
	}
	n := len(h) - 1
	last := h[n]
	c.events = h[:n]
	if n > 0 {
		c.siftDown(last)
	}
	return top
}

// siftDown puts node at the root of the heap in place of the node there
// and moves it down to its ordered position.
func (c *Clock) siftDown(node heapNode) {
	h := c.events
	n := len(h)
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
		if !h[m].less(node) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = node
}
