package simclock

import (
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

func TestNowStartsAtConstructionTime(t *testing.T) {
	c := New(t0)
	if !c.Now().Equal(t0) {
		t.Fatalf("Now() = %v, want %v", c.Now(), t0)
	}
}

func TestScheduleAdvancesClock(t *testing.T) {
	c := New(t0)
	var fired time.Time
	c.Schedule(5*time.Second, func() { fired = c.Now() })
	if !c.Step() {
		t.Fatal("Step returned false with a pending event")
	}
	want := t0.Add(5 * time.Second)
	if !fired.Equal(want) {
		t.Errorf("event fired at %v, want %v", fired, want)
	}
	if !c.Now().Equal(want) {
		t.Errorf("Now() = %v, want %v", c.Now(), want)
	}
}

func TestEventsExecuteInTimestampOrder(t *testing.T) {
	c := New(t0)
	var order []int
	c.Schedule(3*time.Second, func() { order = append(order, 3) })
	c.Schedule(1*time.Second, func() { order = append(order, 1) })
	c.Schedule(2*time.Second, func() { order = append(order, 2) })
	c.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSimultaneousEventsAreFIFO(t *testing.T) {
	c := New(t0)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.Schedule(time.Second, func() { order = append(order, i) })
	}
	c.Run()
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestTimerStopPreventsExecution(t *testing.T) {
	c := New(t0)
	fired := false
	tm := c.Schedule(time.Second, func() { fired = true })
	if !tm.Stop() {
		t.Fatal("Stop returned false for a pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop returned true")
	}
	c.Run()
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestStopAfterFireReturnsFalse(t *testing.T) {
	c := New(t0)
	tm := c.Schedule(time.Second, func() {})
	c.Run()
	if tm.Stop() {
		t.Error("Stop returned true after the event fired")
	}
}

func TestNegativeDelayClampedToNow(t *testing.T) {
	c := New(t0)
	var at time.Time
	c.Schedule(-time.Hour, func() { at = c.Now() })
	c.Run()
	if !at.Equal(t0) {
		t.Errorf("event fired at %v, want %v", at, t0)
	}
}

func TestScheduleAtPastClamped(t *testing.T) {
	c := New(t0)
	c.RunFor(10 * time.Second)
	var at time.Time
	c.ScheduleAt(t0, func() { at = c.Now() })
	c.Run()
	want := t0.Add(10 * time.Second)
	if !at.Equal(want) {
		t.Errorf("event fired at %v, want %v", at, want)
	}
}

func TestRunForEndsExactlyAtDeadline(t *testing.T) {
	c := New(t0)
	c.Schedule(time.Second, func() {})
	c.RunFor(10 * time.Second)
	want := t0.Add(10 * time.Second)
	if !c.Now().Equal(want) {
		t.Errorf("Now() = %v, want %v", c.Now(), want)
	}
}

func TestRunUntilExcludesLaterEvents(t *testing.T) {
	c := New(t0)
	early, late := false, false
	c.Schedule(time.Second, func() { early = true })
	c.Schedule(time.Minute, func() { late = true })
	c.RunUntil(t0.Add(30 * time.Second))
	if !early {
		t.Error("event within window did not fire")
	}
	if late {
		t.Error("event after deadline fired")
	}
	if c.Len() != 1 {
		t.Errorf("Len() = %d, want 1", c.Len())
	}
}

func TestEventAtExactDeadlineFires(t *testing.T) {
	c := New(t0)
	fired := false
	c.Schedule(time.Minute, func() { fired = true })
	c.RunUntil(t0.Add(time.Minute))
	if !fired {
		t.Error("event at exact deadline did not fire")
	}
}

func TestNestedSchedulingSameInstant(t *testing.T) {
	c := New(t0)
	var order []string
	c.Schedule(time.Second, func() {
		order = append(order, "outer")
		c.Schedule(0, func() { order = append(order, "inner") })
	})
	c.Schedule(2*time.Second, func() { order = append(order, "later") })
	c.Run()
	want := []string{"outer", "inner", "later"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestTickerFiresAtInterval(t *testing.T) {
	c := New(t0)
	var fires []time.Time
	tk := c.Tick(time.Minute, func() { fires = append(fires, c.Now()) })
	c.RunFor(5 * time.Minute)
	tk.Stop()
	c.RunFor(5 * time.Minute)
	if len(fires) != 5 {
		t.Fatalf("ticker fired %d times, want 5", len(fires))
	}
	for i, ft := range fires {
		want := t0.Add(time.Duration(i+1) * time.Minute)
		if !ft.Equal(want) {
			t.Errorf("fire %d at %v, want %v", i, ft, want)
		}
	}
}

func TestTickerStopIsIdempotent(t *testing.T) {
	c := New(t0)
	tk := c.Tick(time.Second, func() {})
	tk.Stop()
	tk.Stop()
	c.RunFor(10 * time.Second)
	if got := c.Len(); got != 0 {
		t.Errorf("Len() = %d after ticker stop, want 0", got)
	}
}

func TestLenCountsOnlyPending(t *testing.T) {
	c := New(t0)
	c.Schedule(time.Second, func() {})
	tm := c.Schedule(2*time.Second, func() {})
	tm.Stop()
	if got := c.Len(); got != 1 {
		t.Errorf("Len() = %d, want 1", got)
	}
}

// Property: for any set of non-negative delays, events fire in sorted order
// and the clock never moves backwards.
func TestPropertyMonotonicExecution(t *testing.T) {
	f := func(delays []uint16) bool {
		c := New(t0)
		var fired []time.Time
		for _, d := range delays {
			c.Schedule(time.Duration(d)*time.Millisecond, func() {
				fired = append(fired, c.Now())
			})
		}
		c.Run()
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].Before(fired[i-1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
