package ntpclient

import (
	"time"

	"dnstime/internal/simclock"
)

// LocalClock is a client's software clock: the true (simulation) time plus
// a mutable offset. Time-shifting attacks succeed when they change this
// offset on the victim.
type LocalClock struct {
	clock  *simclock.Clock
	offset time.Duration
}

// NewLocalClock returns a clock with the given initial error relative to
// true time (e.g. a dead-RTC machine boots hours off).
func NewLocalClock(clock *simclock.Clock, initialError time.Duration) *LocalClock {
	return &LocalClock{clock: clock, offset: initialError}
}

// Reset sets the clock's error back to initialError, as NewLocalClock
// starts it.
func (c *LocalClock) Reset(initialError time.Duration) { c.offset = initialError }

// Now returns the client's current local time.
func (c *LocalClock) Now() time.Time { return c.clock.Now().Add(c.offset) }

// Offset returns local-minus-true time.
func (c *LocalClock) Offset() time.Duration { return c.offset }

// Step adjusts the clock by delta at once (an NTP "step").
func (c *LocalClock) Step(delta time.Duration) { c.offset += delta }

// StepEvent records one clock adjustment.
type StepEvent struct {
	// At is the true simulation time of the step.
	At time.Time
	// Delta is the applied adjustment.
	Delta time.Duration
	// Sources is how many servers contributed to the decision.
	Sources int
}
