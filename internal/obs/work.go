package obs

import "time"

// Work counts the events a lab run emits at its layer boundaries: clock
// fires, packet sends, deliveries and reassemblies, and the attacker's
// planting rounds. For a deterministic run the counts are exact, so they
// measure the work a run does independently of the host it runs on.
type Work struct {
	ClockFires  int64
	NetSends    int64
	NetDelivers int64
	NetReasm    int64
	PlantRounds int64
}

// WorkCounter is an enabled Tracer that counts Work and records nothing
// else.
type WorkCounter struct {
	Work Work
}

// Enabled always reports true: the lab emits its events to a WorkCounter.
func (*WorkCounter) Enabled() bool { return true }

// Event counts the events Work names and ignores the rest.
func (c *WorkCounter) Event(_ time.Time, cat, name, _ string) {
	switch {
	case cat == "clock" && name == "fire":
		c.Work.ClockFires++
	case cat == "net" && name == "send":
		c.Work.NetSends++
	case cat == "net" && name == "deliver":
		c.Work.NetDelivers++
	case cat == "net" && name == "reasm":
		c.Work.NetReasm++
	case cat == "attack" && name == "plant-round":
		c.Work.PlantRounds++
	}
}

// Span ignores spans.
func (*WorkCounter) Span(time.Time, time.Time, string, string, string) {}
