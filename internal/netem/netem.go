// Package netem models network path conditions for the simulated
// internetwork: per-packet one-way latency, loss and reordering on every
// directed src→dst link. internal/simnet routes each injected packet
// through a PathModel, so the same attack laboratory runs over a LAN, a
// lossy Wi-Fi hop or a congested trans-continental path by swapping one
// value (see the named profiles in this package and DESIGN.md §8).
//
// Determinism: a model draws all randomness from the *rand.Rand the
// caller passes in — simnet passes its network RNG, which labs derive
// from the campaign seed — so a single-threaded simulation replays
// byte-identically per seed at any campaign worker count. Stateful
// models (Gilbert–Elliott loss) keep their state inside the instance;
// build one model per lab (Profile and FromSpec return fresh instances
// on every call) and never share an instance between concurrent runs.
package netem

import (
	"math/rand"
	"time"

	"dnstime/internal/ipv4"
)

// DefaultLatency is the one-way delay a zero-value Path applies — the
// 10 ms link latency internal/simnet has always defaulted to.
const DefaultLatency = 10 * time.Millisecond

// PathModel decides the fate of each packet on a directed src→dst path:
// whether it is dropped in transit and, if delivered, its one-way delay.
// Implementations must derive every random choice from rng and keep any
// internal state confined to one instance (see the package comment).
type PathModel interface {
	// Latency returns the one-way delay for the next packet src→dst.
	Latency(src, dst ipv4.Addr, rng *rand.Rand) time.Duration
	// Drop reports whether the next packet src→dst is lost in transit.
	Drop(src, dst ipv4.Addr, rng *rand.Rand) bool
}

// Reorder makes a fraction of packets arrive late: with probability P a
// packet's delay is stretched by Extra, so packets sent just after it
// overtake it in delivery order. The zero value reorders nothing.
type Reorder struct {
	// P is the per-packet probability of being held back.
	P float64
	// Extra is the additional delay a held-back packet suffers.
	Extra time.Duration
}

// Path is the basic composable PathModel: a latency distribution, an
// optional loss model and optional reordering, applied identically to
// every directed pair. The zero value reproduces simnet's historical
// default link — fixed DefaultLatency one-way, lossless, in-order — and
// consumes no randomness at all.
type Path struct {
	// Delay samples the one-way delay (nil: fixed DefaultLatency).
	Delay LatencyDist
	// Loss decides per-packet drops (nil: lossless).
	Loss LossModel
	// Reorder holds a fraction of packets back (zero value: in-order).
	Reorder Reorder
}

// Latency samples the one-way delay, including any reordering hold-back.
func (p *Path) Latency(_, _ ipv4.Addr, rng *rand.Rand) time.Duration {
	d := DefaultLatency
	if p.Delay != nil {
		d = p.Delay.Sample(rng)
	}
	if p.Reorder.P > 0 && rng.Float64() < p.Reorder.P {
		d += p.Reorder.Extra
	}
	if d < 0 {
		d = 0
	}
	return d
}

// Drop consults the loss model (never drops when Loss is nil).
func (p *Path) Drop(_, _ ipv4.Addr, rng *rand.Rand) bool {
	return p.Loss != nil && p.Loss.Drop(rng)
}

// Asymmetric models direction-dependent path conditions: Fwd applies to
// packets whose source address orders below the destination (byte-wise),
// Rev to the opposite direction. The orientation is arbitrary but stable,
// so one directed pair always sees the same leg — what matters for the
// attacks is that requests and responses travel different conditions.
type Asymmetric struct {
	// Fwd is the src<dst leg; Rev the dst<src leg.
	Fwd, Rev PathModel
}

// leg selects the model for the src→dst direction.
func (a *Asymmetric) leg(src, dst ipv4.Addr) PathModel {
	if lessAddr(src, dst) {
		return a.Fwd
	}
	return a.Rev
}

// Latency delegates to the leg owning the src→dst direction.
func (a *Asymmetric) Latency(src, dst ipv4.Addr, rng *rand.Rand) time.Duration {
	return a.leg(src, dst).Latency(src, dst, rng)
}

// Drop delegates to the leg owning the src→dst direction.
func (a *Asymmetric) Drop(src, dst ipv4.Addr, rng *rand.Rand) bool {
	return a.leg(src, dst).Drop(src, dst, rng)
}

// lessAddr orders addresses byte-wise (the Asymmetric orientation).
func lessAddr(a, b ipv4.Addr) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}
