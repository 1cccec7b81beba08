package netem

import "math/rand"

// LossModel decides whether successive packets on a path are dropped.
// Stateful implementations (GilbertElliott) confine their state to the
// instance: one instance per network, never shared across runs.
type LossModel interface {
	// Drop reports whether the next packet is lost.
	Drop(rng *rand.Rand) bool
}

// IID drops each packet independently with probability P — the model a
// `-param loss=P` override (FromSpec) applies. At P = 0 it consumes no
// randomness (preserving the RNG stream of lossless runs).
type IID struct {
	// P is the per-packet drop probability in [0, 1].
	P float64
}

// Drop draws one Bernoulli trial.
func (l IID) Drop(rng *rand.Rand) bool { return l.P > 0 && rng.Float64() < l.P }

// GilbertElliott is the two-state bursty loss model: a good state
// dropping packets with probability LossGood and a bad state with
// LossBad; after each packet the chain moves good→bad with probability
// PGB and bad→good with PBG. Bad-state visits therefore last 1/PBG
// packets on average (geometric), producing the loss bursts that i.i.d.
// models cannot — the regime where fragmentation races and spoofed-
// response timing behave differently from uniform loss. The stationary
// bad-state share is PGB/(PGB+PBG).
//
// The zero state starts in the good state. Stateful: build one instance
// per network (Profile returns fresh instances each call).
type GilbertElliott struct {
	// PGB and PBG are the good→bad and bad→good transition probabilities
	// applied after every packet.
	PGB, PBG float64
	// LossGood and LossBad are the per-packet drop probabilities in the
	// two states (classic Gilbert: LossGood 0, LossBad high).
	LossGood, LossBad float64

	bad bool
}

// Drop decides the current packet's fate in the current state, then
// advances the state chain.
func (g *GilbertElliott) Drop(rng *rand.Rand) bool {
	p := g.LossGood
	if g.bad {
		p = g.LossBad
	}
	drop := p > 0 && rng.Float64() < p
	if g.bad {
		if g.PBG > 0 && rng.Float64() < g.PBG {
			g.bad = false
		}
	} else if g.PGB > 0 && rng.Float64() < g.PGB {
		g.bad = true
	}
	return drop
}
