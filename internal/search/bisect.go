package search

import (
	"context"
	"fmt"
)

// BisectResult is a completed threshold search: the probes executed (in
// execution order, which is deterministic) and the final one-Step-wide
// bracket [Lo, Hi] around the collapse threshold. Under the monotone
// assumption, the scenario fails at Lo and succeeds at Hi (the reverse
// for a Falling axis).
type BisectResult struct {
	// Scenario, Key and Target restate the search so the document is
	// self-describing.
	Scenario string  `json:"scenario"`
	Key      string  `json:"key"`
	Target   float64 `json:"target"`
	// Seeds is the per-probe campaign size.
	Seeds int `json:"seeds"`
	// Budget is the worst-case probe count ⌈log₂(width/resolution)⌉;
	// len(Probes) never exceeds it.
	Budget int `json:"probe_budget"`
	// Probes lists every evaluated point in execution order.
	Probes []Probe `json:"probes"`
	// Lo and Hi are the final bracket endpoints, formatted as the
	// scenario param values they correspond to.
	Lo string `json:"lo"`
	Hi string `json:"hi"`
}

// Bisect locates the collapse threshold of a monotone
// success-vs-parameter axis: it repeatedly probes the bracket midpoint
// with a full multi-seed campaign and keeps the half whose endpoints
// still disagree, narrowing [ax.Lo, ax.Hi] to one ax.Step in at most
// ax.Budget() probes. The endpoints themselves are assumed, not probed:
// the caller asserts the scenario fails at Lo and succeeds at Hi
// (swapped when ax.Falling) — a bracket that does not actually strand
// the threshold yields a well-formed but meaningless answer, as with
// any bisection.
//
// Probe order is a pure function of probe outcomes and probe outcomes
// are worker-count independent (campaign.Engine's contract), so the
// marshalled BisectResult is byte-identical at any opt.Workers, and a
// search resumed from a StateDir reproduces an uninterrupted one
// exactly.
func Bisect(ctx context.Context, ax Axis, opt Options) (BisectResult, error) {
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return BisectResult{}, err
	}
	if err := ax.validate(); err != nil {
		return BisectResult{}, err
	}

	res := BisectResult{
		Scenario: opt.Scenario,
		Key:      ax.Key,
		Target:   opt.Target,
		Seeds:    opt.Seeds,
		Budget:   ax.Budget(),
	}
	// The loop runs in ticks (multiples of ax.Step) so the midpoint
	// arithmetic is exact integer division; lo and hi always satisfy the
	// invariant "threshold strictly inside (lo, hi]".
	lo, hi := ax.Lo/ax.Step, ax.Hi/ax.Step
	for hi-lo > 1 {
		if err := ctx.Err(); err != nil {
			return res, fmt.Errorf("search: bisection interrupted: %w", err)
		}
		mid := lo + (hi-lo)/2
		value := ax.Format(mid * ax.Step)
		p, err := runProbe(ctx, opt, map[string]string{ax.Key: value}, opt.Seeds, *opt.BaseSeed)
		if err != nil {
			return res, err
		}
		res.Probes = append(res.Probes, p)
		if opt.Progress != nil {
			opt.Progress(p, len(res.Probes), res.Budget)
		}
		// On a rising axis success lives above the threshold, so a
		// successful midpoint bounds the threshold from above; a Falling
		// axis mirrors the step.
		if p.Success != ax.Falling {
			hi = mid
		} else {
			lo = mid
		}
	}
	res.Lo = ax.Format(lo * ax.Step)
	res.Hi = ax.Format(hi * ax.Step)
	return res, nil
}
