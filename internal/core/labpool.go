package core

import (
	"sync"
	"time"

	"dnstime/internal/obs"
)

// The lab pool recycles fully wired laboratories across campaign seeds.
// Building a lab allocates a clock, a network, a dozen hosts and their
// component servers; at campaign scale (thousands of seeds) that
// construction cost and allocation churn dominated the per-seed budget.
// Reset's hard contract (a reset lab is observably identical to a fresh
// one) makes reuse safe, and the engine equivalence suite holds it to
// byte-identical campaign output.
var labPool struct {
	mu       sync.Mutex
	labs     []*Lab
	disabled bool
}

// Pool effectiveness counters (obs.Default; exposed on the serve /metrics
// Prometheus view): hits are acquisitions served by recycling a pooled
// lab, misses built fresh, resets counts hard Reset calls on recycled
// labs.
var (
	poolHits = obs.Default.Counter("dnstime_labpool_hits_total",
		"Lab acquisitions served by recycling a pooled laboratory.")
	poolMisses = obs.Default.Counter("dnstime_labpool_misses_total",
		"Lab acquisitions that built a fresh laboratory (empty or disabled pool).")
	poolResets = obs.Default.Counter("dnstime_labpool_resets_total",
		"Hard resets performed on recycled laboratories.")
)

// labPoolMax bounds retained labs; beyond it released labs are dropped for
// the GC. Campaign workers are capped well below this.
const labPoolMax = 32

// acquireLab returns a laboratory configured exactly per cfg: a pooled lab
// hard-reset to cfg when one is available, otherwise a fresh build. Setup
// and reset wall time feeds the obs phase-timing breakdown, the
// dnstime_phase_seconds_total family of the Prometheus exposition.
func acquireLab(cfg LabConfig) (*Lab, error) {
	labPool.mu.Lock()
	if labPool.disabled || len(labPool.labs) == 0 {
		labPool.mu.Unlock()
		poolMisses.Inc()
		start := time.Now()
		l, err := NewLab(cfg)
		obs.ObservePhase(obs.PhaseSetup, time.Since(start))
		return l, err
	}
	n := len(labPool.labs)
	l := labPool.labs[n-1]
	labPool.labs[n-1] = nil
	labPool.labs = labPool.labs[:n-1]
	labPool.mu.Unlock()
	poolHits.Inc()
	poolResets.Inc()
	start := time.Now()
	err := l.Reset(cfg)
	obs.ObservePhase(obs.PhaseReset, time.Since(start))
	if err != nil {
		// NewLab runs this same Reset, so it would fail the same way.
		return nil, err
	}
	return l, nil
}

// releaseLab returns a finished laboratory to the pool. The lab may carry
// arbitrary run state — the next acquire hard-resets it.
func releaseLab(l *Lab) {
	if l == nil {
		return
	}
	labPool.mu.Lock()
	if !labPool.disabled && len(labPool.labs) < labPoolMax {
		labPool.labs = append(labPool.labs, l)
	}
	labPool.mu.Unlock()
}

// SetLabPooling enables or disables lab reuse across experiment runs
// (enabled by default). Disabling drains the pool, so every subsequent run
// builds its lab from scratch — the reference behaviour the engine
// equivalence tests compare pooled output against.
func SetLabPooling(enabled bool) {
	labPool.mu.Lock()
	labPool.disabled = !enabled
	if !enabled {
		labPool.labs = nil
	}
	labPool.mu.Unlock()
}
