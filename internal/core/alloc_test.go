package core

import (
	"testing"
)

// allocBudgetLabReset is the committed budget for re-purposing a pooled
// laboratory to a new seed: Lab.Reset re-wires nameserver, resolver,
// attacker and twelve NTP servers in place, so the remaining allocations
// are the handful of per-run config values (the defaults pointer, network
// options, the pool record set). It measured 35 against 214 allocations
// (40.5 KB) for building the same lab with NewLab (Go 1.24.0, -cpu 1);
// this gate holds the pooled path under a fifth of a cold build.
const allocBudgetLabReset = 40

func TestAllocBudgetLabReset(t *testing.T) {
	l := MustNewLab(LabConfig{Seed: 1})
	seed := int64(1)
	reset := func() {
		seed++
		if err := l.Reset(LabConfig{Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the event arena and component scratch before measuring.
	for i := 0; i < 4; i++ {
		reset()
	}
	avg := testing.AllocsPerRun(50, reset)
	if avg > allocBudgetLabReset {
		t.Errorf("%.1f allocs per pooled lab reset, budget %d", avg, allocBudgetLabReset)
	}
}
