package chronos

import (
	"context"
	"fmt"

	"dnstime/internal/scenario"
)

// The analytic §VI-C attack bound registers itself with the scenario
// registry; the full Chronos attack run is registered by internal/core
// (which wires the lab this package's client runs inside).
func init() {
	scenario.Register(scenario.Scenario{
		Name:     "chronosbound",
		Title:    "Chronos attack bound sweep",
		PaperRef: "§VI-C",
		Impl:     "chronos.AttackBound",
		CLI:      "experiments campaigns -only chronosbound -seeds 1",
		Params:   map[string]string{"per_query": "4", "spoofed": "20,45,89,120"},
		Order:    61,
		Run:      boundScenario,
	})
}

// boundScenario sweeps the tolerable-N bound across the response
// capacities of DESIGN.md §5's ablation (the paper's headline cell is
// spoofed=89 → N ≤ 11). Closed form, so seed-independent.
func boundScenario(context.Context, int64, scenario.Config) (scenario.Result, error) {
	metrics := make(map[string]float64, 4)
	for _, spoofed := range []int{20, 45, 89, 120} {
		metrics[fmt.Sprintf("max_n/spoofed=%d", spoofed)] = float64(AttackBound(4, spoofed))
	}
	return scenario.Result{Metrics: metrics}, nil
}
