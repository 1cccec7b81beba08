package analysis

import (
	"context"
	"fmt"

	"dnstime/internal/scenario"
)

// The closed-form §V-B probability analysis registers itself with the
// scenario registry. Table III is seed-independent: a campaign over it
// produces zero-width confidence intervals, which is itself a useful
// cross-check that the analysis carries no hidden randomness.
func init() {
	scenario.Register(scenario.Scenario{
		Name:     "table3",
		Title:    "Table III probabilities",
		PaperRef: "§V-B",
		Impl:     "analysis.TableIII",
		CLI:      "experiments -only table3",
		Params:   map[string]string{"p_rate": "0.38"},
		Order:    50,
		Run:      tableIIIScenario,
	})
}

// tableIIIScenario evaluates every Table III row at the paper's measured
// rate-limiting probability; Detail carries the rows.
func tableIIIScenario(context.Context, int64, scenario.Config) (scenario.Result, error) {
	rows := TableIII(DefaultPRate)
	metrics := make(map[string]float64, 3*len(rows))
	for _, r := range rows {
		metrics[fmt.Sprintf("n/m=%d", r.M)] = float64(r.N)
		metrics[fmt.Sprintf("p1_pct/m=%d", r.M)] = r.P1
		metrics[fmt.Sprintf("p2_pct/m=%d", r.M)] = r.P2
	}
	return scenario.Result{Metrics: metrics, Detail: rows}, nil
}
