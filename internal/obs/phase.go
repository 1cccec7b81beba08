package obs

import "time"

// Phase names recorded by ObservePhase: the execution-phase timing
// breakdown exported as the dnstime_phase_seconds_total{phase} family.
const (
	// PhaseSetup is time spent building a fresh laboratory (pool miss).
	PhaseSetup = "setup"
	// PhaseReset is time spent hard-resetting a pooled laboratory.
	PhaseReset = "reset"
	// PhaseRun is wall time inside Scenario.Run, inclusive of lab
	// setup/reset (those are sub-phases of a run).
	PhaseRun = "run"
	// PhaseFold is time spent folding completed results into the
	// deterministic seed-order aggregate.
	PhaseFold = "fold"
	// PhaseProbe is wall time per adaptive-search probe campaign
	// (internal/search), inclusive of its runs.
	PhaseProbe = "probe"
)

// phaseSeconds accumulates wall-clock seconds per execution phase in the
// Default registry.
var phaseSeconds = Default.FloatCounterVec("dnstime_phase_seconds_total",
	"Wall-clock seconds spent per execution phase (setup=fresh lab build, reset=pooled lab reset, run=Scenario.Run inclusive, fold=aggregate fold).",
	"phase")

// ObservePhase adds d to the process-wide accumulator for phase.
func ObservePhase(phase string, d time.Duration) {
	phaseSeconds.With(phase).Add(d.Seconds())
}
