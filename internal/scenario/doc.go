// Package scenario is the experiment registry: the single catalogue of
// every reproducible experiment in this repository (the boot-time,
// run-time and Chronos attacks, Tables I–V, Figures 5–7 and the §VII
// scans), each exposed behind one uniform contract.
//
// An experiment package registers itself at init time:
//
//	scenario.Register(scenario.Scenario{
//		Name:      "boot",
//		Title:     "Boot-time attack",
//		PaperRef:  "§IV-A, Fig. 2",
//		Impl:      "core.RunBootTimeAttack",
//		CLI:       "experiments campaigns -only boot -seeds 1",
//		Params:    map[string]string{"client": "ntpd"},
//		ParamKeys: []string{"client", "offset", ...},
//		Order:     10,
//		Run:       runBootScenario,
//	})
//
// Run takes a context, a seed and a Config and returns a Result: an
// optional binary outcome plus a flat map of named float64 metrics (and,
// for a single-run renderer, an unserialised typed Detail).
// Because every scenario speaks this one shape, generic machinery can
// operate on all of them — the campaign Engine (internal/campaign) fans
// any registered scenario out across many seeds on a worker pool, streams
// per-seed Results and aggregates the metrics with confidence intervals,
// and MarkdownIndex renders the DESIGN.md §4 experiment index so the
// documentation cannot drift from the code.
//
// Parameterisable scenarios declare the Config.Params keys they accept in
// ParamKeys (`experiments campaigns -param key=value`); the engine rejects
// unknown keys before any run starts. The attack scenarios accept e.g.
// client=<profile>, offset=<duration>, and the Chronos knobs N/spoofed,
// so every client-profile or target-shift variant is an ordinary
// parameterised campaign rather than a separate entry point.
//
// The contract every Run implementation must keep (DESIGN.md §6–§7):
//
//   - Deterministic: the same (seed, cfg) — including cfg.Params — must
//     produce the identical Result. All randomness derives from the seed;
//     no wall-clock time, no global state.
//   - Self-contained: a run builds whatever lab or population it needs and
//     shares nothing mutable with concurrent runs of itself or any other
//     scenario, so the campaign engine may execute runs in parallel.
//   - JSON-stable: metrics are plain float64s under fixed names, so a
//     marshalled Result (and any aggregate folded from Results in seed
//     order) is byte-identical regardless of scheduling.
//   - Cancellation-aware (optional): ctx is advisory. A run may return
//     ctx.Err() when cancelled mid-flight; the engine drops such runs
//     from aggregates and checkpoints so a cancelled campaign's partial
//     output is a strict prefix-set of the uninterrupted one.
package scenario
