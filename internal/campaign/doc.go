// Package campaign is the parallel multi-seed experiment engine: it fans
// an experiment out across N independent seeds on a pool of workers and
// folds the per-run outcomes into aggregate statistics (success rates
// with Wilson confidence intervals, per-metric mean/median distributions
// with normal-approximation intervals).
//
// The execution surface is one API, the Engine:
//
//	eng := campaign.NewEngine(
//	    campaign.WithSeeds(64),
//	    campaign.WithParam("client", "chrony"),
//	)
//	agg, err := eng.Run(ctx, "boot")   // blocking
//	st, err := eng.Stream(ctx, "boot") // per-seed results as they land
//
// Run blocks for the final aggregate; Stream yields typed per-seed
// Results in completion order while the deterministic seed-order
// aggregate folds behind it. Cancelling ctx drains the workers cleanly
// and yields a partial aggregate (marked Partial) covering exactly the
// completed seeds. WithParams parameterises any scenario that declares
// ParamKeys — the attack experiments accept client profile, run-time
// scenario, target shift and lab sizing, so every attack variant is an
// ordinary campaign. WithCheckpoint records one JSONL line per completed
// seed and, when its file already exists, reuses the recorded seeds
// byte-identically and appends the rest, so rerunning an interrupted
// campaign resumes it into the same final aggregate as an uninterrupted
// run. See DESIGN.md §7 for the full Engine contract.
//
// Each run builds its own Lab around its own simclock.Clock, so runs
// share no state and the fan-out is embarrassingly parallel. Results are
// merged in seed order regardless of completion order, so aggregate
// output is byte-identical at any worker count (see DESIGN.md
// "Concurrency contract").
package campaign
