// Package serve is the resident experiment service: a long-running HTTP
// layer over the campaign Engine that turns one-shot CLI invocations
// into a system serving concurrent clients (DESIGN.md §11).
//
// Campaign submissions (a campaign.JobSpec: scenario, k=v params, seed
// set, trace) enter a bounded FIFO job queue and execute one at a time on
// a shared worker budget via campaign.Engine, so the service's output
// for a spec is byte-identical to `experiments campaigns` for the same
// spec at any worker count. Per-seed results stream to any number of
// clients as JSONL over HTTP while the campaign runs; completed
// aggregates are cached under the spec's canonical content address
// (JobSpec.Key), so repeat queries — dashboards, CI gates, parameter
// sweeps — return instantly without re-running the Engine. The service
// exposes /metrics (jobs, cache hit rate, runs/sec, per-scenario
// latency), token-bucket per-client rate limiting on submissions, an
// optional net/http/pprof mount for live profiling, and a graceful
// drain: Shutdown cancels in-flight campaigns, whose per-seed engine
// checkpoints in the state directory make a resubmission after restart
// resume instead of recompute.
package serve
