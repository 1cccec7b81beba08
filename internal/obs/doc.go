// Package obs is the repo's observability spine: deterministic
// virtual-time tracing, a minimal Prometheus-style metrics registry, and
// build identification — shared by the lab, the campaign engine, the
// bench harness, and the resident experiment service.
//
// # Tracing
//
// A Tracer receives instant events and completed spans stamped with
// *virtual* simclock time, so a trace of a run describes the simulated
// interleaving (packet sends, timer fires, attack phases), not host
// scheduling. The no-op default (Nop) is allocation-free: hot paths guard
// emission with Enabled() and pay only a nil/bool check when tracing is
// off, which keeps the engine inside its allocation budgets.
//
// Because every traced component is deterministic in its seed, a trace is
// itself deterministic: the same (scenario, seed, params) produces a
// byte-identical trace file at any worker count and with pooled or fresh
// labs. The sink, NewChrome, writes the Chrome trace_event array format
// viewable in Perfetto or chrome://tracing; MergeChrome joins per-seed
// arrays into one document. Two tracers record no trace at all:
// WorkCounter counts a run's layer-boundary work (clock fires, packet
// sends, deliveries and reassemblies, planting rounds), and Digest folds
// the whole trace into one SHA-256, so a test can pin both.
//
// # Metrics
//
// Registry is a tiny dependency-free metrics registry (counters, gauges,
// float counters, histograms, with an optional single label dimension)
// with deterministic Prometheus text exposition via WritePrometheus.
// Default is the process-wide registry used by the campaign engine and
// the lab pool; internal/serve merges it with its own registry on
// /metrics.
package obs
