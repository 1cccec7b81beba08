// Package search locates phase boundaries in scenario space by driving
// campaigns adaptively instead of sweeping fixed grids (DESIGN.md §13).
//
// Two strategies share one probe substrate:
//
//   - Bisect brackets the collapse threshold of a monotone
//     success-vs-parameter axis (e.g. racemargin's success-vs-margin
//     curve) to a requested resolution in O(log(width/resolution))
//     probe campaigns, where an exhaustive sweep would need
//     O(width/resolution).
//   - Grid sweeps a parameter matrix (netem profile × topology ×
//     client × attack knobs), optionally Latin-hypercube subsampled,
//     pruning cells early once a small staged campaign's Wilson
//     interval already excludes the target success rate.
//
// Every probe is one multi-seed campaign executed by campaign.Engine,
// so probes inherit the engine's guarantees: per-seed determinism and
// worker-count-independent aggregates. The search layer adds its own
// determinism contract on top — probe order is a pure function of probe
// outcomes, and results carry no wall-clock fields — so a search's JSON
// output is byte-identical at any worker count. A probe is an ordinary
// campaign.JobSpec, so with Options.StateDir it checkpoints to the same
// <dir>/<key>.jsonl Engine checkpoint `experiments serve -state` keeps:
// a rerun over the directory executes only the seeds no earlier run
// completed, and a probe's file warm-starts the matching serve job. The
// campaign checkpoint's revision gate applies unchanged: a file from
// another build is set aside and its probe reruns, unless Options.Force.
package search
