// Command bench is the repository benchmark. One run executes one
// workload in its own process, checks the program's outputs, and prints
// every metric by name and unit, ending with one JSON line:
//
//	bash bench/run.sh --workload poison-short --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with the program's tracing
// off; --trace 1 is a separate run that times calls into each layer from
// outside and reports the per-layer metrics. `compare <dirA> <dirB>`
// compares two directories of run files written with -o. README.md lists
// the workloads and the metric dictionary.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"dnstime/internal/obs"
)

// committedDigests holds the SHA-256 of every check campaign's aggregate
// at workload seed 1 (see checkScenario and checkServe).
//
//go:embed testdata/digests.json
var committedDigests []byte

func main() {
	start := time.Now()
	os.Exit(realMain(start, os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(start time.Time, args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return runCompare(args[1:], stdout, stderr)
	}
	cfg, err := parseFlags(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	cfg.setupChildren = 2
	cfg.stateRoot = ".bench_build"
	if err := json.Unmarshal(committedDigests, &cfg.digests); err != nil {
		fmt.Fprintln(stderr, "bench: testdata/digests.json:", err)
		return 2
	}
	rf, err := run(context.Background(), start, cfg, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if cfg.setupOnly {
		return 0
	}
	if err := report(rf, cfg.out, stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if !rf.Correct {
		return 1
	}
	return 0
}

// config is one run's settings. The fields after setupOnly are not flags:
// main sets them, and the self-test shrinks them.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	out       string
	spansPath string
	setupOnly bool

	chunkCap      int               // caps every campaign's seed count (0 = none)
	setupChildren int               // extra set-up samples, each taken in a child process
	stateRoot     string            // where serve-mix keeps its checkpoint directories
	digests       map[string]string // committed seed-1 aggregate digests
}

func parseFlags(args []string, stderr io.Writer) (config, error) {
	var cfg config
	var trace int
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "workload seed; every input is generated from it")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the separate traced run that reports the per-layer metrics")
	fs.StringVar(&cfg.out, "o", "", "also write the run and its provenance to this JSON file")
	fs.StringVar(&cfg.spansPath, "spans", "", "traced runs: Chrome trace of the benchmark's spans (default .bench_build/spans/<workload>-seed<n>.json)")
	fs.BoolVar(&cfg.setupOnly, "setup-only", false, "set up, print setup_s and exit (how a run takes its extra set-up samples)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if _, ok := lookupWorkload(cfg.workload); !ok {
		return cfg, fmt.Errorf("-workload %q: want one of %s", cfg.workload, strings.Join(names, ", "))
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	cfg.trace = trace == 1
	if !(cfg.seconds > 0 && cfg.seconds <= 600) {
		return cfg, fmt.Errorf("-seconds %v: want a duration in (0, 600]", cfg.seconds)
	}
	if cfg.spansPath == "" {
		cfg.spansPath = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	}
	return cfg, nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// provenance identifies the host, toolchain and inputs of a run. Slowdown
// is the host speed factor the untraced run scaled its times by (see
// hostRef): a rate divided by it, or a time multiplied by it, gives the
// unscaled wall-clock value.
type provenance struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Trace      bool    `json:"trace"`
	Seconds    float64 `json:"seconds"`
	Slowdown   float64 `json:"host_slowdown,omitempty"`
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Revision   string  `json:"revision"`
	Modified   bool    `json:"modified,omitempty"`
	GOGC       string  `json:"gogc,omitempty"`
}

// runFile is what -o writes and compare reads.
type runFile struct {
	Provenance provenance `json:"provenance"`
	Problems   []string   `json:"problems,omitempty"`
	result
}

// runner carries one run's state.
type runner struct {
	cfg       config
	w         workload
	spans     *spanLog // nil unless traced
	ref       *hostRef // nil when traced: per-layer numbers are not scaled
	root      int
	checkSpan int
	attempted int
	failed    int
	problems  []string
	metrics   map[string]metric
	stderr    io.Writer
}

func (r *runner) set(name, unit string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.fail(1, fmt.Sprintf("metric %s is %v", name, v))
		v = 0
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// fail records n failed operations and what went wrong.
func (r *runner) fail(n int, msg string) {
	r.failed += n
	r.problems = append(r.problems, msg)
	fmt.Fprintln(r.stderr, "bench: CHECK FAILED:", msg)
}

// parts returns the workload's parts with the self-test's size cap applied.
func (r *runner) parts(ps []part) []part {
	out := append([]part(nil), ps...)
	for i := range out {
		if c := r.cfg.chunkCap; c > 0 && out[i].seeds > c {
			out[i].seeds = max(c, checkSeeds)
		}
	}
	return out
}

func run(ctx context.Context, start time.Time, cfg config, stdout, stderr io.Writer) (runFile, error) {
	w, _ := lookupWorkload(cfg.workload)
	r := &runner{cfg: cfg, w: w, metrics: map[string]metric{}, stderr: stderr}
	if cfg.trace && !cfg.setupOnly {
		r.spans = newSpanLog()
		r.root = r.spans.begin("workload", fmt.Sprintf("%s seed %d", w.name, cfg.seed), 0)
	}
	setupSpan := r.spans.begin("setup", "setup", r.root)
	sb, err := r.setup(ctx)
	setup := time.Since(start).Seconds()
	r.spans.end(setupSpan)
	if sb != nil {
		defer sb.close()
	}
	if err != nil {
		return runFile{}, fmt.Errorf("set-up: %w", err)
	}
	var first setupSample
	if !cfg.trace {
		// Set-up is scaled by the host's speed just after it; building
		// the reference is not part of it, nor of its peak RSS.
		if first.rssMB, err = peakRSSMB(); err != nil {
			return runFile{}, err
		}
		if r.ref, err = newHostRef(); err != nil {
			return runFile{}, err
		}
		defer r.ref.close()
		for i := 0; i < setupRefSamples; i++ {
			r.ref.sample()
		}
		first.seconds = setup / r.ref.slowdown()
	}
	if cfg.setupOnly {
		fmt.Fprintf(stdout, "setup_s %.9f peak_rss_mb %.6f\n", first.seconds, first.rssMB)
		return runFile{}, nil
	}
	var slowdown float64
	if cfg.trace {
		err = r.layers(ctx, sb)
	} else {
		err = r.endToEnd(ctx, sb, first)
		slowdown = r.ref.slowdown()
	}
	if err != nil {
		return runFile{}, err
	}
	r.spans.end(r.root)
	if err := r.spans.write(cfg.spansPath); err != nil {
		return runFile{}, err
	}
	b := obs.BuildInfo()
	return runFile{
		Provenance: provenance{
			Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, Seconds: cfg.seconds,
			Slowdown: slowdown, NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), Revision: b.Revision, Modified: b.Modified,
			GOGC: os.Getenv("GOGC"),
		},
		Problems: r.problems,
		result: result{
			Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics,
		},
	}, nil
}

// setup loads the code and warms every cache the timed phase uses: one
// checkSeeds-seed campaign per scenario at seeds far from the timed range,
// or, for serve-mix, a running server that has served one cold job per
// scenario and one cache hit.
func (r *runner) setup(ctx context.Context) (*serveBench, error) {
	if r.w.serve {
		return startServe(ctx, r)
	}
	base := seedBase(r.cfg.seed) + warmOffset
	names := append([]string(nil), r.w.check...)
	for _, p := range r.w.parts {
		names = append(names, p.scenario)
	}
	for _, name := range names {
		c, err := runCampaign(ctx, part{name, checkSeeds}, base, timedWorkers, nil, r.spans, r.root)
		if err != nil {
			return nil, err
		}
		if c.agg.Errors > 0 {
			return nil, fmt.Errorf("warm-up %s: %d seeds failed", name, c.agg.Errors)
		}
	}
	return nil, nil
}

// setupSample is one set-up's time, scaled by the host slowdown, and the
// process's peak RSS at its end.
type setupSample struct {
	seconds, rssMB float64
}

// childSetup takes one more set-up sample in a fresh process, so package
// initialisation and cold caches count every time.
func childSetup(ctx context.Context, cfg config, stderr io.Writer) (setupSample, error) {
	var s setupSample
	exe, err := os.Executable()
	if err != nil {
		return s, err
	}
	ctx, cancel := context.WithTimeout(ctx, 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-workload", cfg.workload,
		"-seed", strconv.FormatInt(cfg.seed, 10), "-setup-only")
	cmd.Stderr = stderr
	out, err := cmd.Output()
	if err != nil {
		return s, err
	}
	if _, err := fmt.Sscanf(strings.TrimSpace(string(out)), "setup_s %g peak_rss_mb %g", &s.seconds, &s.rssMB); err != nil {
		return s, fmt.Errorf("child set-up printed %q", out)
	}
	return s, nil
}

// endToEnd is the untraced run: the extra set-up samples, the timed
// phase, the output checks, then the end-to-end metrics.
func (r *runner) endToEnd(ctx context.Context, sb *serveBench, first setupSample) error {
	setups, rss := []float64{first.seconds}, []float64{first.rssMB}
	for i := 0; i < r.cfg.setupChildren; i++ {
		s, err := childSetup(ctx, r.cfg, r.stderr)
		if err != nil {
			return fmt.Errorf("set-up sample %d: %w", i+2, err)
		}
		setups, rss = append(setups, s.seconds), append(rss, s.rssMB)
	}
	var rate, mean, p90 float64
	if r.w.serve {
		list := newJobList(r.cfg.seed)
		ps := sb.pass(ctx, list, serveJobs(r.cfg.seconds), r.ref, 0)
		r.servePass(ps)
		total := ps.durations(jobRecord.ok, func(j jobRecord) time.Duration { return j.total })
		rate = float64(serveJobSeeds*len(total)) / ps.wall.Seconds()
		mean, p90 = 1e3*meanDur(total), 1e3*p90Dur(total)
		r.checkServe(ctx, sb, list)
	} else {
		parts := r.parts(r.w.parts)
		dur := time.Duration(r.cfg.seconds * float64(time.Second))
		m, err := runMix(ctx, parts, seedBase(r.cfg.seed), timedWorkers, dur, r.ref, nil, 0)
		if err != nil {
			return err
		}
		r.countSeeds(m)
		rate, mean, p90 = m.runsPerSec(parts), m.latencyMS(parts, meanDur), m.latencyMS(parts, p90Dur)
		if err := r.checkCampaigns(ctx, m); err != nil {
			return err
		}
	}
	slow := r.ref.slowdown()
	r.set("runs_per_s", "1/s", rate*slow)
	r.set("latency_ms.mean", "ms", mean/slow)
	r.set("latency_ms.p90", "ms", p90/slow)
	r.set("setup_s", "s", median(setups))
	r.set("peak_rss_mb", "MB", median(rss))
	return nil
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[n/2]
}

// countSeeds adds a pass's seeds to the attempted count, and any that
// errored to the failures.
func (r *runner) countSeeds(m *mixStats) {
	for _, n := range m.seeds {
		r.attempted += n
	}
	if m.errors > 0 {
		r.fail(m.errors, fmt.Sprintf("%d timed seeds returned an error", m.errors))
	}
}

// checkCampaigns runs the output checks of a campaign workload.
func (r *runner) checkCampaigns(ctx context.Context, m *mixStats) error {
	r.checkSpan = r.spans.begin("check", "output checks", r.root)
	defer r.spans.end(r.checkSpan)
	names := append([]string(nil), r.w.check...)
	for _, p := range r.w.parts {
		names = append(names, p.scenario)
	}
	for _, name := range names {
		problems, err := checkScenario(ctx, r, name, m.round0[name])
		if err != nil {
			return err
		}
		for _, p := range problems {
			r.fail(1, p)
		}
	}
	return nil
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %q: %w", line, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// report prints every metric by name and unit, then the result as the
// last line, and writes the run file when asked.
func report(rf runFile, out string, stdout io.Writer) error {
	p := rf.Provenance
	fmt.Fprintf(stdout, "# %s seed=%d trace=%t seconds=%g host_slowdown=%.4f nproc=%d gomaxprocs=%d %s revision=%s\n",
		p.Workload, p.Seed, p.Trace, p.Seconds, p.Slowdown, p.NProc, p.GoMaxProcs, p.GoVersion, p.Revision)
	names := make([]string, 0, len(rf.Metrics))
	for name := range rf.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := rf.Metrics[name]
		fmt.Fprintf(stdout, "%-40s %16.6f %s\n", name, m.Value, m.Unit)
	}
	if out != "" {
		b, err := json.MarshalIndent(rf, "", "  ")
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(out, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	line, err := json.Marshal(rf.result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}
