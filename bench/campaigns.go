package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"dnstime/internal/campaign"
	"dnstime/internal/obs"
	"dnstime/internal/scenario"
)

// part is one scenario of a workload's mix and the seed count of each of
// its campaigns.
type part struct {
	scenario string
	seeds    int
}

// workload is one set of inputs the benchmark runs. A campaign workload
// runs its parts round-robin, one campaign at a time on timedWorkers,
// until the run's time is up; serve-mix drives an in-process serve.Server
// instead and uses its parts only for the traced campaign-layer numbers.
type workload struct {
	name  string
	parts []part
	// check lists scenarios run only for output checks: their seeds take
	// microseconds, so timing them would measure the engine alone.
	check []string
	serve bool
}

// serveScenarios are the scenarios serve-mix submits, 16 seeds per job.
var serveScenarios = []string{"boot", "table1", "racemargin", "runtime", "netsweep"}

const serveJobSeeds = 16

var workloads = []workload{
	{name: "poison-short", parts: []part{
		{"boot", 256}, {"table1", 256}, {"racemargin", 256}, {"netsweep", 256},
	}},
	{name: "ntp-long", parts: []part{
		{"runtime", 32}, {"table2", 32}, {"chronos", 32}, {"ratelimit", 8},
	}},
	{name: "measure-scans", parts: []part{
		{"fig5", 16}, {"table4", 16}, {"fig6", 16}, {"table5", 16}, {"shared", 16}, {"fig7", 16},
	}, check: []string{"nsfrag", "table3", "chronosbound"}},
	{name: "serve-mix", serve: true, parts: func() []part {
		ps := make([]part, len(serveScenarios))
		for i, s := range serveScenarios {
			ps[i] = part{s, serveJobSeeds}
		}
		return ps
	}()},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// homeParts maps every registered scenario to the campaign size it runs
// at in the workload that times it (256 seeds for the check-only ones),
// so a per-scenario number means the same thing whichever run measured it.
func homeParts() []part {
	seen := map[string]bool{}
	var out []part
	for _, w := range workloads {
		if w.serve {
			continue
		}
		for _, p := range w.parts {
			if !seen[p.scenario] {
				seen[p.scenario] = true
				out = append(out, p)
			}
		}
	}
	for _, name := range scenario.Names() {
		if !seen[name] {
			out = append(out, part{name, 256})
		}
	}
	return out
}

// timedScenario reports whether a scenario's seeds are timed by some
// workload (the check-only ones are not).
func timedScenario(name string) bool {
	for _, w := range workloads {
		for _, p := range w.parts {
			if p.scenario == name && !w.serve {
				return true
			}
		}
	}
	return false
}

// Campaign seeds derive from the workload seed: each workload seed owns a
// disjoint range of 1<<24 campaign seeds, and seed 1 starts at the engine's
// default base seed 1, so seed 1's first campaigns match `experiments
// campaigns` at its defaults. Warm-up and the traced work pass use seeds
// far from the timed range.
func seedBase(seed int64) int64 { return 1 + int64(uint64(seed-1)%(1<<24))<<24 }

const (
	warmOffset = 1 << 23
	workOffset = 1 << 22
	jobOffset  = 1 << 20
	checkSeeds = 4
)

// timedWorkers is the campaign workers, and the serve engine's, of every
// timed phase. On a 2-core host, ten poison-short runs at two workers
// spread 16% (interquartile range over median); interleaved with them, at
// one worker, 4.6%: the second core is left to the garbage collector's
// background workers. Parallel campaigns are still measured, by the
// traced run's GOMAXPROCS pass and the output checks.
const timedWorkers = 1

// seedClock collects per-seed wall times. The engine calls its tracer
// factory just before a seed runs and closes the tracer just after, so a
// disabled tracer with a Close method times each seed from outside without
// turning on any of the program's trace hooks.
type seedClock struct {
	mu     sync.Mutex
	times  []time.Duration
	spans  *spanLog
	parent int
}

type timedSeed struct {
	c     *seedClock
	seed  int64
	start time.Time
}

func (*timedSeed) Enabled() bool                                     { return false }
func (*timedSeed) Event(time.Time, string, string, string)           {}
func (*timedSeed) Span(time.Time, time.Time, string, string, string) {}

func (s *timedSeed) Close() error {
	end := time.Now()
	s.c.mu.Lock()
	s.c.times = append(s.c.times, end.Sub(s.start))
	s.c.mu.Unlock()
	if s.c.spans.seedRoom() {
		s.c.spans.add("seed", fmt.Sprintf("seed %d", s.seed), s.c.parent, s.start, end)
	}
	return nil
}

// Work counters read from the program's trace events.
const (
	workFires = iota
	workSends
	workDelivers
	workReasm
	workPlants
	nWork
)

var workNames = [nWork]string{"clock_fires", "net_sends", "net_delivers", "net_reasm", "plant_rounds"}

// workCounts sums the trace events of every seed of one scenario.
type workCounts struct {
	mu    sync.Mutex
	seeds int
	n     [nWork]int64
}

// countingTracer is an enabled tracer that counts the events the lab
// emits at its layer boundaries: clock fires, packet sends, deliveries and
// reassemblies, and the attacker's planting rounds.
type countingTracer struct {
	w *workCounts
	n [nWork]int64
}

func (*countingTracer) Enabled() bool                                     { return true }
func (*countingTracer) Span(time.Time, time.Time, string, string, string) {}

func (t *countingTracer) Event(_ time.Time, cat, name, _ string) {
	switch {
	case cat == "clock" && name == "fire":
		t.n[workFires]++
	case cat == "net" && name == "send":
		t.n[workSends]++
	case cat == "net" && name == "deliver":
		t.n[workDelivers]++
	case cat == "net" && name == "reasm":
		t.n[workReasm]++
	case cat == "attack" && name == "plant-round":
		t.n[workPlants]++
	}
}

func (t *countingTracer) Close() error {
	t.w.mu.Lock()
	defer t.w.mu.Unlock()
	t.w.seeds++
	for i, v := range t.n {
		t.w.n[i] += v
	}
	return nil
}

// campaignRun is one timed campaign.
type campaignRun struct {
	part part
	// wall is Stream call → Wait return; fold is the end of the result
	// stream → Wait return (the engine's seed-order fold).
	wall, fold time.Duration
	workers    int
	seedTimes  []time.Duration
	agg        campaign.ScenarioAggregate
}

// runCampaign runs one campaign through the Engine. With counts set every
// seed runs under a countingTracer; otherwise each seed is timed.
func runCampaign(ctx context.Context, p part, base int64, workers int, counts *workCounts, spans *spanLog, parent int) (campaignRun, error) {
	var id int
	if spans != nil {
		id = spans.begin("campaign", fmt.Sprintf("%s %d+%d w%d", p.scenario, base, p.seeds, workers), parent)
		defer spans.end(id)
	}
	clk := &seedClock{spans: spans, parent: id}
	factory := func(seed int64) (obs.Tracer, error) {
		if counts != nil {
			return &countingTracer{w: counts}, nil
		}
		return &timedSeed{c: clk, seed: seed, start: time.Now()}, nil
	}
	start := time.Now()
	st, err := campaign.NewEngine(
		campaign.WithSeeds(p.seeds),
		campaign.WithBaseSeed(base),
		campaign.WithWorkers(workers),
		campaign.WithTracerFactory(factory),
	).Stream(ctx, p.scenario)
	if err != nil {
		return campaignRun{}, err
	}
	for range st.Results() {
	}
	drained := time.Now()
	agg, err := st.Wait()
	end := time.Now()
	if err != nil {
		return campaignRun{}, fmt.Errorf("%s: %w", p.scenario, err)
	}
	if workers > p.seeds {
		workers = p.seeds
	}
	return campaignRun{
		part: p, wall: end.Sub(start), fold: end.Sub(drained), workers: workers,
		seedTimes: clk.times, agg: agg,
	}, nil
}

// mixStats accumulates the campaigns of a workload pass by scenario.
type mixStats struct {
	seeds     map[string]int
	wall      map[string]time.Duration
	seedTimes map[string][]time.Duration
	campaigns int
	errors    int
	fold      time.Duration
	busy      time.Duration // Σ seed wall time
	capacity  time.Duration // Σ workers × campaign wall
	round0    map[string][]scenario.Result
}

func newMixStats() *mixStats {
	return &mixStats{
		seeds: map[string]int{}, wall: map[string]time.Duration{},
		seedTimes: map[string][]time.Duration{}, round0: map[string][]scenario.Result{},
	}
}

func (m *mixStats) add(c campaignRun) {
	name := c.part.scenario
	m.seeds[name] += c.agg.Runs
	m.wall[name] += c.wall
	m.seedTimes[name] = append(m.seedTimes[name], c.seedTimes...)
	m.campaigns++
	m.errors += c.agg.Errors
	m.fold += c.fold
	for _, d := range c.seedTimes {
		m.busy += d
	}
	m.capacity += time.Duration(c.workers) * c.wall
}

// rate is one scenario's seeded runs per second of campaign wall time.
func (m *mixStats) rate(name string) float64 {
	return float64(m.seeds[name]) / m.wall[name].Seconds()
}

// runsPerSec is the throughput of the workload's mix: seeded runs per
// second for a round of one campaign of every part. Weighting each
// scenario by its campaign size makes the number independent of where in
// a round the time ran out.
func (m *mixStats) runsPerSec(parts []part) float64 {
	var seeds, secs float64
	for _, p := range parts {
		seeds += float64(p.seeds)
		secs += float64(p.seeds) / m.rate(p.scenario)
	}
	return seeds / secs
}

// latencyMS is the geometric mean over the parts of a statistic (in
// seconds) of each scenario's per-seed wall times, in milliseconds.
// Scenarios differ in cost by two orders of magnitude, so a statistic of
// the pooled seeds would fall in the gaps between them.
func (m *mixStats) latencyMS(parts []part, stat func([]time.Duration) float64) float64 {
	var logSum float64
	for _, p := range parts {
		logSum += math.Log(stat(m.seedTimes[p.scenario]))
	}
	return math.Exp(logSum/float64(len(parts))) * 1e3
}

// meanDur is the mean of ds in seconds.
func meanDur(ds []time.Duration) float64 {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum.Seconds() / float64(len(ds))
}

// p90Dur is the 90th percentile of ds in seconds.
func p90Dur(ds []time.Duration) float64 { return quantileDur(ds, 0.90) }

// runMix runs the parts round-robin until dur has passed and at least one
// full round has run. Round r of a part runs seeds base+r·seeds onward.
// Before each campaign it takes a host reference sample (ref may be nil).
func runMix(ctx context.Context, parts []part, base int64, workers int, dur time.Duration, ref *hostRef, spans *spanLog, parent int) (*mixStats, error) {
	m := newMixStats()
	start := time.Now()
	for r := 0; ; r++ {
		for _, p := range parts {
			if r > 0 && time.Since(start) >= dur {
				return m, nil
			}
			ref.sample()
			c, err := runCampaign(ctx, p, base+int64(r*p.seeds), workers, nil, spans, parent)
			if err != nil {
				return nil, err
			}
			m.add(c)
			if r == 0 {
				m.round0[p.scenario] = c.agg.PerRun
			}
		}
	}
}

// aggregateJSON renders an aggregate as the serve stream's terminal line
// carries it: compact, per-run results stripped.
func aggregateJSON(agg campaign.ScenarioAggregate) ([]byte, error) {
	agg.PerRun = nil
	return json.Marshal(agg)
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// checkScenario runs the first checkSeeds seeds of a scenario's round-0
// campaign twice, at GOMAXPROCS workers and at one worker (under a
// counting tracer when traced), and reports every way the outputs
// disagree: with each other, with the timed campaign's per-run results
// (round0, when given), and at workload seed 1 with the committed digest.
func checkScenario(ctx context.Context, r *runner, name string, round0 []scenario.Result) ([]string, error) {
	p := part{name, checkSeeds}
	base := seedBase(r.cfg.seed)
	nproc := runtime.GOMAXPROCS(0)
	par, err := runCampaign(ctx, p, base, nproc, nil, r.spans, r.checkSpan)
	if err != nil {
		return nil, err
	}
	var counts *workCounts
	if r.cfg.trace {
		counts = &workCounts{}
	}
	one, err := runCampaign(ctx, p, base, 1, counts, r.spans, r.checkSpan)
	if err != nil {
		return nil, err
	}
	r.attempted += 2 * checkSeeds
	var problems []string
	for _, c := range []campaignRun{par, one} {
		if c.agg.Errors > 0 {
			problems = append(problems, fmt.Sprintf("%s: %d of %d check seeds failed", name, c.agg.Errors, c.agg.Runs))
		}
	}
	parJSON, err := aggregateJSON(par.agg)
	if err != nil {
		return nil, err
	}
	oneJSON, err := aggregateJSON(one.agg)
	if err != nil {
		return nil, err
	}
	if !bytes.Equal(parJSON, oneJSON) {
		problems = append(problems, fmt.Sprintf("%s: aggregate at workers=1 (traced=%t) differs from workers=%d", name, r.cfg.trace, nproc))
	}
	if msg := diffRuns(par.agg.PerRun, one.agg.PerRun); msg != "" {
		problems = append(problems, fmt.Sprintf("%s: per-run results at workers=1 differ from workers=%d: %s", name, nproc, msg))
	}
	if round0 != nil {
		if len(round0) < checkSeeds {
			problems = append(problems, fmt.Sprintf("%s: timed campaign has %d runs, want at least %d", name, len(round0), checkSeeds))
		} else if msg := diffRuns(par.agg.PerRun, round0[:checkSeeds]); msg != "" {
			problems = append(problems, fmt.Sprintf("%s: timed per-run results differ from the check campaign: %s", name, msg))
		}
	}
	if r.cfg.seed == 1 {
		problems = append(problems, r.checkDigest(name, parJSON)...)
	}
	return problems, nil
}

// checkDigest compares an aggregate with its committed seed-1 digest.
func (r *runner) checkDigest(key string, agg []byte) []string {
	want, ok := r.cfg.digests[key]
	got := digest(agg)
	switch {
	case !ok:
		return []string{fmt.Sprintf("%s: no committed digest (got %s)", key, got)}
	case want != got:
		return []string{fmt.Sprintf("%s: aggregate digest %s, committed %s", key, got, want)}
	}
	return nil
}

// diffRuns describes the first difference between two per-run result
// lists, or returns "" when they are byte-identical.
func diffRuns(a, b []scenario.Result) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d runs vs %d", len(a), len(b))
	}
	for i := range a {
		x, errX := json.Marshal(a[i])
		y, errY := json.Marshal(b[i])
		if errX != nil || errY != nil || !bytes.Equal(x, y) {
			return fmt.Sprintf("seed %d", a[i].Seed)
		}
	}
	return ""
}

// quantileDur is the q-th quantile of ds in seconds (nearest rank).
func quantileDur(ds []time.Duration, q float64) float64 {
	if len(ds) == 0 {
		return math.NaN()
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i].Seconds()
}
