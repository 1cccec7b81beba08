package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"
)

// workScenarios are the scenarios that thread scenario.Config.Tracer into
// their labs, so their trace events can be counted. racemargin, netsweep
// and ratelimit do not, so they have no work counts.
var workScenarios = []string{"boot", "table1", "runtime", "table2", "chronos"}

// workSeeds is how many seeds of each work scenario the traced run counts.
const workSeeds = 16

// layers is the traced run. It times calls into each layer from outside
// and reports the per-layer metrics; the same metric set comes out of
// every workload, with the workload's own campaigns or jobs measured for
// longer than the rest.
func (r *runner) layers(ctx context.Context, sb *serveBench) error {
	dur := time.Duration(r.cfg.seconds * float64(time.Second))
	base := seedBase(r.cfg.seed)
	parts := r.parts(r.w.parts)

	// The workload's mix at the timed phase's one worker, then at
	// GOMAXPROCS workers for the scaling and idle numbers.
	var own *mixStats
	var err error
	if r.w.serve {
		if err := r.serveLayer(ctx, sb, serveJobs(r.cfg.seconds), r.root); err != nil {
			return err
		}
		own, err = runMix(ctx, parts, base, timedWorkers, dur/4, nil, r.spans, r.root)
	} else {
		own, err = runMix(ctx, parts, base, timedWorkers, dur/2, nil, r.spans, r.root)
	}
	if err != nil {
		return err
	}
	r.countSeeds(own)
	nproc := runtime.GOMAXPROCS(0)
	many, err := runMix(ctx, parts, base, nproc, dur/4, nil, r.spans, r.root)
	if err != nil {
		return err
	}
	r.countSeeds(many)
	r.set("campaign.fold_ms", "ms", 1e3*own.fold.Seconds()/float64(own.campaigns))
	r.set("campaign.idle_frac", "frac", 1-many.busy.Seconds()/many.capacity.Seconds())
	r.set("campaign.scaling_eff", "frac", many.runsPerSec(parts)/(float64(nproc)*own.runsPerSec(parts)))

	seedP50, err := r.scenarioLayer(ctx, own, dur/30)
	if err != nil {
		return err
	}
	if err := r.workLayer(ctx, seedP50); err != nil {
		return err
	}
	r.probeLayer(dur / 50)
	if r.w.serve {
		return nil
	}
	short, err := startServe(ctx, r)
	if err != nil {
		return err
	}
	defer short.close()
	if err := r.serveLayer(ctx, short, serveJobs(r.cfg.seconds/5), r.root); err != nil {
		return err
	}
	return r.checkCampaigns(ctx, own)
}

// scenarioLayer reports every scenario's throughput and median seed time
// at its home campaign size: from the workload's own pass where that
// timed it, otherwise from a short sweep after a one-seed warm-up
// campaign, which loads the scenario's code and fills the one worker's lab.
func (r *runner) scenarioLayer(ctx context.Context, own *mixStats, box time.Duration) (map[string]float64, error) {
	span := r.spans.begin("sweep", "scenario sweep", r.root)
	defer r.spans.end(span)
	base := seedBase(r.cfg.seed)
	seedP50 := map[string]float64{}
	for _, p := range r.parts(homeParts()) {
		m := own
		if r.w.serve || own.seeds[p.scenario] == 0 {
			if _, err := runCampaign(ctx, part{p.scenario, 1}, base+warmOffset, timedWorkers, nil, r.spans, span); err != nil {
				return nil, err
			}
			var err error
			if m, err = runMix(ctx, []part{p}, base, timedWorkers, box, nil, r.spans, span); err != nil {
				return nil, err
			}
			r.countSeeds(m)
		}
		r.set("scenario."+p.scenario+".runs_per_s", "1/s", m.rate(p.scenario))
		if timedScenario(p.scenario) {
			seedP50[p.scenario] = 1e3 * quantileDur(m.seedTimes[p.scenario], 0.5)
			r.set("scenario."+p.scenario+".seed_ms.p50", "ms", seedP50[p.scenario])
		}
	}
	return seedP50, nil
}

// workLayer runs the same seeds of each work scenario untraced at
// GOMAXPROCS workers, untraced at one worker and traced at one worker. The traced
// aggregate must equal the untraced one byte for byte; the trace events
// give the work counts, and the two one-worker passes the tracing cost.
func (r *runner) workLayer(ctx context.Context, seedP50 map[string]float64) error {
	span := r.spans.begin("work", "work counts", r.root)
	defer r.spans.end(span)
	n := workSeeds
	if c := r.cfg.chunkCap; c > 0 {
		n = min(n, max(c, checkSeeds))
	}
	base := seedBase(r.cfg.seed) + workOffset
	var plain, traced time.Duration
	for _, name := range workScenarios {
		p := part{name, n}
		par, err := runCampaign(ctx, p, base, runtime.GOMAXPROCS(0), nil, r.spans, span)
		if err != nil {
			return err
		}
		one, err := runCampaign(ctx, p, base, 1, nil, r.spans, span)
		if err != nil {
			return err
		}
		counts := &workCounts{}
		tr, err := runCampaign(ctx, p, base, 1, counts, r.spans, span)
		if err != nil {
			return err
		}
		r.attempted += 3 * n
		plain += one.wall
		traced += tr.wall
		for _, c := range []campaignRun{par, one, tr} {
			if c.agg.Errors > 0 {
				r.fail(c.agg.Errors, fmt.Sprintf("%s: %d work seeds failed", name, c.agg.Errors))
			}
		}
		parJSON, err := aggregateJSON(par.agg)
		if err != nil {
			return err
		}
		trJSON, err := aggregateJSON(tr.agg)
		if err != nil {
			return err
		}
		if !bytes.Equal(parJSON, trJSON) {
			r.fail(1, fmt.Sprintf("%s: traced workers=1 aggregate differs from untraced workers=%d", name, runtime.GOMAXPROCS(0)))
		}
		if msg := diffRuns(par.agg.PerRun, tr.agg.PerRun); msg != "" {
			r.fail(1, fmt.Sprintf("%s: traced per-run results differ: %s", name, msg))
		}
		seeds := float64(counts.seeds)
		for k, v := range counts.n {
			r.set(fmt.Sprintf("work.%s.%s", name, workNames[k]), "count", float64(v)/seeds)
		}
		r.set("cost."+name+".ns_per_fire", "ns", seedP50[name]*1e6/(float64(counts.n[workFires])/seeds))
	}
	r.set("obs.trace_overhead_frac", "frac", 1-plain.Seconds()/traced.Seconds())
	return nil
}

// probeLayer times each layer's entry points in isolation.
func (r *runner) probeLayer(box time.Duration) {
	box = min(max(box, time.Millisecond), 200*time.Millisecond)
	span := r.spans.begin("probes", "layer probes", r.root)
	defer r.spans.end(span)
	for _, p := range probes(r.cfg.seed) {
		id := r.spans.begin("probe", p.name, span)
		ns, err := timeOp(box, p.op)
		r.spans.end(id)
		if err != nil {
			r.fail(1, fmt.Sprintf("probe %s: %v", p.name, err))
		}
		r.set(p.name, p.unit, ns/p.scale)
	}
	allocs, err := labResetAllocs(r.cfg.seed)
	if err != nil {
		r.fail(1, fmt.Sprintf("core.lab_reset_allocs: %v", err))
	}
	r.set("core.lab_reset_allocs", "count", allocs)
}

// serveLayer runs a serve pass of the job list's first jobs and reports
// the serve layer's metrics; a kind of job the pass did not produce
// reports 0. For serve-mix, whose own server this is, it then runs the
// output checks.
func (r *runner) serveLayer(ctx context.Context, sb *serveBench, jobs int, parent int) error {
	span := r.spans.begin("serve", "serve pass", parent)
	list := newJobList(r.cfg.seed)
	ps := sb.pass(ctx, list, jobs, nil, span)
	r.spans.end(span)
	r.servePass(ps)
	quantile := func(q float64, keep func(jobRecord) bool, value func(jobRecord) time.Duration) float64 {
		ds := ps.durations(keep, value)
		if len(ds) == 0 {
			return 0
		}
		return 1e3 * quantileDur(ds, q)
	}
	p50 := func(keep func(jobRecord) bool, value func(jobRecord) time.Duration) float64 {
		return quantile(0.5, keep, value)
	}
	total := func(j jobRecord) time.Duration { return j.total }
	r.set("serve.job_ms.p99", "ms", quantile(0.99, jobRecord.ok, total))
	r.set("serve.submit_ms.p50", "ms", p50(jobRecord.ok, func(j jobRecord) time.Duration { return j.submit }))
	r.set("serve.stream_ms.p50", "ms", p50(jobRecord.ok, func(j jobRecord) time.Duration { return j.stream }))
	r.set("serve.first_result_ms.p50", "ms", p50(func(j jobRecord) bool { return j.kind == kindCold }, func(j jobRecord) time.Duration { return j.first }))
	for _, kind := range []string{kindCold, kindWarm, kindHit, kindCoalesced} {
		r.set("serve."+kind+"_ms.p50", "ms", p50(func(j jobRecord) bool { return j.kind == kind }, total))
		r.set("serve."+kind, "count", float64(ps.count(kind)))
	}
	r.set("serve.rejected", "count", float64(ps.count(kindRejected)))
	r.set("serve.cache_hit_ratio", "frac", float64(ps.count(kindHit))/float64(len(ps.jobs)))
	executed, resumed, err := sb.engineRuns(ctx)
	if err != nil {
		return err
	}
	r.set("serve.executed_runs", "count", float64(executed-sb.executed0))
	r.set("serve.resumed_runs", "count", float64(resumed-sb.resumed0))
	retained := float64(int64(heapAfterGC()) - int64(sb.heap0))
	r.set("serve.retained_kb_per_job", "KiB", retained/1024/float64(len(ps.jobs)))
	if r.w.serve {
		r.checkServe(ctx, sb, list)
	}
	return nil
}
