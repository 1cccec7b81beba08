package campaign

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"time"

	"dnstime/internal/obs"
	"dnstime/internal/scenario"
)

// Option configures an Engine (functional-option style). Options
// distinguish "unset" from an explicit zero value: WithBaseSeed(0) really
// runs seed 0.
type Option func(*engineConfig)

// engineConfig is the resolved option set an Engine runs with.
type engineConfig struct {
	seeds       int
	baseSeed    int64
	baseSeedSet bool
	workers     int
	fast        bool
	params      scenario.Params
	progress    func(done, total int)
	checkpoint  string
	forceResume bool
	tracerFor   func(seed int64) (obs.Tracer, error)
}

// seedSeconds is the per-scenario seed execution latency histogram every
// Engine feeds (obs.Default; exposed on the serve /metrics Prometheus
// view). It measures wall-clock run time only — virtual time and campaign
// output are unaffected by observation.
var seedSeconds = obs.Default.HistogramVec("dnstime_engine_seed_seconds",
	"Wall-clock seconds spent executing one campaign seed, by scenario.",
	"scenario", obs.DurationBuckets)

// WithSeeds sets the number of independent seeds (default 16). Run i uses
// seed BaseSeed+i.
func WithSeeds(n int) Option { return func(c *engineConfig) { c.seeds = n } }

// WithBaseSeed sets the first seed (default 1). An explicit 0 is
// honoured: the campaign runs seeds 0, 1, 2, ….
func WithBaseSeed(s int64) Option {
	return func(c *engineConfig) { c.baseSeed = s; c.baseSeedSet = true }
}

// WithWorkers caps concurrent runs (default GOMAXPROCS).
func WithWorkers(n int) Option { return func(c *engineConfig) { c.workers = n } }

// WithFast passes Fast through to every run's scenario.Config (shrinks
// the slowest scenarios' populations).
func WithFast(fast bool) Option { return func(c *engineConfig) { c.fast = fast } }

// WithParams merges params into the scenario params every run receives.
// Keys are validated against the scenario's ParamKeys before any run
// starts.
func WithParams(p scenario.Params) Option {
	return func(c *engineConfig) {
		for k, v := range p {
			c.setParam(k, v)
		}
	}
}

// WithParam sets one scenario param (see WithParams).
func WithParam(key, value string) Option {
	return func(c *engineConfig) { c.setParam(key, value) }
}

func (c *engineConfig) setParam(k, v string) {
	if c.params == nil {
		c.params = scenario.Params{}
	}
	c.params[k] = v
}

// WithProgress installs a progress callback, called after each completed
// run with the number done so far (resumed seeds count as already done).
// Calls are serialised but arrive in completion order, not seed order.
func WithProgress(fn func(done, total int)) Option {
	return func(c *engineConfig) { c.progress = fn }
}

// WithCheckpoint persists the campaign in the JSONL checkpoint at path:
// one header line identifying the campaign, then one line per completed
// seed in completion order. A missing file is created with its header.
// An existing file must carry a matching header (scenario, fast mode,
// params); its in-range seeds are reused byte-identically instead of
// re-executed, a line torn by a crash is truncated away, and new seeds
// are appended. So one invocation serves the first run and every
// resumption, a rerun never wipes a recorded seed, and an interrupted
// campaign folds into the same aggregate as an uninterrupted one. The
// seed range may differ from the header's: only in-range seeds are
// reused, so a file can also extend a campaign to more seeds.
func WithCheckpoint(path string) Option {
	return func(c *engineConfig) { c.checkpoint = path }
}

// WithTracerFactory installs a per-seed tracer source: the factory is
// called once per executed seed and the returned tracer observes that
// seed's run (scenario.Config.Tracer). A tracer that implements io.Closer
// is closed when its run completes. A factory or Close error fails that
// seed's run — the trace was requested, so a seed that cannot record one
// did not complete as asked. Seeds reused from a checkpoint are not
// re-executed and produce no trace.
func WithTracerFactory(fn func(seed int64) (obs.Tracer, error)) Option {
	return func(c *engineConfig) { c.tracerFor = fn }
}

// WithResumeForce lets WithCheckpoint reuse the seeds of a checkpoint
// written by a different VCS revision of this binary. By default such a
// file is set aside at <path>.stale and the campaign starts afresh:
// per-seed results are only reproducible under the simulator code that
// produced them, so mixing revisions can fold incomparable seeds into
// one aggregate. Forcing is for when the caller knows the intervening
// changes cannot affect the scenario's results.
func WithResumeForce() Option {
	return func(c *engineConfig) { c.forceResume = true }
}

// Engine is the single execution surface for multi-seed campaigns: it
// fans a registered scenario (optionally parameterised) out across N
// independent seeds on a worker pool, streams per-seed Results in
// completion order, folds a deterministic seed-order aggregate, honours
// context cancellation by draining workers and returning a partial
// aggregate, and can checkpoint/resume itself across interruptions.
// An Engine is a reusable option set; each Run/Stream call executes one
// campaign.
type Engine struct {
	cfg engineConfig
}

// NewEngine builds an Engine from options. Defaults: 16 seeds, base seed
// 1, GOMAXPROCS workers, full-size populations, no params, no checkpoint.
func NewEngine(opts ...Option) *Engine {
	e := &Engine{}
	for _, opt := range opts {
		opt(&e.cfg)
	}
	return e
}

// resolved returns the engine config with defaults applied.
func (e *Engine) resolved() engineConfig {
	c := e.cfg
	if c.seeds <= 0 {
		c.seeds = DefaultSeeds
	}
	if !c.baseSeedSet {
		c.baseSeed = DefaultBaseSeed
	}
	if c.workers <= 0 {
		c.workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Run executes the campaign over the named registered scenario and blocks
// until every seed completes (or ctx is cancelled — then the returned
// aggregate is partial, marked Partial, covers exactly the completed
// seeds, and the error is ctx's). The aggregate's bytes do not depend on
// the worker count and match Stream's.
func (e *Engine) Run(ctx context.Context, scenarioName string) (ScenarioAggregate, error) {
	st, err := e.Stream(ctx, scenarioName)
	if err != nil {
		return ScenarioAggregate{}, err
	}
	return st.Wait()
}

// Stream starts the campaign and returns a Stream yielding per-seed
// Results in completion order (resumed seeds first, in seed order). The
// seed-order aggregate is folded incrementally as results arrive; call
// Wait for it after (or instead of) consuming Results.
func (e *Engine) Stream(ctx context.Context, scenarioName string) (*Stream, error) {
	sc, ok := scenario.Lookup(scenarioName)
	if !ok {
		return nil, fmt.Errorf("campaign: unknown scenario %q (have: %s)",
			scenarioName, strings.Join(scenario.Names(), ", "))
	}
	cfg := e.resolved()
	if err := sc.AcceptsParams(cfg.params); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	var resumed map[int64]scenario.Result
	var ckpt *checkpointWriter
	if cfg.checkpoint != "" {
		var err error
		if resumed, ckpt, err = openCheckpoint(cfg.checkpoint, cfg, sc.Name); err != nil {
			return nil, err
		}
	}

	st := &Stream{
		results: make(chan scenario.Result, cfg.seeds),
		done:    make(chan struct{}),
	}
	slots := make([]*scenario.Result, cfg.seeds)
	var jobs []int
	for i := 0; i < cfg.seeds; i++ {
		if res, ok := resumed[cfg.baseSeed+int64(i)]; ok {
			res := res
			slots[i] = &res
			st.results <- res
		} else {
			jobs = append(jobs, i)
		}
	}

	var (
		mu      sync.Mutex
		done    = cfg.seeds - len(jobs)
		ckptErr error
	)
	workers := cfg.workers
	if workers > len(jobs) {
		workers = len(jobs)
	}
	// Workers claim the remaining seeds in contiguous chunks of
	// len(jobs)/(4·workers), at least one, rather than one seed per
	// channel round-trip, keeping each worker's pooled lab hot across
	// consecutive seeds. Chunk size is a pure scheduling knob: every
	// per-seed effect (result slot, progress call, checkpoint line,
	// cancellation check) is unchanged, so output bytes cannot depend on
	// it.
	batch := 1
	if workers > 0 {
		batch = max(1, len(jobs)/(4*workers))
	}
	chunkCh := make(chan []int, (len(jobs)+batch-1)/batch)
	for start := 0; start < len(jobs); start += batch {
		end := start + batch
		if end > len(jobs) {
			end = len(jobs)
		}
		chunkCh <- jobs[start:end]
	}
	close(chunkCh)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for chunk := range chunkCh {
				for _, i := range chunk {
					if ctx.Err() != nil {
						continue // drain remaining seeds without running them
					}
					seed := cfg.baseSeed + int64(i)
					res, err := runSeed(ctx, sc, seed,
						scenario.Config{Fast: cfg.fast, Params: cfg.params}, cfg.tracerFor)
					if err != nil {
						if ctx.Err() != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
							continue // cancelled mid-run: not a completed seed
						}
						res.Err = err.Error()
					}
					res.Seed = seed
					mu.Lock()
					slots[i] = &res
					done++
					if cfg.progress != nil {
						cfg.progress(done, cfg.seeds)
					}
					if ckpt != nil && ckptErr == nil {
						ckptErr = ckpt.write(res)
					}
					mu.Unlock()
					st.results <- res
				}
			}
		}()
	}

	go func() {
		wg.Wait()
		close(st.results)
		var results []scenario.Result
		for _, r := range slots {
			if r != nil {
				results = append(results, *r)
			}
		}
		foldStart := time.Now()
		st.agg = foldScenario(sc, results)
		obs.ObservePhase(obs.PhaseFold, time.Since(foldStart))
		if len(results) < cfg.seeds {
			st.agg.Partial = true
			st.err = ctx.Err()
		}
		if ckpt != nil {
			if err := ckpt.close(); err != nil && ckptErr == nil {
				ckptErr = err
			}
			// A checkpoint I/O failure must surface even when the campaign
			// was also cancelled — the resume hint would otherwise point at
			// a file that recorded almost nothing.
			switch {
			case ckptErr == nil:
			case st.err == nil:
				st.err = ckptErr
			default:
				st.err = errors.Join(st.err, ckptErr)
			}
		}
		close(st.done)
	}()
	return st, nil
}

// runSeed executes one seed: it materialises the per-seed tracer (when
// tracing is on), runs the scenario with it, closes the tracer, and feeds
// the obs run-phase and seed-latency instrumentation. Tracer creation or
// Close failures fail the run.
func runSeed(ctx context.Context, sc scenario.Scenario, seed int64, cfg scenario.Config, tracerFor func(seed int64) (obs.Tracer, error)) (scenario.Result, error) {
	var closeTracer io.Closer
	if tracerFor != nil {
		tr, err := tracerFor(seed)
		if err != nil {
			return scenario.Result{}, fmt.Errorf("campaign: tracer for seed %d: %w", seed, err)
		}
		cfg.Tracer = tr
		if c, ok := tr.(io.Closer); ok {
			closeTracer = c
		}
	}
	start := time.Now()
	res, err := sc.Run(ctx, seed, cfg)
	d := time.Since(start)
	obs.ObservePhase(obs.PhaseRun, d)
	seedSeconds.With(sc.Name).Observe(d.Seconds())
	if closeTracer != nil {
		if cerr := closeTracer.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("campaign: trace for seed %d: %w", seed, cerr)
		}
	}
	return res, err
}

// Stream is one running campaign: a channel of per-seed Results in
// completion order plus the deterministic seed-order aggregate once all
// workers have drained.
type Stream struct {
	results chan scenario.Result
	done    chan struct{}
	agg     ScenarioAggregate
	err     error
}

// Results yields every completed seed's Result in completion order and is
// closed once all workers have drained. The channel is buffered for the
// whole campaign, so a caller that only wants the aggregate may ignore it
// and call Wait directly.
func (s *Stream) Results() <-chan scenario.Result { return s.results }

// Wait blocks until every worker has drained (all seeds completed, or the
// context cancelled) and returns the seed-order aggregate. After
// cancellation the aggregate is marked Partial, covers exactly the
// completed seeds, and the error is the context's; a checkpoint I/O
// failure is also reported here.
func (s *Stream) Wait() (ScenarioAggregate, error) {
	<-s.done
	return s.agg, s.err
}
