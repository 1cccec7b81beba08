package measure

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"dnstime/internal/obs"
	"dnstime/internal/population"
	"dnstime/internal/scenario"
)

// The §VII/§VIII measurement studies register themselves with the
// scenario registry. Each Run owns its population's seed offset (seed+42
// for the rate-limit scan, seed+11 for cache snooping, …), which lives
// nowhere else, so campaign seed 1 reproduces the EXPERIMENTS.md point
// values. Each also sets Result.Detail to its typed result, which the
// single-seed `experiments` sections render.
func init() {
	scenario.Register(scenario.Scenario{
		Name:     "ratelimit",
		Title:    "Rate-limit pool scan",
		PaperRef: "§VII-A",
		Impl:     "measure.RateLimitScan",
		CLI:      "experiments -only ratelimit",
		Params:   map[string]string{"servers": "2432", "queries": "64@1/s"},
		Order:    70,
		Run:      rateLimitScenario,
	})
	scenario.Register(scenario.Scenario{
		Name:     "nsfrag",
		Title:    "Nameserver frag scan",
		PaperRef: "§VII-B",
		Impl:     "measure.FragScan",
		CLI:      "experiments -only nsfrag",
		Params:   map[string]string{"nameservers": "30"},
		Order:    80,
		Run:      nsFragScenario,
	})
	scenario.Register(scenario.Scenario{
		Name:     "fig5",
		Title:    "Fragment-size CDF",
		PaperRef: "§VII-B, Fig. 5",
		Impl:     "measure.FragScan",
		CLI:      "experiments -only fig5",
		Params:   map[string]string{"domains": "100000"},
		Order:    90,
		Run:      fig5Scenario,
	})
	scenario.Register(scenario.Scenario{
		Name:     "table4",
		Title:    "Resolver cache snooping",
		PaperRef: "§VIII-B1, Table IV",
		Impl:     "measure.SnoopOpenResolvers",
		CLI:      "experiments -only table4",
		Params:   map[string]string{"resolvers": "200000"},
		Order:    100,
		Run:      tableIVScenario,
	})
	scenario.Register(scenario.Scenario{
		Name:     "fig6",
		Title:    "Cached-TTL distribution",
		PaperRef: "§VIII-B1, Fig. 6",
		Impl:     "measure.SnoopOpenResolvers",
		CLI:      "experiments -only fig6",
		Params:   map[string]string{"resolvers": "200000"},
		Order:    110,
		Run:      fig6Scenario,
	})
	scenario.Register(scenario.Scenario{
		Name:     "table5",
		Title:    "Ad-network client study",
		PaperRef: "§VIII-B2, Table V",
		Impl:     "measure.AdStudy",
		CLI:      "experiments -only table5",
		Params:   map[string]string{"clients": "~8000"},
		Order:    120,
		Run:      tableVScenario,
	})
	scenario.Register(scenario.Scenario{
		Name:     "shared",
		Title:    "Shared-resolver study",
		PaperRef: "§VIII-B3",
		Impl:     "measure.SharedResolverStudy",
		CLI:      "experiments -only shared",
		Params:   map[string]string{"resolvers": "18668"},
		Order:    130,
		Run:      sharedScenario,
	})
	scenario.Register(scenario.Scenario{
		Name:     "fig7",
		Title:    "Timing side channel",
		PaperRef: "§VIII-B1, Fig. 7",
		Impl:     "measure.TimingSideChannel",
		CLI:      "experiments -only fig7",
		Params:   map[string]string{"resolvers": "20000"},
		Order:    140,
		Run:      fig7Scenario,
	})
}

// rateLimitScenario runs the §VII-A scan over a 2432-server pool.
func rateLimitScenario(_ context.Context, seed int64, cfg scenario.Config) (scenario.Result, error) {
	specs := population.GeneratePool(population.DefaultPoolConfig(), seed+42)
	scan := DefaultScanConfig()
	scan.Tracer = cfg.Tracer
	res, err := RateLimitScan(specs, scan)
	if err != nil {
		return scenario.Result{}, err
	}
	return scenario.Result{
		Metrics: map[string]float64{
			"servers":          float64(res.Servers),
			"kod_senders":      float64(res.KoDSenders),
			"kod_pct":          res.KoDPct(),
			"rate_limited":     float64(res.RateLimited),
			"rate_limited_pct": res.RateLimitedPct(),
		},
		Detail: res,
	}, nil
}

// nsFragScenario runs the §VII-B pool-nameserver scan.
func nsFragScenario(_ context.Context, seed int64, _ scenario.Config) (scenario.Result, error) {
	specs := population.GeneratePoolNameservers(population.DefaultPoolNameserverConfig(), seed+3)
	res := FragScan(specs, nil)
	return scenario.Result{
		Metrics: map[string]float64{
			"total":          float64(res.Total),
			"frag_below_548": float64(res.FragBelow548),
			"dnssec":         float64(res.DNSSEC),
		},
		Detail: res,
	}, nil
}

// fig5Scenario evaluates the Figure 5 CDF over the 100k-domain
// nameserver population.
func fig5Scenario(_ context.Context, seed int64, _ scenario.Config) (scenario.Result, error) {
	f := newFragFold(nil)
	for _, c := range population.TallyDomainNameservers(population.DefaultDomainNameserverConfig(), seed+5) {
		f.add(c.Spec, c.N)
	}
	res := f.result()
	metrics := map[string]float64{"frag_nodnssec_pct": res.FragNoDNSSECPct()}
	for _, size := range []float64{68, 292, 548, 1276, 1500} {
		metrics[fmt.Sprintf("cdf_pct/%.0fB", size)] = 100 * res.CumAt(size)
	}
	return scenario.Result{Metrics: metrics, Detail: res}, nil
}

// snoopPopulation snoops the Table IV / Figure 6 open-resolver population
// of campaign seed seed as it is drawn. table4 and fig6 read the one
// §VIII-B1 measurement, so the draw for a seed runs once while the snoop
// memo holds it, and the other scenario gets a copy.
func snoopPopulation(seed int64) SnoopResult {
	popSeed := seed + 11
	if res, ok := snoops.get(popSeed); ok {
		return res
	}
	res := SnoopOpenResolvers(population.DefaultOpenResolverConfig(), popSeed)
	snoops.put(popSeed, res)
	return res
}

// snoopMemoCap is the number of draws the snoop memo holds: the default
// `campaigns -seeds`, so a default campaign of table4 and then fig6 draws
// each seed once. 64 entries of about 1.6 KB stay under 128 KiB.
const snoopMemoCap = 64

// snoopMemo holds the last snoopMemoCap snoopPopulation results, each
// keyed by its population seed (the campaign seed + 11). It is
// pure: a hit returns copies of exactly what the miss computed, so runs
// that share it still share nothing mutable (DESIGN §6). It is safe for
// concurrent use; the draw runs outside its lock, so two concurrent
// misses on one key both draw and store equal results.
type snoopMemo struct {
	mu      sync.Mutex
	entries []snoopEntry // most recently used first
}

type snoopEntry struct {
	seed int64       // population seed
	res  SnoopResult // Rows and TTLCounts belong to the memo
}

var snoops snoopMemo

var (
	snoopMemoHits = obs.Default.Counter("dnstime_snoop_memo_hits_total",
		"table4/fig6 open-resolver snoops answered from the snoop memo.")
	snoopMemoMisses = obs.Default.Counter("dnstime_snoop_memo_misses_total",
		"table4/fig6 open-resolver snoops that drew the population.")
)

// get returns a copy of seed's result, if the memo holds it, and makes it
// the most recently used.
func (m *snoopMemo) get(seed int64) (SnoopResult, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	i := slices.IndexFunc(m.entries, func(e snoopEntry) bool { return e.seed == seed })
	if i < 0 {
		snoopMemoMisses.Inc()
		return SnoopResult{}, false
	}
	snoopMemoHits.Inc()
	m.front(i)
	return m.entries[0].res.clone(), true
}

// put stores a copy of seed's result as the most recently used, evicting
// the least recently used when the memo is full. A seed a concurrent miss
// has stored meanwhile, with an equal result, only moves to the front.
func (m *snoopMemo) put(seed int64, res SnoopResult) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if i := slices.IndexFunc(m.entries, func(e snoopEntry) bool { return e.seed == seed }); i >= 0 {
		m.front(i)
		return
	}
	if len(m.entries) < snoopMemoCap {
		m.entries = append(m.entries, snoopEntry{})
	}
	copy(m.entries[1:], m.entries)
	m.entries[0] = snoopEntry{seed, res.clone()}
}

// front moves entry i to the front.
func (m *snoopMemo) front(i int) {
	e := m.entries[i]
	copy(m.entries[1:i+1], m.entries[:i])
	m.entries[0] = e
}

// clone returns r with copies of its Rows and TTLCounts.
func (r SnoopResult) clone() SnoopResult {
	r.Rows = slices.Clone(r.Rows)
	r.TTLCounts = slices.Clone(r.TTLCounts)
	return r
}

// tableIVScenario snoops the open-resolver population for the Table IV
// cached-record percentages.
func tableIVScenario(_ context.Context, seed int64, _ scenario.Config) (scenario.Result, error) {
	res := snoopPopulation(seed)
	metrics := map[string]float64{
		"probed":   float64(res.Probed),
		"verified": float64(res.Verified),
	}
	for _, row := range res.Rows {
		metrics["cached_pct/"+string(row.Record)] = row.CachedPct
		metrics["cached/"+string(row.Record)] = float64(row.Cached)
	}
	return scenario.Result{Metrics: metrics, Detail: res}, nil
}

// fig6Scenario reads the remaining-TTL distribution back from the same
// snooped population as table4.
func fig6Scenario(_ context.Context, seed int64, _ scenario.Config) (scenario.Result, error) {
	res := snoopPopulation(seed)
	h := res.TTLHistogram()
	return scenario.Result{
		Metrics: map[string]float64{
			"ttl_samples":  float64(h.Total()),
			"ttl_mean_s":   res.TTLMean(),
			"ttl_median_s": res.TTLMedian(),
		},
		Detail: res,
	}, nil
}

// tableVScenario runs the §VIII-B2 ad-network client study.
func tableVScenario(_ context.Context, seed int64, _ scenario.Config) (scenario.Result, error) {
	var f adFold
	for c := range population.AdClients(population.DefaultAdStudyConfig(), seed+9) {
		f.client(&c)
	}
	res := f.result()
	metrics := map[string]float64{
		"valid_clients":  float64(res.ValidClients),
		"filtered":       float64(res.Filtered),
		"google_clients": float64(res.GoogleClients),
		"dnssec_min_pct": res.DNSSECMinPct,
		"dnssec_max_pct": res.DNSSECMaxPct,
	}
	for _, row := range res.Rows {
		metrics["tiny_pct/"+row.Label] = row.TinyPct
		metrics["any_pct/"+row.Label] = row.AnyPct
	}
	return scenario.Result{Metrics: metrics, Detail: res}, nil
}

// sharedScenario classifies the §VIII-B3 shared-resolver topology.
func sharedScenario(_ context.Context, seed int64, _ scenario.Config) (scenario.Result, error) {
	var res SharedResolverResult
	for s := range population.SharedResolvers(population.DefaultSharedResolverConfig(), seed+21) {
		res.resolver(s)
	}
	return scenario.Result{
		Metrics: map[string]float64{
			"total":           float64(res.Total),
			"web_only":        float64(res.WebOnly),
			"web_smtp":        float64(res.WebAndSMTP),
			"open":            float64(res.OpenOnly),
			"open_smtp":       float64(res.OpenAndSMTP),
			"triggerable":     float64(res.Triggerable()),
			"triggerable_pct": res.TriggerablePct(),
		},
		Detail: res,
	}, nil
}

// fig7Scenario bins the Figure 7 latency-difference distribution over
// 20k resolvers as it is drawn; its Detail is the histogram.
func fig7Scenario(_ context.Context, seed int64, _ scenario.Config) (scenario.Result, error) {
	h := newTimingHistogram()
	for d := range population.TimingDeltas(population.DefaultTimingProbeConfig(), seed+17) {
		h.Add(d)
	}
	return scenario.Result{
		Metrics: map[string]float64{
			"samples":       float64(h.Total()),
			"clamped_under": float64(h.Under()),
			"clamped_over":  float64(h.Over()),
		},
		Detail: h,
	}, nil
}
