package measure

import (
	"context"
	"fmt"

	"dnstime/internal/population"
	"dnstime/internal/scenario"
	"dnstime/internal/stats"
)

// The §VII/§VIII measurement studies register themselves with the
// scenario registry. Each Run keeps the seed offset the single-seed
// `experiments` CLI has always used (seed+42 for the rate-limit scan,
// seed+11 for cache snooping, …) so campaign seed 1 reproduces the
// EXPERIMENTS.md point values. Config.Fast shrinks the large populations
// for quick runs.
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

// rateLimitScenario runs the §VII-A scan over a 2432-server pool (300 in
// fast mode, matching `experiments -fast`).
func rateLimitScenario(_ context.Context, seed int64, cfg scenario.Config) (scenario.Result, error) {
	pool := population.DefaultPoolConfig()
	if cfg.Fast {
		pool.Servers = 300
	}
	specs := population.GeneratePool(pool, seed+42)
	res, err := RateLimitScan(specs, DefaultScanConfig())
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
	}, nil
}

// fig5Scenario evaluates the Figure 5 CDF over the 1M-domain nameserver
// population (10k domains in fast mode).
func fig5Scenario(_ context.Context, seed int64, cfg scenario.Config) (scenario.Result, error) {
	popCfg := population.DefaultDomainNameserverConfig()
	if cfg.Fast {
		popCfg.Total = 10000
	}
	specs := population.GenerateDomainNameservers(popCfg, seed+5)
	res := FragScan(specs, nil)
	metrics := map[string]float64{"frag_nodnssec_pct": res.FragNoDNSSECPct()}
	for _, size := range []float64{68, 292, 548, 1276, 1500} {
		metrics[fmt.Sprintf("cdf_pct/%.0fB", size)] = 100 * res.CumAt(size)
	}
	return scenario.Result{Metrics: metrics}, nil
}

// snoopPopulation snoops the Table IV / Figure 6 open-resolver population
// as it is drawn (20k resolvers in fast mode).
func snoopPopulation(seed int64, cfg scenario.Config) SnoopResult {
	popCfg := population.DefaultOpenResolverConfig()
	if cfg.Fast {
		popCfg.Total = 20000
	}
	return SnoopOpenResolvers(popCfg, seed+11)
}

// tableIVScenario snoops the open-resolver population for the Table IV
// cached-record percentages.
func tableIVScenario(_ context.Context, seed int64, cfg scenario.Config) (scenario.Result, error) {
	res := snoopPopulation(seed, cfg)
	metrics := map[string]float64{
		"probed":   float64(res.Probed),
		"verified": float64(res.Verified),
	}
	for _, row := range res.Rows {
		metrics["cached_pct/"+string(row.Record)] = row.CachedPct
		metrics["cached/"+string(row.Record)] = float64(row.Cached)
	}
	return scenario.Result{Metrics: metrics}, nil
}

// fig6Scenario reads the remaining-TTL distribution back from the same
// snooped population as table4.
func fig6Scenario(_ context.Context, seed int64, cfg scenario.Config) (scenario.Result, error) {
	res := snoopPopulation(seed, cfg)
	h := res.TTLHistogram()
	return scenario.Result{
		Metrics: map[string]float64{
			"ttl_samples":  float64(h.Total()),
			"ttl_mean_s":   stats.Mean(res.TTLs),
			"ttl_median_s": stats.Median(res.TTLs),
		},
	}, nil
}

// tableVScenario runs the §VIII-B2 ad-network client study.
func tableVScenario(_ context.Context, seed int64, _ scenario.Config) (scenario.Result, error) {
	clients := population.GenerateAdClients(population.DefaultAdStudyConfig(), seed+9)
	res := AdStudy(clients)
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
	return scenario.Result{Metrics: metrics}, nil
}

// sharedScenario classifies the §VIII-B3 shared-resolver topology.
func sharedScenario(_ context.Context, seed int64, _ scenario.Config) (scenario.Result, error) {
	res := SharedResolverStudy(population.GenerateSharedResolvers(population.DefaultSharedResolverConfig(), seed+21))
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
	}, nil
}

// fig7Scenario draws the Figure 7 latency-difference distribution (2000
// resolvers in fast mode).
func fig7Scenario(_ context.Context, seed int64, cfg scenario.Config) (scenario.Result, error) {
	probeCfg := population.DefaultTimingProbeConfig()
	if cfg.Fast {
		probeCfg.Resolvers = 2000
	}
	res := TimingSideChannel(probeCfg, seed+17)
	h := res.Histogram()
	return scenario.Result{
		Metrics: map[string]float64{
			"samples":       float64(h.Total()),
			"clamped_under": float64(h.Under()),
			"clamped_over":  float64(h.Over()),
		},
	}, nil
}
