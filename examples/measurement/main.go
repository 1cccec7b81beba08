// Measurement-suite walk-through: runs the paper's attack-surface studies
// (Sections VII and VIII) on synthetic populations and prints the headline
// numbers next to the paper's.
package main

import (
	"fmt"
	"log"

	"dnstime"
)

func main() {
	// §VII-A — rate limiting of pool NTP servers (live protocol scan; a
	// reduced population keeps the example fast; `experiments -only
	// ratelimit` scans all 2432).
	poolCfg := dnstime.DefaultPoolConfig()
	poolCfg.Servers = 400
	pool := dnstime.GeneratePool(poolCfg, 42)
	rl, err := dnstime.RateLimitScan(pool, dnstime.DefaultScanConfig(), 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("§VII-A rate limiting: %.0f%% stop replying (paper 38%%), %.0f%% send KoD (paper 33%%)\n",
		rl.RateLimitedPct(), rl.KoDPct())

	// §VII-B / Figure 5 — nameserver fragmentation.
	frag := dnstime.FragScan(dnstime.GenerateDomainNameservers(dnstime.DefaultDomainNameserverConfig(), 5), nil)
	fmt.Printf("§VII-B fragmentation: %.2f%% of domains fragment without DNSSEC (paper 7.66%%); CDF(548)=%.1f%% (paper 83.2%%)\n",
		frag.FragNoDNSSECPct(), 100*frag.CumAt(548))

	// Table IV / Figure 6 — open-resolver cache snooping.
	snoop := dnstime.CacheSnoop(dnstime.GenerateOpenResolvers(dnstime.DefaultOpenResolverConfig(), 11))
	fmt.Printf("Table IV snooping: pool.ntp.org A cached at %.1f%% of verified resolvers (paper 69.41%%)\n",
		snoop.Rows[1].CachedPct)

	// Table V — ad-network client study.
	ad := dnstime.AdStudy(dnstime.GenerateAdClients(dnstime.DefaultAdStudyConfig(), 9))
	for _, row := range ad.Rows {
		if row.Label == "ALL" {
			fmt.Printf("Table V ad study: tiny-fragment acceptance %.1f%% (paper 64.0%%), any size %.1f%% (paper 91.0%%)\n",
				row.TinyPct, row.AnyPct)
		}
	}
	fmt.Printf("DNSSEC validation range: %.1f%%–%.1f%% (paper 19.14%%–28.94%%)\n", ad.DNSSECMinPct, ad.DNSSECMaxPct)

	// §VIII-B3 — shared resolvers.
	sh := dnstime.SharedResolverStudy(dnstime.GenerateSharedResolvers(dnstime.DefaultSharedResolverConfig(), 21))
	fmt.Printf("§VIII-B3 shared resolvers: %.1f%% triggerable (paper 13.8%%)\n", sh.TriggerablePct())

	// Figure 7 — the timing side channel stays inconclusive.
	ts := dnstime.TimingSideChannel(dnstime.DefaultTimingProbeConfig(), 17)
	h := ts.Histogram()
	fmt.Printf("Figure 7 timing side channel: %d samples, smeared across [−50,200] ms — no usable threshold\n", h.Total())
}
