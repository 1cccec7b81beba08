// Benchmarks for what the repository benchmark (bench/) does not time:
// the 64-seed Table I campaign at full and at one worker (DESIGN.md §4's
// parallel-speedup workload), the whole-registry campaign that profiles
// are taken from, and the §III spoofed-fragment pipeline. The reproduced
// numbers themselves are pinned by the output goldens in
// cmd/experiments/testdata and by package tests, not here.
package dnstime_test

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"dnstime"
	"dnstime/internal/attack"
	"dnstime/internal/core"
	"dnstime/internal/dnswire"
	"dnstime/internal/ipv4"
)

// campaignSeeds sizes the campaign benchmarks: the acceptance workload is
// 64 seeds (DESIGN.md §4).
const campaignSeeds = 64

// benchCampaignTableI runs a 64-seed table1 campaign (the boot-time
// attack against all seven client profiles per seed) through the Engine
// at the given worker count, and reports runs/sec — one run per profile
// per seed — plus how many clients every seed shifted. Compare
// BenchmarkCampaignTableI against BenchmarkCampaignTableISerial for the
// parallel speedup (>2× expected on a multi-core runner).
func benchCampaignTableI(b *testing.B, workers int) {
	profiles := len(dnstime.AllProfiles())
	eng := dnstime.NewEngine(dnstime.WithSeeds(campaignSeeds), dnstime.WithWorkers(workers))
	var vulnerable int
	for i := 0; i < b.N; i++ {
		agg, err := eng.Run(context.Background(), "table1")
		if err != nil {
			b.Fatal(err)
		}
		vulnerable = 0
		for _, m := range agg.Metrics {
			if strings.HasPrefix(m.Name, "boot/") && m.Mean == 1 {
				vulnerable++
			}
		}
	}
	b.ReportMetric(float64(vulnerable), "boot-vulnerable")
	b.ReportMetric(float64(b.N*campaignSeeds*profiles)/b.Elapsed().Seconds(), "runs/sec")
	b.ReportMetric(float64(workers), "workers")
}

// BenchmarkCampaignTableI runs the 64-seed Table I campaign on all cores.
func BenchmarkCampaignTableI(b *testing.B) {
	b.ReportAllocs()
	benchCampaignTableI(b, runtime.GOMAXPROCS(0))
}

// BenchmarkCampaignTableISerial is the same campaign at -workers 1: the
// serial baseline the parallel engine must beat.
func BenchmarkCampaignTableISerial(b *testing.B) {
	b.ReportAllocs()
	benchCampaignTableI(b, 1)
}

// BenchmarkCampaignAllScenarios fans every registered scenario out across
// 4 seeds each through the Engine — the whole-registry campaign smoke run
// CI executes at -benchtime 1x so no scenario can rot out of the engine.
func BenchmarkCampaignAllScenarios(b *testing.B) {
	b.ReportAllocs()
	eng := dnstime.NewEngine(dnstime.WithSeeds(4))
	for i := 0; i < b.N; i++ {
		for _, sc := range dnstime.Scenarios() {
			agg, err := eng.Run(context.Background(), sc.Name)
			if err != nil {
				b.Fatalf("%s: %v", sc.Name, err)
			}
			if agg.Errors > 0 {
				b.Fatalf("%s: %d errored runs", sc.Name, agg.Errors)
			}
		}
	}
	b.ReportMetric(float64(len(dnstime.Scenarios())), "scenarios")
}

// BenchmarkPoisoningPipeline measures the §III unit pipeline: template →
// malicious twin → spoofed fragments with fixed checksum, built through
// one attacker's reused scratch as the lab's planting loop builds them.
func BenchmarkPoisoningPipeline(b *testing.B) {
	b.ReportAllocs()
	// Build a representative padded pool response template once.
	q := dnswire.NewQuery(1, "pool.ntp.org", dnswire.TypeA, true)
	r := dnswire.NewResponse(q)
	for i := 0; i < 8; i++ {
		r.Answers = append(r.Answers, dnswire.RR{
			Name: "pool.ntp.org", Type: dnswire.TypeA, TTL: 150,
			Addr: ipv4.Addr{10, 0, 0, byte(i + 1)},
		})
	}
	r.Additional = append(r.Additional, dnswire.RR{
		Name: "pool.ntp.org", Type: dnswire.TypeTXT, TTL: 0,
		Text: strings.Repeat("p", 240),
	})
	template, err := r.Marshal()
	if err != nil {
		b.Fatal(err)
	}
	evil := []ipv4.Addr{{6, 6, 6, 6}}
	ipids := []uint16{1, 2, 3, 4, 5, 6, 7, 8}
	eve := new(attack.Attacker)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frags, err := eve.BuildSpoofedFragments(attack.PoisonPlan{
			NS:       core.NSAddr,
			Resolver: core.ResolverAddr,
			Template: template, Malicious: evil, MTU: 68, IPIDs: ipids,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(frags) != len(ipids) {
			b.Fatal("wrong fragment count")
		}
	}
}
