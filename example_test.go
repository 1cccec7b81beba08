// Walkthroughs of the library facade, one per attack or study. Each is an
// Example, so `go test` runs it and checks what it prints; view them with
// `go test -run '^Example' -v .`.
package dnstime_test

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"dnstime"
)

// Quickstart: poison the victim resolver's pool.ntp.org entry via the
// off-path fragment-replacement attack, boot an ntpd-profile client, and
// watch its clock step to the attacker's time (−500 s).
func Example_quickstart() {
	// A lab wires: victim resolver, pool.ntp.org nameserver, 8 honest NTP
	// servers, 4 attacker NTP servers serving −500 s, and the attacker.
	lab := dnstime.MustNewLab(dnstime.LabConfig{Seed: 1})

	// Off-path cache poisoning (Section III): ICMP-forced fragmentation,
	// IPID prediction, spoofed second fragment with fixed UDP checksum.
	if err := lab.PoisonResolver(86400); err != nil {
		log.Fatalf("poisoning failed: %v", err)
	}
	fmt.Println("resolver cache poisoned:", lab.CachePoisoned())

	// Boot the victim client; its boot-time DNS lookup returns the
	// attacker's NTP servers.
	client, err := lab.NewClient(dnstime.ProfileNTPd, 0)
	if err != nil {
		log.Fatal(err)
	}
	if err := client.Start(); err != nil {
		log.Fatal(err)
	}
	lab.Clock.RunFor(30 * time.Minute) // virtual time: finishes instantly

	fmt.Printf("client clock offset after boot: %v (attacker serves %v)\n",
		client.ClockOffset(), -500*time.Second)
	for _, ev := range client.Events {
		fmt.Println("  ", ev)
	}
	// Output:
	// resolver cache poisoned: true
	// client clock offset after boot: -8m20.000000001s (attacker serves -8m20s)
	//    00:00:35 dns-lookup  0.0.0.0 pool.ntp.org
	//    00:00:35 mobilize    6.6.0.1
	//    00:00:35 mobilize    6.6.0.2
	//    00:00:35 mobilize    6.6.0.3
	//    00:00:35 mobilize    6.6.0.4
	//    00:01:39 dns-lookup  0.0.0.0 pool.ntp.org
	//    00:02:43 dns-lookup  0.0.0.0 pool.ntp.org
	//    00:03:47 dns-lookup  0.0.0.0 pool.ntp.org
	//    00:03:47 step        6.6.0.1 -8m20.000000001s (3 sources)
	//    00:03:47 mobilize    10.0.0.1
	//    00:03:47 mobilize    10.0.0.2
}

// Boot-time attack walk-through (Section IV-A, Figure 2) with a
// packet-level view of the poisoning: the attacker plants a spoofed second
// fragment every 30 seconds; when the victim's resolver queries the
// nameserver, the real first fragment reassembles with the planted one and
// the malicious record enters the cache before the NTP client boots.
func Example_boottime() {
	for _, prof := range []dnstime.Profile{
		dnstime.ProfileNTPd,
		dnstime.ProfileSystemd,
		dnstime.ProfileNtpdate,
	} {
		res, err := dnstime.RunBootTimeAttack(prof, dnstime.LabConfig{Seed: 7})
		if err != nil {
			log.Fatalf("%s: %v", prof.Name, err)
		}
		fmt.Printf("%-18s poisoned=%-5t shifted=%-5t offset=%-10v time-to-shift=%v\n",
			res.Profile, res.Poisoned, res.Shifted, res.ClockOffset, res.TimeToShift.Round(time.Second))
	}

	// Show the low attack volume of the §IV-A planting loop: one round
	// every 30 s, so 5 per 150-second pool-record TTL window. RunFor
	// includes the window's closing instant, so it also counts the round
	// at 150 s.
	lab := dnstime.MustNewLab(dnstime.LabConfig{Seed: 7})
	campaign := lab.StartPoisonCampaign(30*time.Second, 0)
	lab.Clock.RunFor(150 * time.Second)
	campaign.Stop()
	fmt.Printf("\nplanting loop: %d rounds, %d spoofed packets per 150 s TTL window\n",
		campaign.Rounds, lab.Eve.InjectedPackets)
	// Output:
	// NTPd               poisoned=true  shifted=true  offset=-8m20.000000001s time-to-shift=3m12s
	// systemd-timesyncd  poisoned=true  shifted=true  offset=-8m20s     time-to-shift=0s
	// ntpdate            poisoned=true  shifted=true  offset=-8m20s     time-to-shift=0s
	//
	// planting loop: 6 rounds, 102 spoofed packets per 150 s TTL window
}

// Run-time attack walk-through (Section IV-B, Figure 3): the victim client
// is already synchronised to honest servers; the attacker abuses NTP
// server-side rate limiting with spoofed floods to break the existing
// associations, forcing a DNS re-query that hits the poisoned cache.
// Both discovery scenarios are shown: P1 (all upstreams known upfront) and
// P2 (one-at-a-time discovery via the client's RefID leak).
func Example_runtimeRateLimit() {
	fmt.Println("run-time attack against an ntpd-profile client (paper Table II)")
	fmt.Println()
	for _, sc := range []dnstime.RuntimeScenario{dnstime.ScenarioP1, dnstime.ScenarioP2} {
		res, err := dnstime.RunRuntimeAttack(dnstime.ProfileNTPd, sc, dnstime.LabConfig{Seed: 3})
		if err != nil {
			log.Fatal(err)
		}
		paper := map[string]string{"P1": "17 minutes", "P2": "47 minutes"}[sc.String()]
		fmt.Printf("scenario %s: succeeded=%t duration=%v (paper: %s) lookups=%d offset=%v\n",
			sc, res.Succeeded, res.Duration.Round(time.Second), paper, res.DNSLookups, res.ClockOffset)
	}

	fmt.Println()
	fmt.Println("openntpd does not re-resolve DNS at run-time; the same attack only")
	fmt.Println("disables synchronisation (Table I: no run-time vulnerability):")
	res, err := dnstime.RunRuntimeAttack(dnstime.ProfileOpenNTPD, dnstime.ScenarioP1, dnstime.LabConfig{Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("openntpd: succeeded=%t lookups=%d offset=%v\n", res.Succeeded, res.DNSLookups, res.ClockOffset)
	// Output:
	// run-time attack against an ntpd-profile client (paper Table II)
	//
	// scenario P1: succeeded=true duration=12m48s (paper: 17 minutes) lookups=1 offset=-8m20s
	// scenario P2: succeeded=true duration=41m36s (paper: 47 minutes) lookups=1 offset=-8m20s
	//
	// openntpd does not re-resolve DNS at run-time; the same attack only
	// disables synchronisation (Table I: no run-time vulnerability):
	// openntpd: succeeded=false lookups=0 offset=-1ns
}

// Chronos attack walk-through (Section VI, Figure 4): Chronos builds its
// server pool from 24 hourly DNS queries; one poisoned response with 89
// attacker addresses and a TTL above 24 h dominates the pool whenever it
// lands before the 12th query (N ≤ 11). The attacker then controls ≥ 2/3
// of the pool and the provably-secure selection algorithm converges on the
// attacker's time.
func Example_chronosAttack() {
	fmt.Println("analytic bound: 2/3·(89+4N) ≤ 89  ⇒  N ≤",
		dnstime.ChronosAttackBound(4, 89), "(the attacker has 12 tries in 24 hours)")
	fmt.Println()

	fmt.Println("sweep: poisoning lands after N honest hourly queries")
	for _, n := range []int{0, 5, 11} {
		res, err := dnstime.RunChronosAttack(n, 89, dnstime.LabConfig{Seed: 9})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  N=%-2d pool=%-3d evil=%-2d control=%t shifted=%t offset=%v\n",
			res.N, res.PoolSize, res.EvilInPool, res.ControlsPool, res.Shifted, res.ClockOffset)
	}

	fmt.Println()
	fmt.Println("beyond the bound the attack fails (large honest pool, late poisoning):")
	res, err := dnstime.RunChronosAttack(20, 89, dnstime.LabConfig{Seed: 10, HonestServers: 90})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  N=%-2d pool=%-3d evil=%-2d control=%t shifted=%t offset=%v\n",
		res.N, res.PoolSize, res.EvilInPool, res.ControlsPool, res.Shifted, res.ClockOffset)
	// Output:
	// analytic bound: 2/3·(89+4N) ≤ 89  ⇒  N ≤ 11 (the attacker has 12 tries in 24 hours)
	//
	// sweep: poisoning lands after N honest hourly queries
	//   N=0  pool=93  evil=89 control=true shifted=true offset=-8m20.000000001s
	//   N=5  pool=97  evil=89 control=true shifted=true offset=-8m20.000000001s
	//   N=11 pool=97  evil=89 control=true shifted=true offset=-8m20.000000001s
	//
	// beyond the bound the attack fails (large honest pool, late poisoning):
	//   N=20 pool=173 evil=89 control=false shifted=false offset=-4m31.186440678s
}

// Measurement-suite walk-through: runs the paper's attack-surface studies
// (Sections VII and VIII) on synthetic populations and prints the
// headline numbers next to the paper's.
func Example_measurement() {
	// §VII-A — rate limiting of pool NTP servers (live protocol scan; a
	// reduced population keeps the example fast; `experiments -only
	// ratelimit` scans all 2432).
	poolCfg := dnstime.DefaultPoolConfig()
	poolCfg.Servers = 400
	pool := dnstime.GeneratePool(poolCfg, 42)
	rl, err := dnstime.RateLimitScan(pool, dnstime.DefaultScanConfig())
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
	snoop := dnstime.SnoopOpenResolvers(dnstime.DefaultOpenResolverConfig(), 11)
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
	// Output:
	// §VII-A rate limiting: 43% stop replying (paper 38%), 37% send KoD (paper 33%)
	// §VII-B fragmentation: 7.69% of domains fragment without DNSSEC (paper 7.66%); CDF(548)=82.6% (paper 83.2%)
	// Table IV snooping: pool.ntp.org A cached at 69.6% of verified resolvers (paper 69.41%)
	// Table V ad study: tiny-fragment acceptance 62.0% (paper 64.0%), any size 86.4% (paper 91.0%)
	// DNSSEC validation range: 17.9%–29.2% (paper 19.14%–28.94%)
	// §VIII-B3 shared resolvers: 13.9% triggerable (paper 13.8%)
	// Figure 7 timing side channel: 20000 samples, smeared across [−50,200] ms — no usable threshold
}

// Campaign: fan experiments out across independent seeds on all cores
// through the Engine and report aggregate statistics — success rates with
// 95% Wilson intervals and per-metric distributions. Aggregates are
// byte-identical at any worker count; only the wall-clock time changes.
//
// One API covers every use:
//
//  1. Engine.Run blocks for the aggregate of any registered scenario
//     (every table, figure and scan — `dnstime.Scenarios()` lists them);
//  2. Engine.Stream yields per-seed results in completion order while the
//     seed-order aggregate folds behind it — and the context cancels a
//     campaign cleanly (workers drain, the partial aggregate is marked);
//     Example_campaignStream shows it;
//  3. params make attack variants (any client profile, target shift,
//     Chronos knobs) ordinary campaign runs — no separate entry point;
//  4. WithCheckpoint persists completed seeds as JSONL, and rerunning
//     with the same file picks an interrupted campaign up where it left
//     off, byte-identically.
func Example_campaign() {
	ctx := context.Background()

	// 1. Any registered scenario: the Table IV cache-snooping study over
	// 16 seeds, aggregated metric by metric.
	agg, err := dnstime.NewEngine(dnstime.WithSeeds(16)).Run(ctx, "table4")
	if err != nil {
		log.Fatal(err)
	}
	// Render pads every cell to its column's width; print it with each
	// line's trailing padding trimmed.
	for _, line := range strings.Split(agg.Render(), "\n") {
		fmt.Println(strings.TrimRight(line, " "))
	}

	// 3. The whole Table I client matrix: every table1 run attacks all
	// seven profiles, and the aggregate keys each client's boot-time
	// outcome as boot/<client> (1 = shifted), so its mean over 8 seeds is
	// that client's success rate.
	table, err := dnstime.NewEngine(dnstime.WithSeeds(8)).Run(ctx, "table1")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Table I over 8 seeds per client:")
	for _, m := range table.Metrics {
		if client, ok := strings.CutPrefix(m.Name, "boot/"); ok {
			fmt.Printf("  %-18s boot %5.1f%%\n", client, 100*m.Mean)
		}
	}
	// Output:
	// table4: 16 runs, 14 metrics, errors 0
	// Metric                          n   mean      95% CI               median    min–max
	// ------------------------------------------------------------------------------------------------
	// cached/0.pool.ntp.org IN A      16  25343.00  25281.43–25404.57    25357.50  25103.00–25505.00
	// cached/1.pool.ntp.org IN A      16  24309.19  24256.83–24361.54    24339.00  24107.00–24518.00
	// cached/2.pool.ntp.org IN A      16  24410.94  24352.72–24469.16    24363.00  24256.00–24636.00
	// cached/3.pool.ntp.org IN A      16  23269.62  23203.83–23335.42    23275.00  23039.00–23490.00
	// cached/pool.ntp.org IN A        16  27539.62  27468.61–27610.64    27526.00  27297.00–27826.00
	// cached/pool.ntp.org IN NS       16  23069.31  23018.72–23119.91    23100.50  22841.00–23217.00
	// cached_pct/0.pool.ntp.org IN A  16  63.87     63.74–63.99          63.80     63.49–64.32
	// cached_pct/1.pool.ntp.org IN A  16  61.26     61.15–61.37          61.33     60.72–61.55
	// cached_pct/2.pool.ntp.org IN A  16  61.52     61.42–61.62          61.52     61.25–61.95
	// cached_pct/3.pool.ntp.org IN A  16  58.64     58.53–58.75          58.69     58.19–58.99
	// cached_pct/pool.ntp.org IN A    16  69.40     69.30–69.50          69.37     69.09–69.80
	// cached_pct/pool.ntp.org IN NS   16  58.14     58.05–58.22          58.15     57.75–58.52
	// probed                          16  97306.25  97195.14–97417.36    97269.50  97064.00–97949.00
	// verified                        16  39682.12  39615.22–39749.03    39690.50  39395.00–39938.00
	//
	// Table I over 8 seeds per client:
	//   Android            boot 100.0%
	//   NTPd               boot 100.0%
	//   chrony             boot 100.0%
	//   ntpclient          boot 100.0%
	//   ntpdate            boot 100.0%
	//   openntpd           boot 100.0%
	//   systemd-timesyncd  boot 100.0%
}

// Campaign, streamed (part 2 of Example_campaign): a parameterised attack
// campaign — the boot-time attack against a chrony client with a −300 s
// target shift, 32 seeds. Results arrive in completion order, which
// depends on goroutine scheduling, so the example shows seeds 1 to 4 in
// whatever order they finish; the aggregate from Wait stays seed-order
// deterministic.
func Example_campaignStream() {
	st, err := dnstime.NewEngine(
		dnstime.WithSeeds(32),
		dnstime.WithParam("client", "chrony"),
		dnstime.WithParam("offset", "-300s"),
		// Workers defaults to GOMAXPROCS; each run owns its Lab and
		// virtual clock, so the fan-out is embarrassingly parallel.
	).Stream(context.Background(), "boot")
	if err != nil {
		log.Fatal(err)
	}
	for res := range st.Results() {
		if res.Seed <= 4 {
			shifted := res.Success != nil && *res.Success
			fmt.Printf("seed %d: shifted=%t offset=%.0fs tts=%.0fs\n",
				res.Seed, shifted, res.Metrics["offset_s"], res.Metrics["tts_s"])
		}
	}
	attack, err := st.Wait()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(attack)
	// Unordered output:
	// seed 1: shifted=true offset=-300s tts=256s
	// seed 2: shifted=true offset=-300s tts=256s
	// seed 3: shifted=true offset=-300s tts=256s
	// seed 4: shifted=true offset=-300s tts=256s
	// boot: 32 runs, 32/32 succeeded (100.0%, 95% CI 89.3–100.0%), 2 metrics, errors 0
}

// Netsweep: re-evaluate the paper's attacks under network conditions the
// testbed could not vary. Every lab link runs over a netem path model
// (DESIGN.md §8) — named profiles from same-site LAN to a congested
// trans-continental path — and the netsweep scenario fans one attack
// across the whole profile grid, so a multi-seed campaign yields a
// per-profile success-rate table.
func Example_netsweep() {
	ctx := context.Background()

	// 1. The netsweep scenario: one boot-time attack per netem profile
	// per seed. The per-profile outcomes aggregate under metrics keyed
	// "shifted/<profile>" and "tts_s/<profile>".
	agg, err := dnstime.NewEngine(dnstime.WithSeeds(8)).Run(ctx, "netsweep")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("boot-time attack success by path profile (8 seeds):")
	means := map[string]float64{}
	for _, m := range agg.Metrics {
		means[m.Name] = m.Mean
	}
	for _, profile := range dnstime.NetProfileNames() {
		fmt.Printf("  %-18s shifted %5.1f%%  mean tts %6.1fs  — %s\n",
			profile, 100*means["shifted/"+profile], means["tts_s/"+profile],
			dnstime.NetProfileDescription(profile))
	}

	// 2. Any lab-backed scenario takes the same conditions as params —
	// the library spelling of `-param net=lossy-wifi -param loss=0.08`.
	lossy, err := dnstime.NewEngine(
		dnstime.WithSeeds(8),
		dnstime.WithParam("net", "lossy-wifi"),
		dnstime.WithParam("loss", "0.08"),
	).Run(ctx, "boot")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nboot on lossy-wifi at 8%% i.i.d. loss: %s\n", lossy)

	// 3. Or build a model directly for single-run experiments: a uniform
	// path is the Default of a topology without links.
	path, err := dnstime.NetPathFromSpec("transcontinental", 0, dnstime.NetNoLossOverride)
	if err != nil {
		log.Fatal(err)
	}
	res, err := dnstime.RunBootTimeAttack(dnstime.ProfileNTPd,
		dnstime.LabConfig{Seed: 1, Topology: &dnstime.NetTopology{Default: path}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("single transcontinental run: shifted=%t offset=%v tts=%v\n",
		res.Shifted, res.ClockOffset, res.TimeToShift)
	// Output:
	// boot-time attack success by path profile (8 seeds):
	//   congested          shifted 100.0%  mean tts  176.1s  — overloaded path: lognormal 40 ms median (σ 0.5), 2% i.i.d. loss, 5% reordered +30 ms
	//   lab                shifted 100.0%  mean tts  192.0s  — the historical default link: fixed 10 ms one-way, lossless, in-order
	//   lan                shifted 100.0%  mean tts  192.0s  — same-site Ethernet: fixed 200 µs one-way, lossless
	//   lossy-wifi         shifted 100.0%  mean tts  200.0s  — last-hop wireless: uniform 2–12 ms, Gilbert–Elliott bursts (≈5% mean loss, 2-packet bursts)
	//   transcontinental   shifted 100.0%  mean tts  168.2s  — long-haul path: asymmetric lognormal 75/90 ms median legs (σ 0.15), 0.3% i.i.d. loss
	//   wan                shifted 100.0%  mean tts  152.0s  — domestic WAN: lognormal 15 ms median (σ 0.25), 0.1% i.i.d. loss
	//
	// boot on lossy-wifi at 8% i.i.d. loss: boot: 8 runs, 8/8 succeeded (100.0%, 95% CI 67.6–100.0%), 2 metrics, errors 0
	// single transcontinental run: shifted=true offset=-8m19.985537975s tts=3m12.1664591s
}

// Racemargin: the paper's off-path race in quantitative form. The
// attacker wins or loses on network position — racing the legitimate
// answer from a nearer (or farther) vantage point — so this example runs
// the racemargin campaign, which sweeps the attacker's latency advantage
// under the near-attacker topology preset (DESIGN.md §9), and prints the
// success-rate-vs-margin table, then shows the role-based topology API
// directly.
func Example_racemargin() {
	ctx := context.Background()

	// 1. The racemargin campaign: one boot-time attack per margin per
	// seed. Margin m gives the attacker a one-way delay of 30ms − m while
	// the victim network stays at the preset's conditions; outcomes
	// aggregate under metrics keyed "shifted/<margin>".
	agg, err := dnstime.NewEngine(dnstime.WithSeeds(8)).Run(ctx, "racemargin")
	if err != nil {
		log.Fatal(err)
	}
	means := map[string]float64{}
	for _, m := range agg.Metrics {
		means[m.Name] = m.Mean
	}
	fmt.Println("boot-time attack success by attacker latency margin (8 seeds):")
	for _, margin := range []string{"-8s", "-4s", "-2s", "-1.5s", "-1.2s", "-1.1s", "-1s", "-500ms", "0s", "28ms"} {
		fmt.Printf("  margin %7s  shifted %5.1f%%\n", margin, 100*means["shifted/"+margin])
	}

	// 2. Topology presets position the attacker for any lab-backed
	// scenario — the library spelling of `-param topo=near-attacker`.
	near, err := dnstime.NewEngine(
		dnstime.WithSeeds(8),
		dnstime.WithParam("topo", "near-attacker"),
	).Run(ctx, "boot")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nboot under near-attacker (%s): %s\n",
		dnstime.NetTopologyDescription("near-attacker"), near)

	// 3. Or assemble a topology by role pair for single-run experiments:
	// a colo attacker beside the resolver while the client sits on a
	// lossy last hop. Link factories return a fresh model per compiled
	// link, so stateful loss never leaks between links.
	topo := dnstime.NewNetTopology()
	topo.SetPath(dnstime.NetRoleAttacker, dnstime.NetRoleResolver,
		func() dnstime.PathModel { return &dnstime.NetPath{Delay: dnstime.NetFixed(200 * time.Microsecond)} })
	topo.SetPath(dnstime.NetRoleClient, dnstime.NetRoleAny,
		func() dnstime.PathModel {
			lossy, err := dnstime.NetProfile("lossy-wifi")
			if err != nil {
				panic(err)
			}
			return lossy
		})
	res, err := dnstime.RunBootTimeAttack(dnstime.ProfileNTPd, dnstime.LabConfig{Seed: 1, Topology: topo})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("colo attacker vs lossy client: shifted=%t offset=%v tts=%v\n",
		res.Shifted, res.ClockOffset, res.TimeToShift)
	// Output:
	// boot-time attack success by attacker latency margin (8 seeds):
	//   margin     -8s  shifted   0.0%
	//   margin     -4s  shifted   0.0%
	//   margin     -2s  shifted   0.0%
	//   margin   -1.5s  shifted   0.0%
	//   margin   -1.2s  shifted   0.0%
	//   margin   -1.1s  shifted 100.0%
	//   margin     -1s  shifted 100.0%
	//   margin  -500ms  shifted 100.0%
	//   margin      0s  shifted 100.0%
	//   margin    28ms  shifted 100.0%
	//
	// boot under near-attacker (attacker-side links fixed 2 ms one-way, everything else fixed 30 ms — the attacker races from a better path): boot: 8 runs, 8/8 succeeded (100.0%, 95% CI 67.6–100.0%), 2 metrics, errors 0
	// colo attacker vs lossy client: shifted=true offset=-8m19.999100022s tts=2m8.027308795s
}
