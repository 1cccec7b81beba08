package measure

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"dnstime/internal/ipv4"
	"dnstime/internal/population"
	"dnstime/internal/stats"
)

// poolTruth counts a pool's rate limiters and KoD senders from its specs:
// the §VII-A scan must re-derive both.
func poolTruth(specs []population.PoolServerSpec) (rateLimiters, kodSenders int) {
	for _, s := range specs {
		if s.RateLimits {
			rateLimiters++
		}
		if s.SendsKoD {
			kodSenders++
		}
	}
	return rateLimiters, kodSenders
}

func TestRateLimitScanSmallPopulation(t *testing.T) {
	cfg := population.DefaultPoolConfig()
	cfg.Servers = 120
	specs := population.GeneratePool(cfg, 5)
	res, err := RateLimitScan(specs, DefaultScanConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Servers != 120 {
		t.Fatalf("servers = %d", res.Servers)
	}
	wantRate, wantKoD := poolTruth(specs)
	if res.RateLimited != wantRate {
		t.Errorf("detected %d rate limiters, ground truth %d", res.RateLimited, wantRate)
	}
	if res.KoDSenders != wantKoD {
		t.Errorf("detected %d KoD senders, ground truth %d", res.KoDSenders, wantKoD)
	}
}

// TestRateLimitScanLargePool: the scan has no population ceiling. With
// one scanner port per server it refused any pool over 16 384 servers
// (the ephemeral range wraps), and GeneratePool's addresses repeated past
// 65 536.
func TestRateLimitScanLargePool(t *testing.T) {
	for _, n := range []int{20000, 70000} {
		cfg := population.DefaultPoolConfig()
		cfg.Servers = n
		specs := population.GeneratePool(cfg, 5)
		res, err := RateLimitScan(specs, DefaultScanConfig())
		if err != nil {
			t.Fatalf("%d servers: %v", n, err)
		}
		wantRate, wantKoD := poolTruth(specs)
		if got, want := res, (RateLimitResult{Servers: n, KoDSenders: wantKoD, RateLimited: wantRate}); got != want {
			t.Errorf("%d servers: scan %+v, ground truth %+v", n, got, want)
		}
	}
}

// TestRateLimitScanMatchesPerServerScan is the oracle for RateLimitScan's
// class fold: scanning one server per class and counting it once per
// member gives exactly what scanning every server gives, and every server
// scans like the first of its class. The cases cover the paper-size
// pools and 300-server ones (the "fast" cases, the size the former -fast
// flag scanned) at seeds 1–6, and edges of the grouping and of the halves
// test.
func TestRateLimitScanMatchesPerServerScan(t *testing.T) {
	full := population.DefaultPoolConfig()
	fast := full
	fast.Servers = 300
	empty := full
	empty.Servers = 0
	oneClass := fast
	oneClass.PRateLimit, oneClass.PKoD, oneClass.POpenConfig = 1, 1, 0
	paper := DefaultScanConfig()
	type tc struct {
		name    string
		pool    population.PoolConfig
		seed    int64
		scan    ScanConfig
		classes int // 0: not checked
	}
	var cases []tc
	for seed := int64(1); seed <= 6; seed++ {
		cases = append(cases,
			tc{name: fmt.Sprintf("full seed %d", seed), pool: full, seed: seed, scan: paper},
			tc{name: fmt.Sprintf("fast seed %d", seed), pool: fast, seed: seed, scan: paper})
	}
	cases = append(cases,
		tc{name: "empty", pool: empty, seed: 1, scan: paper},
		tc{name: "single class", pool: oneClass, seed: 1, scan: paper, classes: 1},
		tc{name: "no queries", pool: fast, seed: 2, scan: ScanConfig{Queries: 0, Interval: time.Second, HalfGap: 8}},
		tc{name: "odd queries", pool: fast, seed: 3, scan: ScanConfig{Queries: 63, Interval: time.Second, HalfGap: 8}},
		tc{name: "negative gap", pool: fast, seed: 4, scan: ScanConfig{Queries: 64, Interval: time.Second, HalfGap: -1}},
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.pool.Servers > fast.Servers && testing.Short() {
				t.Skip("per-server scan of a full-size pool") // ≈2 s under -race
			}
			specs := population.GeneratePool(c.pool, c.seed)
			got, err := RateLimitScan(specs, c.scan)
			if err != nil {
				t.Fatal(err)
			}
			each, err := scanServers(specs, c.scan)
			if err != nil {
				t.Fatal(err)
			}
			want := RateLimitResult{Servers: len(specs)}
			first := make(map[population.PoolServerSpec]scanOutcome)
			for i, o := range each {
				if o.kod {
					want.KoDSenders++
				}
				if o.limited {
					want.RateLimited++
				}
				key := specs[i]
				key.Addr = ipv4.Addr{}
				if f, ok := first[key]; !ok {
					first[key] = o
				} else if o != f {
					t.Errorf("server %d (%+v) scans %+v, the first of its class %+v", i, specs[i], o, f)
				}
			}
			if got != want {
				t.Errorf("RateLimitScan = %+v, per-server scan = %+v", got, want)
			}
			if c.classes > 0 && len(first) != c.classes {
				t.Errorf("%d classes, want %d", len(first), c.classes)
			}
			if c.scan.HalfGap < 0 && got.RateLimited != got.Servers {
				t.Errorf("negative HalfGap: %d of %d servers limited, want all", got.RateLimited, got.Servers)
			}
		})
	}
}

// TestScanPathFixed: the class fold is exact only while every server sees
// the same path. The scan's path must never drop, always delay exactly
// 5 ms and draw nothing from the network RNG, so adding jitter, loss or
// reordering to it fails here.
func TestScanPathFixed(t *testing.T) {
	path := scanPath()
	rng := rand.New(rand.NewSource(7))
	scanner, server := ipv4.MustParseAddr("203.0.113.1"), ipv4.MustParseAddr("10.1.0.1")
	for i := range 10000 {
		src, dst := scanner, server
		if i%2 == 1 {
			src, dst = dst, src
		}
		if d := path.Latency(src, dst, rng); d != 5*time.Millisecond {
			t.Fatalf("packet %d: latency %v, want 5ms", i, d)
		}
		if path.Drop(src, dst, rng) {
			t.Fatalf("packet %d dropped", i)
		}
	}
	if got, want := rng.Int63(), rand.New(rand.NewSource(7)).Int63(); got != want {
		t.Error("the scan path draws randomness")
	}
}

func TestRateLimitScanPaperFractions(t *testing.T) {
	specs := population.GeneratePool(population.DefaultPoolConfig(), 42)
	res, err := RateLimitScan(specs, DefaultScanConfig())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.RateLimitedPct()-38) > 3 {
		t.Errorf("rate-limited = %.1f%%, want ≈38%%", res.RateLimitedPct())
	}
	if math.Abs(res.KoDPct()-33) > 3 {
		t.Errorf("KoD = %.1f%%, want ≈33%%", res.KoDPct())
	}
}

func TestFragScanPoolNameservers(t *testing.T) {
	specs := population.GeneratePoolNameservers(population.DefaultPoolNameserverConfig(), 3)
	res := FragScan(specs, nil)
	if res.Total != 30 {
		t.Fatalf("total = %d", res.Total)
	}
	if res.FragBelow548 != 16 {
		t.Errorf("frag<548 = %d, want 16", res.FragBelow548)
	}
	if res.DNSSEC != 0 {
		t.Errorf("DNSSEC = %d, want 0", res.DNSSEC)
	}
}

func TestFragScanFigure5(t *testing.T) {
	specs := population.GenerateDomainNameservers(population.DefaultDomainNameserverConfig(), 5)
	res := FragScan(specs, nil)
	if f := res.FragNoDNSSECPct(); math.Abs(f-7.66) > 0.5 {
		t.Errorf("frag+noDNSSEC = %.2f%%, want ≈7.66%%", f)
	}
	if c := res.CumAt(292); math.Abs(c-0.0705) > 0.01 {
		t.Errorf("CDF(292) = %.4f, want ≈0.0705", c)
	}
	if c := res.CumAt(548); math.Abs(c-0.832) > 0.01 {
		t.Errorf("CDF(548) = %.4f, want ≈0.832", c)
	}
	if c := res.CumAt(1500); c != 1 {
		t.Errorf("CDF(1500) = %.4f, want 1", c)
	}
}

func TestCacheSnoopTableIV(t *testing.T) {
	cfg := population.DefaultOpenResolverConfig()
	cfg.Total = 100000
	specs := population.GenerateOpenResolvers(cfg, 11)
	res := CacheSnoop(specs)
	if res.Verified == 0 || res.Probed == 0 {
		t.Fatal("empty scan")
	}
	want := map[population.PoolRecord]float64{
		population.RecPoolNS: 58.28,
		population.RecPoolA:  69.41,
		population.Rec0Pool:  63.92,
		population.Rec1Pool:  61.28,
		population.Rec2Pool:  61.55,
		population.Rec3Pool:  58.58,
	}
	for _, row := range res.Rows {
		if w := want[row.Record]; math.Abs(row.CachedPct-w) > 1.5 {
			t.Errorf("%s cached = %.2f%%, want ≈%.2f%%", row.Record, row.CachedPct, w)
		}
		if row.Cached+row.NotCached != res.Verified {
			t.Errorf("%s: cached+notcached = %d, verified = %d", row.Record, row.Cached+row.NotCached, res.Verified)
		}
	}
}

// TestSnoopOpenResolversMatchesCacheSnoop: snooping each resolver as it
// is drawn gives the result of snooping the stored population, for the
// default population and for configs that reach each branch of the draw
// and the fold.
func TestSnoopOpenResolversMatchesCacheSnoop(t *testing.T) {
	with := func(edit func(*population.OpenResolverConfig)) population.OpenResolverConfig {
		cfg := population.DefaultOpenResolverConfig()
		edit(&cfg)
		return cfg
	}
	cases := []struct {
		name string
		cfg  population.OpenResolverConfig
		seed int64
	}{
		{"default seed 1", population.DefaultOpenResolverConfig(), 1},
		{"default seed 7", population.DefaultOpenResolverConfig(), 7},
		{"default seed 12", population.DefaultOpenResolverConfig(), 12},
		{"20 000 resolvers", with(func(c *population.OpenResolverConfig) { c.Total = 20000 }), 12},
		{"empty", with(func(c *population.OpenResolverConfig) { c.Total = 0 }), 12},
		{"extra record", with(func(c *population.OpenResolverConfig) {
			c.Total = 20000
			c.PCached["2.pool.ntp.org IN AAAA"] = 1.0
		}), 7},
		{"none respond", with(func(c *population.OpenResolverConfig) { c.Total, c.PResponds = 20000, 0 }), 3},
		{"all respond", with(func(c *population.OpenResolverConfig) { c.Total, c.PResponds = 20000, 1 }), 3},
		{"none verify", with(func(c *population.OpenResolverConfig) { c.Total, c.PRespectsRD = 20000, 0 }), 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := SnoopOpenResolvers(tc.cfg, tc.seed)
			want := CacheSnoop(population.GenerateOpenResolvers(tc.cfg, tc.seed))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("streamed snoop differs from stored snoop:\n%+v\nvs\n%+v", got, want)
			}
		})
	}
}

// TestCacheSnoopFirstMatchWins pins the fold on hand-built resolvers whose
// Cached lists are out of Table IV order, repeat a record, carry a record
// outside Table IV or a TTL outside [0, maxTTL]: each row counts a
// resolver once, and Figure 6 counts the first pool.ntp.org A TTL listed —
// what CachedTTL returns — clamped to [0, maxTTL].
func TestCacheSnoopFirstMatchWins(t *testing.T) {
	rec := func(r population.PoolRecord, ttl int) population.CachedRecord {
		return population.CachedRecord{Record: r, TTL: ttl}
	}
	verified := func(cached ...population.CachedRecord) population.OpenResolverSpec {
		return population.OpenResolverSpec{Responds: true, RespectsRD: true, Cached: cached}
	}
	cases := []struct {
		name     string
		specs    []population.OpenResolverSpec
		probed   int
		verified int
		cached   [6]int // per Table IV row
		ttls     []int  // the counted Figure 6 samples
	}{
		{
			name:   "reverse order",
			specs:  []population.OpenResolverSpec{verified(rec(population.Rec3Pool, 3), rec(population.RecPoolA, 40), rec(population.RecPoolNS, 7))},
			probed: 1, verified: 1,
			cached: [6]int{1, 1, 0, 0, 0, 1},
			ttls:   []int{40},
		},
		{
			name:   "repeated record",
			specs:  []population.OpenResolverSpec{verified(rec(population.RecPoolA, 12), rec(population.Rec0Pool, 1), rec(population.RecPoolA, 99))},
			probed: 1, verified: 1,
			cached: [6]int{0, 1, 1, 0, 0, 0},
			ttls:   []int{12},
		},
		{
			name:   "record outside Table IV",
			specs:  []population.OpenResolverSpec{verified(rec("2.pool.ntp.org IN AAAA", 5), rec(population.Rec2Pool, 6))},
			probed: 1, verified: 1,
			cached: [6]int{0, 0, 0, 0, 1, 0},
		},
		{
			name: "unverified and silent resolvers",
			specs: []population.OpenResolverSpec{
				{Responds: true, Cached: []population.CachedRecord{rec(population.RecPoolA, 1)}},
				{Cached: []population.CachedRecord{rec(population.RecPoolA, 2)}},
				verified(),
				verified(rec(population.RecPoolA, 3), rec(population.RecPoolA, 4)),
			},
			probed: 3, verified: 2,
			cached: [6]int{0, 1, 0, 0, 0, 0},
			ttls:   []int{3},
		},
		{
			name: "TTLs out of range",
			specs: []population.OpenResolverSpec{
				verified(rec(population.RecPoolA, -1)),
				verified(rec(population.RecPoolA, math.MinInt)),
				verified(rec(population.RecPoolA, maxTTL+1)),
				verified(rec(population.RecPoolA, math.MaxInt)),
				verified(rec(population.RecPoolA, 0)),
			},
			probed: 5, verified: 5,
			cached: [6]int{0, 5, 0, 0, 0, 0},
			ttls:   []int{0, 0, maxTTL, maxTTL, 0},
		},
		{name: "empty"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := CacheSnoop(tc.specs)
			if res.Probed != tc.probed || res.Verified != tc.verified {
				t.Errorf("probed/verified = %d/%d, want %d/%d", res.Probed, res.Verified, tc.probed, tc.verified)
			}
			if want := countsOf(tc.ttls); !slices.Equal(res.TTLCounts, want) || (res.TTLCounts == nil) != (want == nil) {
				t.Errorf("TTLCounts = %v, want %v", res.TTLCounts, want)
			}
			if len(res.Rows) != len(tc.cached) {
				t.Fatalf("%d rows, want %d", len(res.Rows), len(tc.cached))
			}
			for i, row := range res.Rows {
				if row.Record != population.AllPoolRecords()[i] {
					t.Errorf("row %d is %s, want %s", i, row.Record, population.AllPoolRecords()[i])
				}
				if row.Cached != tc.cached[i] || row.NotCached != tc.verified-tc.cached[i] {
					t.Errorf("%s: cached/not = %d/%d, want %d/%d", row.Record, row.Cached, row.NotCached, tc.cached[i], tc.verified-tc.cached[i])
				}
			}
			var viaCachedTTL []int
			for _, s := range tc.specs {
				if ttl, ok := s.CachedTTL(population.RecPoolA); ok && s.Responds && s.RespectsRD {
					viaCachedTTL = append(viaCachedTTL, min(max(ttl, 0), maxTTL))
				}
			}
			if want := countsOf(viaCachedTTL); !slices.Equal(res.TTLCounts, want) {
				t.Errorf("TTLCounts = %v, CachedTTL gives %v", res.TTLCounts, want)
			}
		})
	}
}

// countsOf returns the TTLCounts of samples in [0, maxTTL].
func countsOf(ttls []int) []int {
	var counts []int
	for _, ttl := range ttls {
		if ttl >= len(counts) {
			counts = append(counts, make([]int, ttl+1-len(counts))...)
		}
		counts[ttl]++
	}
	return counts
}

// TestTTLCountsMatchSamples is the oracle for Figure 6's count fold: over
// multisets of integer TTLs, folded by CacheSnoop from resolvers in
// random order, the sample count, TTLMean, TTLMedian and every
// TTLHistogram bin equal what stats.Mean, stats.Median and
// stats.Histogram.Add give over the samples themselves. The multisets
// include the empty one, one sample, odd and even sizes, all samples
// equal, and TTLs past the histogram's 160 s.
func TestTTLCountsMatchSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	sets := [][]int{nil, {0}, {150}, {7, 7, 7, 7}, {5, 5, 5}, {0, 150}, {149, 151, 160, 161, 400}, {maxTTL, 0, 3}}
	for range 300 {
		set := make([]int, rng.Intn(80))
		hi := []int{1, 10, 151, 400, 5000}[rng.Intn(5)]
		for i := range set {
			set[i] = rng.Intn(hi)
		}
		sets = append(sets, set)
	}
	same := func(a, b float64) bool { return a == b || math.IsNaN(a) && math.IsNaN(b) }
	for _, set := range sets {
		specs := make([]population.OpenResolverSpec, len(set))
		for i, ttl := range set {
			specs[i] = population.OpenResolverSpec{Responds: true, RespectsRD: true,
				Cached: []population.CachedRecord{{Record: population.RecPoolA, TTL: ttl}}}
		}
		rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
		res := CacheSnoop(specs)
		samples := make([]float64, len(set))
		want := stats.NewHistogram(0, 160, 10)
		for i, ttl := range set {
			samples[i] = float64(ttl)
			want.Add(samples[i])
		}
		if got, w := res.TTLMean(), stats.Mean(samples); !same(got, w) {
			t.Errorf("%v: TTLMean = %v, stats.Mean %v", set, got, w)
		}
		if got, w := res.TTLMedian(), stats.Median(samples); !same(got, w) {
			t.Errorf("%v: TTLMedian = %v, stats.Median %v", set, got, w)
		}
		h := res.TTLHistogram()
		if h.Total() != len(set) || h.Under() != want.Under() || h.Over() != want.Over() {
			t.Errorf("%v: histogram total/under/over = %d/%d/%d, want %d/%d/%d",
				set, h.Total(), h.Under(), h.Over(), len(set), want.Under(), want.Over())
		}
		for i := range h.Bins() {
			if h.Bin(i) != want.Bin(i) {
				t.Errorf("%v: bin %d = %d, want %d", set, i, h.Bin(i), want.Bin(i))
			}
		}
	}
}

// TestTableIVRows: the fold's row order is population.AllPoolRecords.
func TestTableIVRows(t *testing.T) {
	if !slices.Equal(tableIV[:], population.AllPoolRecords()) {
		t.Fatalf("tableIV = %v, want %v", tableIV, population.AllPoolRecords())
	}
}

func TestTTLHistogramUniform(t *testing.T) {
	cfg := population.DefaultOpenResolverConfig()
	cfg.Total = 50000
	res := CacheSnoop(population.GenerateOpenResolvers(cfg, 12))
	h := res.TTLHistogram()
	if h.Total() < 1000 {
		t.Fatalf("TTL samples = %d", h.Total())
	}
	// Uniform on [0,150]: the 15 bins below 150 should be roughly equal.
	first := float64(h.Bin(0))
	for i := 1; i < 15; i++ {
		ratio := float64(h.Bin(i)) / first
		if ratio < 0.7 || ratio > 1.4 {
			t.Errorf("bin %d/%d ratio %.2f; distribution not uniform", i, 0, ratio)
		}
	}
}

func TestAdStudyTableV(t *testing.T) {
	clients := population.GenerateAdClients(population.DefaultAdStudyConfig(), 9)
	res := AdStudy(clients)
	if res.Filtered == 0 {
		t.Error("no results filtered")
	}
	if res.ValidClients == 0 {
		t.Fatal("no valid clients")
	}
	var all, noGoogle *AdRow
	for i := range res.Rows {
		switch res.Rows[i].Label {
		case "ALL":
			all = &res.Rows[i]
		case "Without Google":
			noGoogle = &res.Rows[i]
		}
	}
	if all == nil || noGoogle == nil {
		t.Fatal("missing aggregate rows")
	}
	if math.Abs(all.TinyPct-64) > 8 {
		t.Errorf("ALL tiny%% = %.1f, want ≈64", all.TinyPct)
	}
	if math.Abs(all.AnyPct-91) > 8 {
		t.Errorf("ALL any%% = %.1f, want ≈91", all.AnyPct)
	}
	if noGoogle.TinyPct <= all.TinyPct {
		t.Errorf("without-Google tiny%% (%.1f) should exceed ALL (%.1f)", noGoogle.TinyPct, all.TinyPct)
	}
	if res.DNSSECMinPct < 15 || res.DNSSECMaxPct > 33 || res.DNSSECMinPct >= res.DNSSECMaxPct {
		t.Errorf("DNSSEC range = [%.1f, %.1f], want ≈[19, 29]", res.DNSSECMinPct, res.DNSSECMaxPct)
	}
	if res.Render() == "" {
		t.Error("empty render")
	}
}

func TestSharedResolverStudy(t *testing.T) {
	specs := population.GenerateSharedResolvers(population.DefaultSharedResolverConfig(), 21)
	res := SharedResolverStudy(specs)
	if res.Total != 18668 {
		t.Fatalf("total = %d", res.Total)
	}
	if f := res.TriggerablePct(); math.Abs(f-13.8) > 1.5 {
		t.Errorf("triggerable = %.1f%%, want ≈13.8%%", f)
	}
	if res.WebOnly+res.WebAndSMTP+res.OpenOnly+res.OpenAndSMTP != res.Total {
		t.Error("classification does not partition the population")
	}
}

func TestTimingSideChannelInconclusive(t *testing.T) {
	cfg := population.DefaultTimingProbeConfig()
	res := TimingSideChannel(cfg, 17)
	h := res.Histogram()
	if h.Total() != cfg.Resolvers {
		t.Fatalf("samples = %d", h.Total())
	}
	// Rebuild ground truth for accuracy check.
	rng := rand.New(rand.NewSource(17))
	cached := make([]bool, cfg.Resolvers)
	deltas := make([]float64, cfg.Resolvers)
	for i := range deltas {
		jitter := rng.NormFloat64() * cfg.JitterMS
		if rng.Float64() < cfg.PCached {
			cached[i] = true
			deltas[i] = jitter
		} else {
			rtt := cfg.UpstreamRTTMinMS + rng.Float64()*(cfg.UpstreamRTTMaxMS-cfg.UpstreamRTTMinMS)
			deltas[i] = rtt + jitter
		}
	}
	_, acc := bestThresholdAccuracy(deltas, cached)
	if acc > 0.93 {
		t.Errorf("best threshold accuracy = %.3f; Figure 7 expects no clean separation", acc)
	}
	if acc < 0.6 {
		t.Errorf("accuracy = %.3f implausibly low", acc)
	}
}

func TestBestThresholdAccuracyDegenerate(t *testing.T) {
	if _, acc := bestThresholdAccuracy(nil, nil); acc != 0 {
		t.Error("empty input should yield 0")
	}
	if _, acc := bestThresholdAccuracy([]float64{1}, []bool{true, false}); acc != 0 {
		t.Error("mismatched input should yield 0")
	}
}

// bestThresholdAccuracy sweeps candidate thresholds T and returns the best
// achievable classification accuracy if "cached" were declared whenever
// t_first − t_avg < T, given the ground truth. The paper's conclusion — no
// reasonable T exists — corresponds to accuracies well below 1.
func bestThresholdAccuracy(deltas []float64, cached []bool) (bestT float64, accuracy float64) {
	if len(deltas) != len(cached) || len(deltas) == 0 {
		return 0, 0
	}
	for t := -50.0; t <= 200; t += 5 {
		correct := 0
		for i, d := range deltas {
			if (d < t) == cached[i] {
				correct++
			}
		}
		if acc := float64(correct) / float64(len(deltas)); acc > accuracy {
			accuracy, bestT = acc, t
		}
	}
	return bestT, accuracy
}
