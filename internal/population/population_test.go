package population

import (
	"math"
	"slices"
	"testing"

	"dnstime/internal/ipv4"
)

func frac(n, d int) float64 { return float64(n) / float64(d) }

func TestGeneratePoolFractions(t *testing.T) {
	pop := GeneratePool(DefaultPoolConfig(), 1)
	if len(pop) != 2432 {
		t.Fatalf("population = %d, want 2432", len(pop))
	}
	var rate, kod, open int
	for _, s := range pop {
		if s.RateLimits {
			rate++
		}
		if s.SendsKoD {
			kod++
			if !s.RateLimits {
				t.Fatal("KoD sender that does not rate limit")
			}
		}
		if s.OpenConfig {
			open++
		}
	}
	if f := frac(rate, len(pop)); math.Abs(f-0.38) > 0.03 {
		t.Errorf("rate-limit fraction = %.3f, want ≈0.38", f)
	}
	if f := frac(kod, len(pop)); math.Abs(f-0.33) > 0.03 {
		t.Errorf("KoD fraction = %.3f, want ≈0.33", f)
	}
	if f := frac(open, len(pop)); math.Abs(f-0.053) > 0.02 {
		t.Errorf("open-config fraction = %.3f, want ≈0.053", f)
	}
}

func TestGeneratePoolDeterministic(t *testing.T) {
	a := GeneratePool(DefaultPoolConfig(), 7)
	b := GeneratePool(DefaultPoolConfig(), 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different populations")
		}
	}
	c := GeneratePool(DefaultPoolConfig(), 8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical populations")
	}
}

// TestGeneratePoolAddresses: every server of a 70 000-server pool has its
// own address (they used to repeat past 65 536), and the first 65 536 keep
// the 10.1.(i>>8).i addresses every default-size pool has always had.
func TestGeneratePoolAddresses(t *testing.T) {
	cfg := DefaultPoolConfig()
	cfg.Servers = 70000
	pop := GeneratePool(cfg, 1)
	seen := make(map[ipv4.Addr]int, len(pop))
	for i, s := range pop {
		if j, dup := seen[s.Addr]; dup {
			t.Fatalf("servers %d and %d share address %v", j, i, s.Addr)
		}
		seen[s.Addr] = i
		if want := (ipv4.Addr{10, 1, byte(i >> 8), byte(i)}); i < 65536 && s.Addr != want {
			t.Fatalf("server %d at %v, want %v", i, s.Addr, want)
		}
	}
	def := GeneratePool(DefaultPoolConfig(), 1)
	if !slices.Equal(def, pop[:len(def)]) {
		t.Error("a larger pool does not start with the default-size pool")
	}
}

func TestGeneratePoolNameservers(t *testing.T) {
	pop := GeneratePoolNameservers(DefaultPoolNameserverConfig(), 3)
	if len(pop) != 30 {
		t.Fatalf("population = %d, want 30", len(pop))
	}
	frag := 0
	for _, ns := range pop {
		if ns.DNSSEC {
			t.Error("pool nameserver with DNSSEC (paper: none)")
		}
		if ns.Fragments {
			frag++
			if ns.MinFragSize >= 549 {
				t.Errorf("fragmenting NS min size %d, want <549", ns.MinFragSize)
			}
		}
	}
	if frag != 16 {
		t.Errorf("fragmenting nameservers = %d, want 16", frag)
	}
}

func TestGenerateDomainNameserversFigure5(t *testing.T) {
	cfg := DefaultDomainNameserverConfig()
	pop := GenerateDomainNameservers(cfg, 5)
	var frag, signed, at292, at548 int
	for _, ns := range pop {
		if ns.DNSSEC {
			signed++
		}
		if ns.Fragments && !ns.DNSSEC {
			frag++
			if ns.MinFragSize <= 292 {
				at292++
			}
			if ns.MinFragSize <= 548 {
				at548++
			}
		}
	}
	if f := frac(frag, len(pop)); math.Abs(f-0.0766) > 0.005 {
		t.Errorf("frag+noDNSSEC fraction = %.4f, want ≈0.0766", f)
	}
	if f := frac(at292, frag); math.Abs(f-0.0705) > 0.01 {
		t.Errorf("cum fraction at 292 = %.4f, want ≈0.0705", f)
	}
	if f := frac(at548, frag); math.Abs(f-0.832) > 0.01 {
		t.Errorf("cum fraction at 548 = %.4f, want ≈0.832", f)
	}
	if f := frac(signed, len(pop)); math.Abs(f-0.01) > 0.005 {
		t.Errorf("DNSSEC fraction = %.4f, want ≈0.01", f)
	}
}

func TestGenerateOpenResolversTableIV(t *testing.T) {
	cfg := DefaultOpenResolverConfig()
	cfg.Total = 100000
	pop := GenerateOpenResolvers(cfg, 11)
	var responds, verified int
	cachedA := 0
	for _, r := range pop {
		if !r.Responds {
			continue
		}
		responds++
		if r.RespectsRD {
			verified++
			if _, ok := r.CachedTTL(RecPoolA); ok {
				cachedA++
			}
		}
	}
	if f := frac(verified, responds); math.Abs(f-0.408) > 0.02 {
		t.Errorf("verified fraction = %.3f, want ≈0.408", f)
	}
	if f := frac(cachedA, verified); math.Abs(f-0.6941) > 0.02 {
		t.Errorf("pool A cached fraction = %.3f, want ≈0.694", f)
	}
}

// TestGenerateOpenResolversDeterministic: the same (cfg, seed) must
// produce the identical population — including when PCached carries
// records beyond the built-in Table IV set, which must be honoured (in a
// fixed draw order), not dropped.
func TestGenerateOpenResolversDeterministic(t *testing.T) {
	extra := PoolRecord("2.pool.ntp.org IN AAAA")
	cfg := DefaultOpenResolverConfig()
	cfg.Total = 5000
	cfg.PCached[extra] = 1.0
	a := GenerateOpenResolvers(cfg, 7)
	sawExtra := false
	for run := 0; run < 3; run++ {
		b := GenerateOpenResolvers(cfg, 7)
		for i := range a {
			if len(a[i].Cached) != len(b[i].Cached) {
				t.Fatalf("resolver %d differs between identical-seed draws", i)
			}
			for _, c := range a[i].Cached {
				if ttl, ok := b[i].CachedTTL(c.Record); !ok || ttl != c.TTL {
					t.Fatalf("resolver %d record %s differs between identical-seed draws", i, c.Record)
				}
			}
		}
	}
	for _, r := range a {
		if r.Responds && r.RespectsRD {
			if _, ok := r.CachedTTL(extra); !ok {
				t.Fatalf("custom PCached record %s dropped (p=1.0 must always cache it)", extra)
			}
			sawExtra = true
		}
	}
	if !sawExtra {
		t.Fatal("no verified resolvers drawn")
	}
}

// TestOpenResolversMatchesGenerate: the draw loop yields exactly the
// specs GenerateOpenResolvers stores, in the same order, for the default
// population and for configs that reach each branch of the draw.
func TestOpenResolversMatchesGenerate(t *testing.T) {
	small := func(edit func(*OpenResolverConfig)) OpenResolverConfig {
		cfg := DefaultOpenResolverConfig()
		cfg.Total = 20000
		edit(&cfg)
		return cfg
	}
	cases := []struct {
		name string
		cfg  OpenResolverConfig
		seed int64
	}{
		{"default", DefaultOpenResolverConfig(), 1},
		{"extra record", small(func(c *OpenResolverConfig) { c.PCached["2.pool.ntp.org IN AAAA"] = 1.0 }), 7},
		{"none respond", small(func(c *OpenResolverConfig) { c.PResponds = 0 }), 3},
		{"all respond", small(func(c *OpenResolverConfig) { c.PResponds = 1 }), 3},
		{"no records", small(func(c *OpenResolverConfig) { c.PCached = nil }), 5},
		{"empty", small(func(c *OpenResolverConfig) { c.Total = 0 }), 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := GenerateOpenResolvers(tc.cfg, tc.seed)
			i := 0
			for got := range OpenResolvers(tc.cfg, tc.seed) {
				if i >= len(want) {
					t.Fatalf("draw loop yielded more than %d resolvers", len(want))
				}
				w := want[i]
				if got.Responds != w.Responds || got.RespectsRD != w.RespectsRD ||
					got.AcceptsFragments != w.AcceptsFragments || !slices.Equal(got.Cached, w.Cached) {
					t.Fatalf("resolver %d: yielded %+v, stored %+v", i, got, w)
				}
				i++
			}
			if i != len(want) {
				t.Fatalf("draw loop yielded %d resolvers, stored %d", i, len(want))
			}
		})
	}
}

// TestOpenResolversStops: a break ends the draw whichever kind of
// resolver it lands on; the range-over-func runtime panics if the loop
// yields again.
func TestOpenResolversStops(t *testing.T) {
	for _, responds := range []bool{false, true} {
		drawn := 0
		for s := range OpenResolvers(DefaultOpenResolverConfig(), 2) {
			drawn++
			if s.Responds == responds {
				break
			}
		}
		if drawn == DefaultOpenResolverConfig().Total {
			t.Errorf("no resolver with Responds=%v in the population", responds)
		}
	}
}

func TestOpenResolverTTLsWithinRange(t *testing.T) {
	cfg := DefaultOpenResolverConfig()
	cfg.Total = 20000
	for _, r := range GenerateOpenResolvers(cfg, 2) {
		for _, c := range r.Cached {
			if c.TTL < 0 || c.TTL > cfg.RecordTTL {
				t.Fatalf("record %s TTL %d out of [0,%d]", c.Record, c.TTL, cfg.RecordTTL)
			}
		}
	}
}

func TestGenerateAdClients(t *testing.T) {
	pop := GenerateAdClients(DefaultAdStudyConfig(), 9)
	if len(pop) < 7000 {
		t.Fatalf("clients = %d, want ≈8014", len(pop))
	}
	var tinyNotSmall int
	byRegion := map[Region]int{}
	for _, c := range pop {
		byRegion[c.Region]++
		if c.AcceptsTiny && !c.AcceptsSmall {
			tinyNotSmall++
		}
		if c.GoogleDNS && (c.AcceptsTiny || c.AcceptsSmall || c.AcceptsMedium) {
			t.Fatal("Google-DNS client accepted sub-big fragments")
		}
	}
	if tinyNotSmall > 0 {
		t.Errorf("%d clients accept tiny but not small fragments", tinyNotSmall)
	}
	if byRegion[Asia] != 3169 || byRegion[NorthAm] != 2314 {
		t.Errorf("region sizes = %v", byRegion)
	}
}

func TestGenerateSharedResolvers(t *testing.T) {
	pop := GenerateSharedResolvers(DefaultSharedResolverConfig(), 21)
	if len(pop) != 18668 {
		t.Fatalf("resolvers = %d, want 18668", len(pop))
	}
	var smtp, open, both, webOnly int
	for _, r := range pop {
		switch {
		case r.Open && r.UsedBySMTP:
			both++
		case r.Open:
			open++
		case r.UsedBySMTP:
			smtp++
		default:
			webOnly++
		}
	}
	if f := frac(webOnly, len(pop)); math.Abs(f-0.862) > 0.01 {
		t.Errorf("web-only = %.3f, want ≈0.862", f)
	}
	if f := frac(smtp, len(pop)); math.Abs(f-0.113) > 0.01 {
		t.Errorf("smtp = %.3f, want ≈0.113", f)
	}
	if f := frac(open+both, len(pop)); math.Abs(f-0.025) > 0.006 {
		t.Errorf("open = %.3f, want ≈0.025", f)
	}
}

func TestGenerateTimingDeltasOverlap(t *testing.T) {
	// Figure 7's point: the two populations overlap so much that no
	// threshold separates them; check both tails exist around zero.
	deltas := GenerateTimingDeltas(DefaultTimingProbeConfig(), 17)
	var below, between, above int
	for _, d := range deltas {
		switch {
		case d < 0:
			below++
		case d < 50:
			between++
		default:
			above++
		}
	}
	if below == 0 || between == 0 || above == 0 {
		t.Errorf("distribution not smeared: %d/%d/%d", below, between, above)
	}
}

func TestUniformTTLs(t *testing.T) {
	ttls := UniformTTLs(10000, 150, 3)
	if len(ttls) != 10000 {
		t.Fatal("wrong count")
	}
	var lo, hi int
	for _, ttl := range ttls {
		s := int(ttl.Seconds())
		if s < 0 || s > 150 {
			t.Fatalf("ttl %d out of range", s)
		}
		if s < 75 {
			lo++
		} else {
			hi++
		}
	}
	if math.Abs(frac(lo, len(ttls))-0.5) > 0.03 {
		t.Errorf("TTL distribution not uniform: %d below midpoint", lo)
	}
}

func BenchmarkGenerateOpenResolvers(b *testing.B) {
	cfg := DefaultOpenResolverConfig()
	b.ReportAllocs()
	for b.Loop() {
		GenerateOpenResolvers(cfg, 11)
	}
}
