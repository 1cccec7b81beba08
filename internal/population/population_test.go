package population

import (
	"encoding/binary"
	"fmt"
	"iter"
	"math"
	"math/rand"
	"reflect"
	"runtime"
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

// TestOpenResolversMatchesGenerate: TallyOpenResolvers counts exactly
// what GenerateOpenResolvers stores, folded by the snoop's rule, for the
// default population and for configs that reach each branch of the draw.
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
			stored := GenerateOpenResolvers(tc.cfg, tc.seed)
			records := OpenResolverRecords(tc.cfg)
			for _, tt := range tallyRules(records) {
				got := TallyOpenResolvers(tc.cfg, tc.seed, tt.record, tt.maxTTL)
				if want := snoopTally(stored, records, tt.record, tt.maxTTL); !reflect.DeepEqual(got, want) {
					t.Fatalf("TTL record %q, cap %d: tally %+v, stored population's %+v", tt.record, tt.maxTTL, got, want)
				}
			}
		})
	}
}

// tallyRule is the TTL record and cap a tally is taken with.
type tallyRule struct {
	record PoolRecord
	maxTTL int
}

// tallyRules are the rules the oracles take each tally with: Figure 6's
// (pool.ntp.org A, seven days), and the last record of the draw order
// with its TTLs capped at 100 s, below the default RecordTTL.
func tallyRules(records []PoolRecord) []tallyRule {
	rules := []tallyRule{{RecPoolA, 7 * 24 * 3600}}
	if len(records) > 0 {
		rules = append(rules, tallyRule{records[len(records)-1], 100})
	}
	return rules
}

// snoopTally folds a stored population by the cache snoop's rule: the
// responding resolvers, the verified ones, the verified ones caching each
// record, and the TTLs, capped at maxTTL, of the verified ones caching
// ttlRecord.
func snoopTally(specs []OpenResolverSpec, records []PoolRecord, ttlRecord PoolRecord, maxTTL int) OpenResolverTally {
	t := OpenResolverTally{Records: records, Cached: make([]int, len(records))}
	for _, s := range specs {
		if !s.Responds {
			continue
		}
		t.Responding++
		if !s.RespectsRD {
			continue
		}
		t.Verified++
		for _, c := range s.Cached {
			t.Cached[slices.Index(records, c.Record)]++
			if c.Record != ttlRecord {
				continue
			}
			ttl := min(c.TTL, maxTTL)
			if ttl >= len(t.TTLCounts) {
				t.TTLCounts = append(t.TTLCounts, make([]int, ttl+1-len(t.TTLCounts))...)
			}
			t.TTLCounts[ttl]++
		}
	}
	return t
}

// referenceOpenResolvers is the open-resolver draw written directly on
// rand.New(rand.NewSource(seed)), one Float64 per decision and Intn per
// TTL, as the population was drawn before it read the stream through a
// simrand.Source. It yields the specs GenerateOpenResolvers must return,
// carving each responding resolver's records out of a chunk, so a silent
// resolver's Cached is nil and a responding one's is non-nil.
func referenceOpenResolvers(cfg OpenResolverConfig, seed int64) iter.Seq[OpenResolverSpec] {
	return func(yield func(OpenResolverSpec) bool) {
		records := OpenResolverRecords(cfg)
		rng := rand.New(rand.NewSource(seed))
		chunkCap := 1024 * len(records)
		cached := make([]CachedRecord, 0, chunkCap)
		for range cfg.Total {
			if rng.Float64() >= cfg.PResponds {
				if !yield(OpenResolverSpec{}) {
					return
				}
				continue
			}
			s := OpenResolverSpec{Responds: true}
			s.RespectsRD = rng.Float64() < cfg.PRespectsRD
			s.AcceptsFragments = rng.Float64() < cfg.PAcceptsFragments
			if len(cached)+len(records) > cap(cached) {
				cached = make([]CachedRecord, 0, chunkCap)
			}
			start := len(cached)
			for _, rec := range records {
				if rng.Float64() < cfg.PCached[rec] {
					cached = append(cached, CachedRecord{rec, rng.Intn(cfg.RecordTTL + 1)})
				}
			}
			s.Cached = cached[start:len(cached):len(cached)]
			if !yield(s) {
				return
			}
		}
	}
}

// catch calls f and returns the value it panicked with, nil if none.
func catch(f func()) (panicked any) {
	defer func() { panicked = recover() }()
	f()
	return nil
}

// checkOpenResolverDraw compares GenerateOpenResolvers with the
// reference draw for one config and seed, with reflect.DeepEqual (nil
// against empty Cached included), and TallyOpenResolvers, under each of
// tallyRules, with the reference folded by the snoop's rule. A draw the
// reference panics on must panic with the same value.
func checkOpenResolverDraw(t *testing.T, cfg OpenResolverConfig, seed int64) {
	t.Helper()
	want := []OpenResolverSpec{}
	wantPanic := catch(func() {
		for s := range referenceOpenResolvers(cfg, seed) {
			want = append(want, s)
		}
	})
	records := OpenResolverRecords(cfg)
	for _, tt := range tallyRules(records) {
		var got OpenResolverTally
		if p := catch(func() { got = TallyOpenResolvers(cfg, seed, tt.record, tt.maxTTL) }); p != wantPanic {
			t.Fatalf("TallyOpenResolvers panicked with %v, reference with %v", p, wantPanic)
		}
		if w := snoopTally(want, records, tt.record, tt.maxTTL); wantPanic == nil && !reflect.DeepEqual(got, w) {
			t.Fatalf("TTL record %q, cap %d: tally %+v, reference %+v", tt.record, tt.maxTTL, got, w)
		}
	}
	var stored []OpenResolverSpec
	if p := catch(func() { stored = GenerateOpenResolvers(cfg, seed) }); p != wantPanic {
		t.Fatalf("GenerateOpenResolvers panicked with %v, reference with %v", p, wantPanic)
	}
	if wantPanic == nil && !reflect.DeepEqual(stored, want) {
		for i := range min(len(stored), len(want)) {
			if !reflect.DeepEqual(stored[i], want[i]) {
				t.Fatalf("GenerateOpenResolvers resolver %d = %#v, reference %#v", i, stored[i], want[i])
			}
		}
		t.Fatalf("GenerateOpenResolvers returned %d resolvers, reference %d", len(stored), len(want))
	}
}

// openResolverCases are the oracle's configs: the default population at
// the seeds the studies use, 20 000 resolvers (still hundreds of
// 607-output blocks) at a study seed and at edge seeds, among them 0 and
// 2³¹−1, which math/rand's Seed both maps to 89 482 311, and configs
// that reach every branch of the draw's decisions.
func openResolverCases() []struct {
	name string
	cfg  OpenResolverConfig
	seed int64
} {
	with := func(edit func(*OpenResolverConfig)) OpenResolverConfig {
		cfg := DefaultOpenResolverConfig()
		cfg.Total = 20000
		edit(&cfg)
		return cfg
	}
	def := DefaultOpenResolverConfig()
	return []struct {
		name string
		cfg  OpenResolverConfig
		seed int64
	}{
		{"default seed 1", def, 1},
		{"default seed 7", def, 7},
		{"20 000 resolvers", with(func(*OpenResolverConfig) {}), 12},
		{"20 000 resolvers seed 0", with(func(*OpenResolverConfig) {}), 0},
		{"20 000 resolvers seed -1", with(func(*OpenResolverConfig) {}), -1},
		{"20 000 resolvers seed MinInt64", with(func(*OpenResolverConfig) {}), math.MinInt64},
		{"20 000 resolvers seed MaxInt64", with(func(*OpenResolverConfig) {}), math.MaxInt64},
		{"20 000 resolvers seed 2^31-1", with(func(*OpenResolverConfig) {}), 1<<31 - 1},
		{"PCached nil", with(func(c *OpenResolverConfig) { c.PCached = nil }), 5},
		{"extra records p 0, 1, 1.5", with(func(c *OpenResolverConfig) {
			c.PCached["0.pool.ntp.org IN AAAA"] = 0
			c.PCached["1.pool.ntp.org IN AAAA"] = 1
			c.PCached["2.pool.ntp.org IN AAAA"] = 1.5
		}), 7},
		{"70 records", with(func(c *OpenResolverConfig) {
			c.Total = 5000
			for i := range 64 {
				c.PCached[PoolRecord(fmt.Sprintf("%d.extra.pool.ntp.org IN A", i))] = float64(i) / 63
			}
		}), 9},
		{"PResponds 0", with(func(c *OpenResolverConfig) { c.PResponds = 0 }), 3},
		{"PResponds 1", with(func(c *OpenResolverConfig) { c.PResponds = 1 }), 3},
		{"PResponds NaN", with(func(c *OpenResolverConfig) { c.PResponds = math.NaN() }), 3},
		{"PRespectsRD 0", with(func(c *OpenResolverConfig) { c.PRespectsRD = 0 }), 3},
		{"RecordTTL 127", with(func(c *OpenResolverConfig) { c.RecordTTL = 127 }), 4},
		{"RecordTTL 1<<30", with(func(c *OpenResolverConfig) { c.RecordTTL = 1 << 30 }), 4},
		{"RecordTTL 1<<31-1", with(func(c *OpenResolverConfig) { c.RecordTTL = 1<<31 - 1 }), 4},
		{"RecordTTL 3<<61", with(func(c *OpenResolverConfig) { c.RecordTTL = 3 << 61 }), 4},
		{"RecordTTL -1", with(func(c *OpenResolverConfig) { c.RecordTTL = -1 }), 4},
		{"empty", with(func(c *OpenResolverConfig) { c.Total = 0 }), 1},
	}
}

// TestOpenResolverDrawMatchesMathRand is the oracle for the draw: the
// tally and GenerateOpenResolvers must consume math/rand's stream exactly
// as the reference loop does. RecordTTL 127 takes Intn's power-of-two
// branch; at 1<<30 about half of all Int31n draws are rejected, so the
// tally leaves almost every responding resolver to the sequential draw,
// and one that did not check a TTL output it does not decode would read
// the stream out of step; from 1<<31−1 on Intn draws with Int63n, and at
// 3<<61 a quarter of those are rejected; at −1 Intn(0) must panic rather
// than draw.
func TestOpenResolverDrawMatchesMathRand(t *testing.T) {
	for _, tc := range openResolverCases() {
		t.Run(tc.name, func(t *testing.T) {
			checkOpenResolverDraw(t, tc.cfg, tc.seed)
		})
	}
}

// FuzzOpenResolverDraw: for any seed, population size up to 2 000, flag
// and record probabilities from raw float64 bits (NaN, infinities,
// subnormals, values above 1) and any RecordTTL, GenerateOpenResolvers
// draws what the reference loop draws and TallyOpenResolvers counts it,
// or both panic as the reference does (checkOpenResolverDraw). records
// holds up to eight probabilities, eight bytes each: the first six
// belong to the Table IV records, the rest to extra records. The seed
// corpus holds every oracle case, cut to those bounds.
func FuzzOpenResolverDraw(f *testing.F) {
	for _, tc := range openResolverCases() {
		cfg := tc.cfg
		records := OpenResolverRecords(cfg)
		var recs []byte
		for _, rec := range records[:min(len(records), 8)] {
			recs = binary.LittleEndian.AppendUint64(recs, math.Float64bits(cfg.PCached[rec]))
		}
		f.Add(tc.seed, uint16(min(cfg.Total, 2000)), math.Float64bits(cfg.PResponds),
			math.Float64bits(cfg.PRespectsRD), math.Float64bits(cfg.PAcceptsFragments), recs, int64(cfg.RecordTTL))
	}
	f.Fuzz(func(t *testing.T, seed int64, total uint16, responds, verifies, fragments uint64, records []byte, recordTTL int64) {
		cfg := OpenResolverConfig{
			Total:             int(total % 2001),
			PResponds:         math.Float64frombits(responds),
			PRespectsRD:       math.Float64frombits(verifies),
			PAcceptsFragments: math.Float64frombits(fragments),
			PCached:           map[PoolRecord]float64{},
			RecordTTL:         int(recordTTL),
		}
		for i := 0; i < 8 && len(records) >= 8*(i+1); i++ {
			rec := PoolRecord(fmt.Sprintf("%d.extra.pool.ntp.org IN A", i))
			if i < len(AllPoolRecords()) {
				rec = AllPoolRecords()[i]
			}
			cfg.PCached[rec] = math.Float64frombits(binary.LittleEndian.Uint64(records[8*i:]))
		}
		checkOpenResolverDraw(t, cfg, seed)
	})
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

// heapBudgetOpenResolverTally is the committed heap budget for one
// default-size open-resolver tally (200 000 resolvers, counted and
// discarded): its decisions, its sequential draw's scratch and the
// tally, 151 TTL counts and six record counts, with its Source on the
// stack. A Source on the heap, or a math/rand source seeded privately
// per draw, costs 4.9 KB more.
const heapBudgetOpenResolverTally = 2048

// TestHeapBudgetOpenResolverDraw reads runtime.MemStats.TotalAlloc over
// four tallies after one warm-up tally: a tally allocates the same bytes
// every time, so a handful gives its exact figure without timing a
// benchmark.
func TestHeapBudgetOpenResolverDraw(t *testing.T) {
	const calls = 4
	cfg := DefaultOpenResolverConfig()
	tally := func() { sinkInt += TallyOpenResolvers(cfg, 11, RecPoolA, 7*24*3600).Verified }
	tally()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range calls {
		tally()
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / calls
	if got > heapBudgetOpenResolverTally {
		t.Errorf("a default-size open-resolver tally allocates %d bytes, budget %d", got, heapBudgetOpenResolverTally)
	}
	t.Logf("open-resolver tally: %d bytes per call, budget %d", got, heapBudgetOpenResolverTally)
}

func BenchmarkGenerateOpenResolvers(b *testing.B) {
	cfg := DefaultOpenResolverConfig()
	b.ReportAllocs()
	for b.Loop() {
		GenerateOpenResolvers(cfg, 11)
	}
}

var sinkInt int

// BenchmarkOpenResolverDraw times the draw as table4 and fig6 run it, the
// tally with Figure 6's TTL record, with no snoop result built: beside
// BenchmarkGenerateOpenResolvers here and BenchmarkSnoopOpenResolvers and
// BenchmarkCacheSnoop in internal/measure it pins a slowdown on the draw
// or on the fold.
func BenchmarkOpenResolverDraw(b *testing.B) {
	cfg := DefaultOpenResolverConfig()
	b.ReportAllocs()
	for b.Loop() {
		sinkInt += TallyOpenResolvers(cfg, 11, RecPoolA, 7*24*3600).Verified
	}
}
