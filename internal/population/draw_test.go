package population

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dnstime/internal/ipv4"
	"dnstime/internal/simrand"
)

// The reference draws below are the nameserver, ad-client and
// shared-resolver generators as they were written on
// rand.New(rand.NewSource(seed)), one Float64 per test and one Intn per
// count, before each read the stream through a simrand.Source. The
// oracle tests and fuzz targets compare the draw loops, the tally and
// the collectors with them.

func referenceDomainNameservers(cfg DomainNameserverConfig, seed int64) []NameserverSpec {
	rng := rand.New(rand.NewSource(seed))
	out := make([]NameserverSpec, cfg.Total)
	for i := range out {
		var s NameserverSpec
		switch {
		case rng.Float64() < cfg.PDNSSEC:
			s = NameserverSpec{DNSSEC: true, MinFragSize: ipv4.DefaultMTU}
		case rng.Float64() < cfg.PFragNoDNSSEC/(1-cfg.PDNSSEC):
			s = NameserverSpec{Fragments: true, MinFragSize: referenceFragSize(rng, cfg)}
		default:
			s = NameserverSpec{MinFragSize: ipv4.DefaultMTU}
		}
		out[i] = s
	}
	return out
}

func referenceFragSize(rng *rand.Rand, cfg DomainNameserverConfig) int {
	r := rng.Float64()
	switch {
	case r < cfg.CumAt292:
		return 292
	case r < cfg.CumAt548:
		return 548
	case r < cfg.CumAt1276:
		return 1276
	default:
		return 1500
	}
}

func referenceAdClients(cfg AdStudyConfig, seed int64) []AdClientSpec {
	rng := rand.New(rand.NewSource(seed))
	total := 0
	for _, region := range AllRegions() {
		total += cfg.Regions[region].Clients
	}
	out := make([]AdClientSpec, 0, total)
	for _, region := range AllRegions() {
		p := cfg.Regions[region]
		for i := 0; i < p.Clients; i++ {
			c := AdClientSpec{Region: region, Device: PC, BaselineOK: true, SigrightOK: true, PageOpenSeconds: 31 + rng.Intn(600)}
			if rng.Float64() < p.PMobile {
				c.Device = Mobile
			}
			if rng.Float64() < cfg.PInvalidPage {
				if rng.Float64() < 0.5 {
					c.PageOpenSeconds = rng.Intn(30)
				} else {
					c.BaselineOK = false
				}
			}
			c.GoogleDNS = rng.Float64() < p.PGoogle
			if c.GoogleDNS {
				c.AcceptsBig = true
			} else {
				pAnyNG := (p.PAnyFragment - p.PGoogle) / (1 - p.PGoogle)
				pTinyNG := p.PTiny / (1 - p.PGoogle)
				if rng.Float64() < pAnyNG {
					c.AcceptsBig = true
					c.AcceptsMedium = rng.Float64() < 0.95
					c.AcceptsSmall = c.AcceptsMedium && rng.Float64() < 0.95
					pTinyGivenSmall := pTinyNG / (pAnyNG * 0.95 * 0.95)
					if pTinyGivenSmall > 1 {
						pTinyGivenSmall = 1
					}
					c.AcceptsTiny = c.AcceptsSmall && rng.Float64() < pTinyGivenSmall
				}
			}
			c.ValidatesDNSSEC = rng.Float64() < p.PDNSSEC
			out = append(out, c)
		}
	}
	return out
}

func referenceSharedResolvers(cfg SharedResolverConfig, seed int64) []SharedResolverSpec {
	rng := rand.New(rand.NewSource(seed))
	out := make([]SharedResolverSpec, cfg.Total)
	for i := range out {
		s := SharedResolverSpec{UsedByWeb: true}
		r := rng.Float64()
		switch {
		case r < cfg.PBoth:
			s.Open, s.UsedBySMTP = true, true
		case r < cfg.PBoth+cfg.POpenOnly:
			s.Open = true
		case r < cfg.PBoth+cfg.POpenOnly+cfg.PSMTPOnly:
			s.UsedBySMTP = true
		}
		out[i] = s
	}
	return out
}

// checkDraw compares a draw loop and its collector with the reference
// for one config and seed: the collector's population with
// reflect.DeepEqual, the loop's yields one by one, and a loop stopped
// after its first yield, which must not yield again (the range-over-func
// runtime panics if it does).
func checkDraw[T any](t *testing.T, want, stored []T, draw func(func(T) bool)) {
	t.Helper()
	checkStored(t, want, stored)
	i := 0
	for got := range draw {
		if i >= len(want) {
			t.Fatalf("draw loop yielded more than the reference's %d items", len(want))
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("draw loop item %d = %+v, reference %+v", i, got, want[i])
		}
		i++
	}
	if i != len(want) {
		t.Fatalf("draw loop yielded %d items, reference %d", i, len(want))
	}
	for range draw {
		break
	}
}

// checkStored compares a collected population with the reference's.
func checkStored[T any](t *testing.T, want, stored []T) {
	t.Helper()
	if !reflect.DeepEqual(stored, want) {
		for i := range min(len(stored), len(want)) {
			if !reflect.DeepEqual(stored[i], want[i]) {
				t.Fatalf("collected item %d = %+v, reference %+v", i, stored[i], want[i])
			}
		}
		t.Fatalf("collected %d items, reference %d", len(stored), len(want))
	}
}

// classTally counts nameservers by class, in TallyDomainNameservers'
// order: the rule the §VII-B scan reads them by.
func classTally(specs []NameserverSpec) [nsClasses]NameserverCount {
	var out [nsClasses]NameserverCount
	for c, spec := range nameserverClasses {
		out[c].Spec = spec
	}
	for _, s := range specs {
		c := slices.Index(nameserverClasses[:], s)
		if c < 0 {
			panic(fmt.Sprintf("nameserver %+v is of no class", s))
		}
		out[c].N++
	}
	return out
}

// checkDomainNameserverDraw compares GenerateDomainNameservers with the
// reference, and TallyDomainNameservers with the reference counted by
// class.
func checkDomainNameserverDraw(t *testing.T, cfg DomainNameserverConfig, seed int64) {
	t.Helper()
	want := referenceDomainNameservers(cfg, seed)
	checkStored(t, want, GenerateDomainNameservers(cfg, seed))
	if got, w := TallyDomainNameservers(cfg, seed), classTally(want); got != w {
		t.Fatalf("tally = %+v, reference %+v", got, w)
	}
}

// referenceTimingDeltas is the Figure 7 draw as it was written, into a
// stored slice on rand.New(rand.NewSource(seed)).
func referenceTimingDeltas(cfg TimingProbeConfig, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, max(cfg.Resolvers, 0))
	for i := range out {
		jitter := rng.NormFloat64() * cfg.JitterMS
		if rng.Float64() < cfg.PCached {
			out[i] = jitter
		} else {
			rtt := cfg.UpstreamRTTMinMS + rng.Float64()*(cfg.UpstreamRTTMaxMS-cfg.UpstreamRTTMinMS)
			out[i] = rtt + jitter
		}
	}
	return out
}

// TestTimingDeltasMatchMathRand: TimingDeltas yields, and
// GenerateTimingDeltas stores, exactly the samples the reference draws,
// for fig7's campaign seed 1 (seed + 17), edge seeds, every cached
// fraction at the edges and no probes.
func TestTimingDeltasMatchMathRand(t *testing.T) {
	def := DefaultTimingProbeConfig()
	for _, seed := range append([]int64{18}, edgeSeeds...) {
		checkDraw(t, referenceTimingDeltas(def, seed), GenerateTimingDeltas(def, seed), TimingDeltas(def, seed))
	}
	for _, p := range edgeProbs {
		cfg := def
		cfg.Resolvers, cfg.PCached = 2000, p
		checkDraw(t, referenceTimingDeltas(cfg, 19), GenerateTimingDeltas(cfg, 19), TimingDeltas(cfg, 19))
	}
	for _, n := range []int{0, -1} {
		cfg := def
		cfg.Resolvers = n
		checkDraw(t, referenceTimingDeltas(cfg, 19), GenerateTimingDeltas(cfg, 19), TimingDeltas(cfg, 19))
	}
}

func checkAdClientDraw(t *testing.T, cfg AdStudyConfig, seed int64) {
	t.Helper()
	checkDraw(t, referenceAdClients(cfg, seed), GenerateAdClients(cfg, seed), AdClients(cfg, seed))
}

func checkSharedResolverDraw(t *testing.T, cfg SharedResolverConfig, seed int64) {
	t.Helper()
	checkDraw(t, referenceSharedResolvers(cfg, seed), GenerateSharedResolvers(cfg, seed), SharedResolvers(cfg, seed))
}

// edgeSeeds are the seeds every oracle runs the default population at,
// after the study's own.
var edgeSeeds = []int64{0, -1, math.MinInt64, math.MaxInt64}

// edgeProbs are the probabilities the oracles put in each field: the
// ends of [0, 1], NaN (no draw is below it), the infinities and a value
// above 1.
var edgeProbs = []float64{0, 1, math.NaN(), math.Inf(1), math.Inf(-1), 1.5}

type drawCase[C any] struct {
	name string
	cfg  C
	seed int64
}

// domainNameserverCases: the default population at fig5's campaign seed
// 1 (seed + 5) and the edge seeds, a 10 000-domain one, every edge
// probability in each
// field, at a size that reaches every branch, and each of the draw's five
// cuts on a drawn value and just past it (cutCases).
func domainNameserverCases() []drawCase[DomainNameserverConfig] {
	def := DefaultDomainNameserverConfig()
	cases := []drawCase[DomainNameserverConfig]{{"default seed 6", def, 6}}
	for _, s := range edgeSeeds {
		cases = append(cases, drawCase[DomainNameserverConfig]{fmt.Sprint("default seed ", s), def, s})
	}
	with := func(name string, edit func(*DomainNameserverConfig)) {
		cfg := def
		cfg.Total = 10000
		edit(&cfg)
		cases = append(cases, drawCase[DomainNameserverConfig]{name, cfg, 7})
	}
	with("10 000 domains", func(*DomainNameserverConfig) {})
	with("Total 0", func(c *DomainNameserverConfig) { c.Total = 0 })
	with("CumAt548 below CumAt292", func(c *DomainNameserverConfig) { c.CumAt292, c.CumAt548 = 0.5, 0.25 })
	for _, p := range edgeProbs {
		with(fmt.Sprint("PDNSSEC ", p), func(c *DomainNameserverConfig) { c.PDNSSEC = p })
		with(fmt.Sprint("PFragNoDNSSEC ", p), func(c *DomainNameserverConfig) { c.PFragNoDNSSEC = p })
		with(fmt.Sprint("CumAt292 ", p), func(c *DomainNameserverConfig) { c.CumAt292 = p })
		with(fmt.Sprint("CumAt548 ", p), func(c *DomainNameserverConfig) { c.CumAt548 = p })
		with(fmt.Sprint("CumAt1276 ", p), func(c *DomainNameserverConfig) { c.CumAt1276 = p })
	}
	return append(cases, cutCases()...)
}

// cutCases places each of the domain-nameserver draw's cuts exactly on
// the 63-bit value v of the first nameserver's draw it decides, where
// the nameserver must fail the test, and one past it, where it must
// pass: a decision off by one fails one of the two. Below(p) is the least
// value whose Float64 is not below p, so p = float64(v)/2⁶³ puts the cut
// on v when v is the least value rounding to p, about one value in a
// thousand; the seeds are searched for one. The first nameserver's
// signed draw is the stream's first output, its fragmenting draw (with
// PDNSSEC 0, so that the cut is Below(PFragNoDNSSEC)) the second and its
// size draw (with PFragNoDNSSEC 1) the third; each CumAt case puts the
// cuts before it at 0.
func cutCases() []drawCase[DomainNameserverConfig] {
	fields := []struct {
		name   string
		output int // the draw's output in the stream
		set    func(*DomainNameserverConfig, float64)
	}{
		{"PDNSSEC", 0, func(c *DomainNameserverConfig, p float64) { c.PDNSSEC = p }},
		{"PFragNoDNSSEC", 1, func(c *DomainNameserverConfig, p float64) { c.PDNSSEC, c.PFragNoDNSSEC = 0, p }},
		{"CumAt292", 2, func(c *DomainNameserverConfig, p float64) { c.PDNSSEC, c.PFragNoDNSSEC, c.CumAt292 = 0, 1, p }},
		{"CumAt548", 2, func(c *DomainNameserverConfig, p float64) {
			c.PDNSSEC, c.PFragNoDNSSEC, c.CumAt292, c.CumAt548 = 0, 1, 0, p
		}},
		{"CumAt1276", 2, func(c *DomainNameserverConfig, p float64) {
			c.PDNSSEC, c.PFragNoDNSSEC, c.CumAt292, c.CumAt548, c.CumAt1276 = 0, 1, 0, 0, p
		}},
	}
	var cases []drawCase[DomainNameserverConfig]
	for _, f := range fields {
		for _, past := range []uint64{0, 1} {
			for seed := int64(1); ; seed++ {
				src := rand.NewSource(seed)
				var v uint64
				for range f.output + 1 {
					v = uint64(src.Int63())
				}
				p := float64(v+past) / (1 << 63)
				if simrand.Below(p) != simrand.Cut(v+past) {
					continue
				}
				cfg := DefaultDomainNameserverConfig()
				cfg.Total = 3
				f.set(&cfg, p)
				name := fmt.Sprintf("%s on the draw", f.name)
				if past == 1 {
					name = fmt.Sprintf("%s one past the draw", f.name)
				}
				cases = append(cases, drawCase[DomainNameserverConfig]{name, cfg, seed})
				break
			}
		}
	}
	return cases
}

// adClientCases: the default study at table5's campaign seed 1
// (seed + 9) and the edge seeds, regions with no clients or no entry,
// a region outside AllRegions, and every edge probability in each field.
func adClientCases() []drawCase[AdStudyConfig] {
	cases := []drawCase[AdStudyConfig]{{"default seed 10", DefaultAdStudyConfig(), 10}}
	for _, s := range edgeSeeds {
		cases = append(cases, drawCase[AdStudyConfig]{fmt.Sprint("default seed ", s), DefaultAdStudyConfig(), s})
	}
	with := func(name string, edit func(*AdStudyConfig)) {
		cfg := DefaultAdStudyConfig()
		for region, p := range cfg.Regions {
			p.Clients /= 4
			cfg.Regions[region] = p
		}
		edit(&cfg)
		cases = append(cases, drawCase[AdStudyConfig]{name, cfg, 11})
	}
	with("Europe 0 clients", func(c *AdStudyConfig) {
		p := c.Regions[Europe]
		p.Clients = 0
		c.Regions[Europe] = p
	})
	with("no Africa", func(c *AdStudyConfig) { delete(c.Regions, Africa) })
	with("extra region", func(c *AdStudyConfig) { c.Regions["Oceania"] = c.Regions[Asia] })
	with("no regions", func(c *AdStudyConfig) { c.Regions = nil })
	fields := []struct {
		name string
		of   func(*RegionParams) *float64
	}{
		{"PTiny", func(r *RegionParams) *float64 { return &r.PTiny }},
		{"PAnyFragment", func(r *RegionParams) *float64 { return &r.PAnyFragment }},
		{"PDNSSEC", func(r *RegionParams) *float64 { return &r.PDNSSEC }},
		{"PGoogle", func(r *RegionParams) *float64 { return &r.PGoogle }},
		{"PMobile", func(r *RegionParams) *float64 { return &r.PMobile }},
	}
	for _, p := range edgeProbs {
		with(fmt.Sprint("PInvalidPage ", p), func(c *AdStudyConfig) { c.PInvalidPage = p })
		for _, field := range fields {
			with(fmt.Sprintf("Asia %s %v", field.name, p), func(c *AdStudyConfig) {
				r := c.Regions[Asia]
				*field.of(&r) = p
				c.Regions[Asia] = r
			})
		}
	}
	return cases
}

// sharedResolverCases: the default topology at shared's campaign seed 1
// (seed + 21) and the edge seeds, cases that are not cumulative, and
// every edge probability in each field.
func sharedResolverCases() []drawCase[SharedResolverConfig] {
	def := DefaultSharedResolverConfig()
	cases := []drawCase[SharedResolverConfig]{{"default seed 22", def, 22}}
	for _, s := range edgeSeeds {
		cases = append(cases, drawCase[SharedResolverConfig]{fmt.Sprint("default seed ", s), def, s})
	}
	with := func(name string, edit func(*SharedResolverConfig)) {
		cfg := def
		cfg.Total = 5000
		edit(&cfg)
		cases = append(cases, drawCase[SharedResolverConfig]{name, cfg, 23})
	}
	with("Total 0", func(c *SharedResolverConfig) { c.Total = 0 })
	with("POpenOnly negative", func(c *SharedResolverConfig) { c.PBoth, c.POpenOnly = 0.5, -0.25 })
	for _, p := range edgeProbs {
		with(fmt.Sprint("PBoth ", p), func(c *SharedResolverConfig) { c.PBoth = p })
		with(fmt.Sprint("POpenOnly ", p), func(c *SharedResolverConfig) { c.POpenOnly = p })
		with(fmt.Sprint("PSMTPOnly ", p), func(c *SharedResolverConfig) { c.PSMTPOnly = p })
	}
	return cases
}

// TestDomainNameserverDrawMatchesMathRand is the oracle for the
// nameserver draw: GenerateDomainNameservers must consume math/rand's
// stream exactly as the reference does, and TallyDomainNameservers count
// by class what the reference draws.
func TestDomainNameserverDrawMatchesMathRand(t *testing.T) {
	for _, tc := range domainNameserverCases() {
		t.Run(tc.name, func(t *testing.T) { checkDomainNameserverDraw(t, tc.cfg, tc.seed) })
	}
}

// TestAdClientDrawMatchesMathRand is the oracle for the ad-client draw,
// its Intn page times included.
func TestAdClientDrawMatchesMathRand(t *testing.T) {
	for _, tc := range adClientCases() {
		t.Run(tc.name, func(t *testing.T) { checkAdClientDraw(t, tc.cfg, tc.seed) })
	}
}

// TestSharedResolverDrawMatchesMathRand is the oracle for the
// shared-resolver draw.
func TestSharedResolverDrawMatchesMathRand(t *testing.T) {
	for _, tc := range sharedResolverCases() {
		t.Run(tc.name, func(t *testing.T) { checkSharedResolverDraw(t, tc.cfg, tc.seed) })
	}
}

// FuzzDomainNameserverDraw: for any seed, up to 5 000 nameservers and
// probabilities from raw float64 bits (NaN, infinities, subnormals,
// values above 1), GenerateDomainNameservers matches the reference and
// TallyDomainNameservers the reference's count by class. The seed corpus
// holds every oracle case, cut to that size.
func FuzzDomainNameserverDraw(f *testing.F) {
	for _, tc := range domainNameserverCases() {
		c := tc.cfg
		f.Add(tc.seed, uint16(min(c.Total, 5000)), math.Float64bits(c.PFragNoDNSSEC), math.Float64bits(c.PDNSSEC),
			math.Float64bits(c.CumAt292), math.Float64bits(c.CumAt548), math.Float64bits(c.CumAt1276))
	}
	f.Fuzz(func(t *testing.T, seed int64, total uint16, frag, dnssec, at292, at548, at1276 uint64) {
		checkDomainNameserverDraw(t, DomainNameserverConfig{
			Total:         int(total % 5001),
			PFragNoDNSSEC: math.Float64frombits(frag),
			PDNSSEC:       math.Float64frombits(dnssec),
			CumAt292:      math.Float64frombits(at292),
			CumAt548:      math.Float64frombits(at548),
			CumAt1276:     math.Float64frombits(at1276),
		}, seed)
	})
}

// adRegionBytes is the size of one region's fuzz encoding: a client
// count (two bytes, up to 1 000 clients) and RegionParams' five
// probabilities as raw float64 bits.
const adRegionBytes = 2 + 5*8

// fuzzRegions are the regions FuzzAdClientDraw fills in order: Table V's
// and one the draw must skip.
var fuzzRegions = append(AllRegions(), "Oceania")

// FuzzAdClientDraw: for any seed, PInvalidPage and up to six regions
// (Table V's five, then one outside AllRegions) of up to 1 000 clients
// with raw-bit probabilities, the draw matches the reference. The seed
// corpus holds every oracle case, cut to that size.
func FuzzAdClientDraw(f *testing.F) {
	for _, tc := range adClientCases() {
		var regions []byte
		for _, region := range fuzzRegions {
			p, ok := tc.cfg.Regions[region]
			if !ok {
				break
			}
			regions = binary.LittleEndian.AppendUint16(regions, uint16(min(p.Clients, 1000)))
			for _, v := range []float64{p.PTiny, p.PAnyFragment, p.PDNSSEC, p.PGoogle, p.PMobile} {
				regions = binary.LittleEndian.AppendUint64(regions, math.Float64bits(v))
			}
		}
		f.Add(tc.seed, math.Float64bits(tc.cfg.PInvalidPage), regions)
	}
	f.Fuzz(func(t *testing.T, seed int64, invalid uint64, regions []byte) {
		cfg := AdStudyConfig{PInvalidPage: math.Float64frombits(invalid), Regions: map[Region]RegionParams{}}
		for i, region := range fuzzRegions {
			b := regions[min(i*adRegionBytes, len(regions)):]
			if len(b) < adRegionBytes {
				break
			}
			prob := func(k int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b[2+8*k:])) }
			cfg.Regions[region] = RegionParams{
				Clients: int(binary.LittleEndian.Uint16(b) % 1001),
				PTiny:   prob(0), PAnyFragment: prob(1), PDNSSEC: prob(2), PGoogle: prob(3), PMobile: prob(4),
			}
		}
		checkAdClientDraw(t, cfg, seed)
	})
}

// FuzzSharedResolverDraw: for any seed, up to 5 000 resolvers and
// raw-bit probabilities, the draw matches the reference. The seed corpus
// holds every oracle case, cut to that size.
func FuzzSharedResolverDraw(f *testing.F) {
	for _, tc := range sharedResolverCases() {
		c := tc.cfg
		f.Add(tc.seed, uint16(min(c.Total, 5000)), math.Float64bits(c.PSMTPOnly), math.Float64bits(c.POpenOnly), math.Float64bits(c.PBoth))
	}
	f.Fuzz(func(t *testing.T, seed int64, total uint16, smtp, open, both uint64) {
		checkSharedResolverDraw(t, SharedResolverConfig{
			Total:     int(total % 5001),
			PSMTPOnly: math.Float64frombits(smtp),
			POpenOnly: math.Float64frombits(open),
			PBoth:     math.Float64frombits(both),
		}, seed)
	})
}
