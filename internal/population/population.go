// Package population generates the seeded synthetic populations that stand
// in for the paper's Internet-scale measurement subjects: the pool.ntp.org
// server population (Section VII-A), its nameservers and the popular-domain
// nameservers (Section VII-B / Figure 5), the Censys open-resolver dataset
// (Section VIII-A / Table IV / Figure 6), the ad-network client study
// (Section VIII-B / Table V) and the shared-resolver topology
// (Section VIII-B3).
//
// Every generator takes an explicit seed, so measurement runs are
// reproducible. Generation parameters default to the paper's measured
// ground truth; the measurement harness (internal/measure) then re-derives
// those numbers through the paper's methodology, closing the loop.
package population

import (
	"iter"
	"math/rand"
	"sort"
	"time"

	"dnstime/internal/ipv4"
)

// ---------------------------------------------------------------------------
// §VII-A: pool.ntp.org NTP servers.

// PoolServerSpec describes one synthetic pool server's behaviour.
type PoolServerSpec struct {
	Addr ipv4.Addr
	// RateLimits: the server stops answering flooding clients (paper: 38%).
	RateLimits bool
	// SendsKoD: the server sends a RATE Kiss-o'-Death at the limiting edge
	// (paper: 33%; KoD senders are a subset of rate limiters).
	SendsKoD bool
	// OpenConfig: the mode-7 config interface answers (paper: 5.3%).
	OpenConfig bool
}

// PoolConfig parameterises the pool population.
type PoolConfig struct {
	// Servers is the population size (paper: 2432).
	Servers int
	// PRateLimit is the rate-limiting fraction (paper: 0.38).
	PRateLimit float64
	// PKoD is the KoD-sending fraction (paper: 0.33; clamped to
	// PRateLimit).
	PKoD float64
	// POpenConfig is the open-config fraction (paper: 0.053).
	POpenConfig float64
}

// DefaultPoolConfig returns the paper's measured population parameters.
func DefaultPoolConfig() PoolConfig {
	return PoolConfig{Servers: 2432, PRateLimit: 0.38, PKoD: 0.33, POpenConfig: 0.053}
}

// GeneratePool draws a pool-server population. Server i sits at
// 10.(1+i>>16).(i>>8).i, so the first 2^24 servers have distinct
// addresses and the first 65 536 sit in 10.1.0.0/16.
func GeneratePool(cfg PoolConfig, seed int64) []PoolServerSpec {
	rng := rand.New(rand.NewSource(seed))
	if cfg.PKoD > cfg.PRateLimit {
		cfg.PKoD = cfg.PRateLimit
	}
	out := make([]PoolServerSpec, cfg.Servers)
	for i := range out {
		s := PoolServerSpec{Addr: ipv4.Addr{10, byte(1 + i>>16), byte(i >> 8), byte(i)}}
		r := rng.Float64()
		if r < cfg.PRateLimit {
			s.RateLimits = true
			// KoD senders are rate limiters: P(KoD|rate) = PKoD/PRate.
			s.SendsKoD = rng.Float64() < cfg.PKoD/cfg.PRateLimit
		}
		s.OpenConfig = rng.Float64() < cfg.POpenConfig
		out[i] = s
	}
	return out
}

// ---------------------------------------------------------------------------
// §VII-B / Figure 5: nameserver populations.

// NameserverSpec describes one nameserver's PMTUD/DNSSEC behaviour.
type NameserverSpec struct {
	// Fragments: the server honours ICMP Fragmentation Needed and emits
	// fragmented responses.
	Fragments bool
	// MinFragSize is the smallest fragment size the server will emit (its
	// PMTU acceptance floor); meaningful only when Fragments.
	MinFragSize int
	// DNSSEC: the served zone is signed.
	DNSSEC bool
}

// PoolNameserverConfig matches the pool.ntp.org nameserver scan: 30
// nameservers, 16 of which fragment below 548 bytes, none signed.
type PoolNameserverConfig struct {
	Total        int
	FragBelow548 int
}

// DefaultPoolNameserverConfig returns the paper's §VII-B values.
func DefaultPoolNameserverConfig() PoolNameserverConfig {
	return PoolNameserverConfig{Total: 30, FragBelow548: 16}
}

// GeneratePoolNameservers draws the pool.ntp.org nameserver population.
func GeneratePoolNameservers(cfg PoolNameserverConfig, seed int64) []NameserverSpec {
	rng := rand.New(rand.NewSource(seed))
	out := make([]NameserverSpec, cfg.Total)
	perm := rng.Perm(cfg.Total)
	for i := range out {
		if i < cfg.FragBelow548 {
			out[perm[i]] = NameserverSpec{Fragments: true, MinFragSize: 292 + rng.Intn(2)*256}
		} else {
			out[perm[i]] = NameserverSpec{Fragments: false, MinFragSize: ipv4.DefaultMTU}
		}
	}
	return out
}

// DomainNameserverConfig matches the popular-domain scan: 877,071
// nameservers, 7.66% of domains fragment without DNSSEC; among fragmenting
// nameservers the minimum fragment size distribution follows Figure 5
// (7.05% down to 292 B, 83.2% cumulative at 548 B).
type DomainNameserverConfig struct {
	Total int
	// PFragNoDNSSEC is the fraction that fragments and is unsigned.
	PFragNoDNSSEC float64
	// PDNSSEC is the overall signed fraction (~1%).
	PDNSSEC float64
	// CumAt292 and CumAt548 are Figure 5's cumulative fractions among the
	// fragmenting, unsigned population.
	CumAt292 float64
	CumAt548 float64
	// CumAt1276 extends the curve (most of the rest fragments at 1276).
	CumAt1276 float64
}

// DefaultDomainNameserverConfig returns the paper's §VII-B / Figure 5
// values (Total reduced from 877k to 100k for test-speed; scale-free).
func DefaultDomainNameserverConfig() DomainNameserverConfig {
	return DomainNameserverConfig{
		Total:         100000,
		PFragNoDNSSEC: 0.0766,
		PDNSSEC:       0.01,
		CumAt292:      0.0705,
		CumAt548:      0.832,
		CumAt1276:     0.95,
	}
}

// GenerateDomainNameservers draws the popular-domain nameserver population.
func GenerateDomainNameservers(cfg DomainNameserverConfig, seed int64) []NameserverSpec {
	rng := rand.New(rand.NewSource(seed))
	out := make([]NameserverSpec, cfg.Total)
	for i := range out {
		var s NameserverSpec
		switch {
		case rng.Float64() < cfg.PDNSSEC:
			s = NameserverSpec{DNSSEC: true, MinFragSize: ipv4.DefaultMTU}
		case rng.Float64() < cfg.PFragNoDNSSEC/(1-cfg.PDNSSEC):
			s = NameserverSpec{Fragments: true, MinFragSize: drawFragSize(rng, cfg)}
		default:
			s = NameserverSpec{MinFragSize: ipv4.DefaultMTU}
		}
		out[i] = s
	}
	return out
}

func drawFragSize(rng *rand.Rand, cfg DomainNameserverConfig) int {
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

// ---------------------------------------------------------------------------
// §VIII-A: open resolvers (Censys-style dataset).

// PoolRecord names the cache-snooped records of Table IV.
type PoolRecord string

// The six snooped records.
const (
	RecPoolNS PoolRecord = "pool.ntp.org IN NS"
	RecPoolA  PoolRecord = "pool.ntp.org IN A"
	Rec0Pool  PoolRecord = "0.pool.ntp.org IN A"
	Rec1Pool  PoolRecord = "1.pool.ntp.org IN A"
	Rec2Pool  PoolRecord = "2.pool.ntp.org IN A"
	Rec3Pool  PoolRecord = "3.pool.ntp.org IN A"
)

// AllPoolRecords lists the Table IV records in paper order.
func AllPoolRecords() []PoolRecord {
	return []PoolRecord{RecPoolNS, RecPoolA, Rec0Pool, Rec1Pool, Rec2Pool, Rec3Pool}
}

// CachedRecord is one cached pool record with its remaining TTL (seconds).
type CachedRecord struct {
	Record PoolRecord
	TTL    int
}

// OpenResolverSpec describes one open resolver.
type OpenResolverSpec struct {
	// Responds: the resolver answers external queries at all.
	Responds bool
	// RespectsRD: RD=0 is answered from cache only (snooping works).
	RespectsRD bool
	// Cached holds the cached records in draw order (Table IV order, then
	// extras); absence means not cached. GenerateOpenResolvers carves the
	// slices of one population out of shared chunks, and OpenResolvers
	// reuses one scratch slice for every resolver it yields — a population
	// is drawn per campaign run, and per-resolver maps dominated the
	// generator's allocation profile.
	Cached []CachedRecord
	// AcceptsFragments: fragmented DNS responses are accepted (31%).
	AcceptsFragments bool
}

// CachedTTL returns the remaining TTL of rec and whether it is cached.
func (s *OpenResolverSpec) CachedTTL(rec PoolRecord) (int, bool) {
	for _, c := range s.Cached {
		if c.Record == rec {
			return c.TTL, true
		}
	}
	return 0, false
}

// OpenResolverConfig parameterises the open-resolver population.
type OpenResolverConfig struct {
	// Total is the dataset size (paper probed 1,583,045 responding
	// resolvers; default reduced for test speed — fractions are
	// scale-free).
	Total int
	// PResponds is the responding fraction (1,583,045 of 3,257,148).
	PResponds float64
	// PRespectsRD is the fraction where the snooping pre-test verifies
	// (646,212 of 1,583,045 ≈ 0.408).
	PRespectsRD float64
	// PCached maps each record to its caching probability (Table IV).
	PCached map[PoolRecord]float64
	// PAcceptsFragments is the fragmented-response acceptance fraction
	// (paper: ≈0.31 across open resolvers).
	PAcceptsFragments float64
	// RecordTTL is the zone TTL; cached-copy remaining TTLs are uniform in
	// [0, RecordTTL] (Figure 6).
	RecordTTL int
}

// DefaultOpenResolverConfig returns Table IV's measured fractions.
func DefaultOpenResolverConfig() OpenResolverConfig {
	return OpenResolverConfig{
		Total:       200000,
		PResponds:   0.486,
		PRespectsRD: 0.408,
		PCached: map[PoolRecord]float64{
			RecPoolNS: 0.5828,
			RecPoolA:  0.6941,
			Rec0Pool:  0.6392,
			Rec1Pool:  0.6128,
			Rec2Pool:  0.6155,
			Rec3Pool:  0.5858,
		},
		PAcceptsFragments: 0.31,
		RecordTTL:         150,
	}
}

// GenerateOpenResolvers draws the open-resolver population and stores it.
// A study that only folds the population should range over OpenResolvers
// instead, which draws the same resolvers without keeping them.
func GenerateOpenResolvers(cfg OpenResolverConfig, seed int64) []OpenResolverSpec {
	out := make([]OpenResolverSpec, 0, cfg.Total)
	for s := range drawOpenResolvers(cfg, seed, true) {
		out = append(out, s)
	}
	return out
}

// OpenResolvers draws the open-resolver population one resolver at a
// time and yields each before drawing the next, so a study can fold a
// population of any size without storing it. It yields exactly the specs
// GenerateOpenResolvers returns, in the same order. A yielded spec's
// Cached slice is scratch that the next draw overwrites: copy it to keep
// it.
func OpenResolvers(cfg OpenResolverConfig, seed int64) iter.Seq[OpenResolverSpec] {
	return drawOpenResolvers(cfg, seed, false)
}

// drawOpenResolvers is the open-resolver population's one draw loop.
// Unless keep is set it reuses one scratch slice for every resolver's
// Cached records. With keep set it carves each resolver's records out of
// a chunked arena, so yielded specs stay valid: an exhausted chunk is
// replaced, and carved slices keep the old one alive. Chunks keep
// allocation count (and GC pressure) orders of magnitude below one slice
// per resolver without sizing one array as if every record were cached
// everywhere, and drawing straight into them spares the stored path a
// second copy of every record.
func drawOpenResolvers(cfg OpenResolverConfig, seed int64, keep bool) iter.Seq[OpenResolverSpec] {
	return func(yield func(OpenResolverSpec) bool) {
		records, probs := openResolverRecords(cfg)
		rng := rand.New(rand.NewSource(seed))
		chunkCap := len(records)
		if keep {
			chunkCap *= 1024
		}
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
			switch {
			case !keep:
				cached = cached[:0]
			case len(cached)+len(records) > cap(cached):
				cached = make([]CachedRecord, 0, chunkCap)
			}
			start := len(cached)
			for j, rec := range records {
				if rng.Float64() < probs[j] {
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

// openResolverRecords returns the records OpenResolvers draws, in draw
// order, with their caching probabilities.
func openResolverRecords(cfg OpenResolverConfig) ([]PoolRecord, []float64) {
	// Fix the record draw order up front — Table IV order, then any extra
	// configured records sorted by name. Ranging over the PCached map
	// would consume the RNG in Go's randomised map order and break seed
	// determinism.
	records := make([]PoolRecord, 0, len(cfg.PCached))
	for _, rec := range AllPoolRecords() {
		if _, ok := cfg.PCached[rec]; ok {
			records = append(records, rec)
		}
	}
	if len(records) < len(cfg.PCached) {
		known := len(records)
		for rec := range cfg.PCached {
			extra := true
			for _, k := range records[:known] {
				if rec == k {
					extra = false
					break
				}
			}
			if extra {
				records = append(records, rec)
			}
		}
		sort.Slice(records[known:], func(i, j int) bool {
			return records[known+i] < records[known+j]
		})
	}

	// Hoist the per-record probabilities out of the population loop: the
	// map lookups otherwise dominate large draws (Total × records accesses).
	probs := make([]float64, len(records))
	for i, rec := range records {
		probs[i] = cfg.PCached[rec]
	}

	return records, probs
}

// ---------------------------------------------------------------------------
// §VIII-B: ad-network client study.

// Region labels match Table V.
type Region string

// Study regions.
const (
	Asia    Region = "Asia"
	Africa  Region = "Africa"
	Europe  Region = "Europe"
	NorthAm Region = "Northern America"
	LatAm   Region = "Latin America"
)

// AllRegions lists the Table V regions in paper order.
func AllRegions() []Region {
	return []Region{Asia, Africa, Europe, NorthAm, LatAm}
}

// Device labels match Table V.
type Device string

// Device classes.
const (
	PC     Device = "PC"
	Mobile Device = "Mobile,Tablet"
)

// AdClientSpec describes one ad-study client and its resolver's behaviour.
type AdClientSpec struct {
	Region Region
	Device Device
	// GoogleDNS: the client uses Google public DNS, which filters all
	// fragment sizes below "big".
	GoogleDNS bool
	// AcceptsTiny/Small/Medium/Big: the resolver accepted the fragmented
	// response at MTU 68 / 296 / 580 / 1280.
	AcceptsTiny, AcceptsSmall, AcceptsMedium, AcceptsBig bool
	// ValidatesDNSSEC: the sigfail image failed to load.
	ValidatesDNSSEC bool
	// PageOpenSeconds models the popunder's lifetime; results with < 30 s
	// are filtered out by the study.
	PageOpenSeconds int
	// BaselineOK / SigrightOK are the control tests.
	BaselineOK, SigrightOK bool
}

// RegionParams calibrates one region's rates.
type RegionParams struct {
	Clients      int
	PTiny        float64 // tiny-fragment acceptance among valid clients
	PAnyFragment float64 // any-size acceptance
	PDNSSEC      float64 // validation rate
	PGoogle      float64 // Google-DNS usage
	PMobile      float64
}

// AdStudyConfig parameterises the study.
type AdStudyConfig struct {
	Regions map[Region]RegionParams
	// PInvalidPage is the fraction filtered out (page closed early or
	// failed controls).
	PInvalidPage float64
}

// DefaultAdStudyConfig returns Table V's measured rates. Client counts are
// the paper's valid-result totals per region (datasets 1 and 2 combined).
func DefaultAdStudyConfig() AdStudyConfig {
	return AdStudyConfig{
		PInvalidPage: 0.10,
		Regions: map[Region]RegionParams{
			Asia:    {Clients: 3169, PTiny: 0.5822, PAnyFragment: 0.9034, PDNSSEC: 0.22, PGoogle: 0.14, PMobile: 0.60},
			Africa:  {Clients: 303, PTiny: 0.7327, PAnyFragment: 0.9571, PDNSSEC: 0.19, PGoogle: 0.10, PMobile: 0.65},
			Europe:  {Clients: 1390, PTiny: 0.7266, PAnyFragment: 0.9187, PDNSSEC: 0.29, PGoogle: 0.10, PMobile: 0.45},
			NorthAm: {Clients: 2314, PTiny: 0.5843, PAnyFragment: 0.7593, PDNSSEC: 0.25, PGoogle: 0.08, PMobile: 0.50},
			LatAm:   {Clients: 838, PTiny: 0.6826, PAnyFragment: 0.9057, PDNSSEC: 0.21, PGoogle: 0.12, PMobile: 0.55},
		},
	}
}

// GenerateAdClients draws the ad-study client population (valid and
// invalid results; the harness applies the paper's filtering).
func GenerateAdClients(cfg AdStudyConfig, seed int64) []AdClientSpec {
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
				// Invalid result: early close or failed control.
				if rng.Float64() < 0.5 {
					c.PageOpenSeconds = rng.Intn(30)
				} else {
					c.BaselineOK = false
				}
			}
			c.GoogleDNS = rng.Float64() < p.PGoogle
			if c.GoogleDNS {
				// Google filters fragments below "big" but accepts big ones,
				// so Google clients count toward any-size acceptance.
				c.AcceptsBig = true
			} else {
				// Table V's PTiny/PAnyFragment are marginals over ALL valid
				// clients (including the Google users, who never accept tiny
				// fragments); condition the non-Google rates accordingly.
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

// ---------------------------------------------------------------------------
// §VIII-B3: shared-resolver topology.

// SharedResolverSpec describes one resolver seen in the web-client study.
type SharedResolverSpec struct {
	UsedByWeb  bool
	UsedBySMTP bool
	Open       bool
}

// SharedResolverConfig parameterises the topology (paper: 18,668 resolvers;
// 86.2% web-only, 11.3% web+SMTP, 2.3% open, 0.2% open+SMTP).
type SharedResolverConfig struct {
	Total     int
	PSMTPOnly float64 // web+SMTP, not open
	POpenOnly float64 // open, not SMTP
	PBoth     float64 // open and SMTP
}

// DefaultSharedResolverConfig returns the paper's fractions.
func DefaultSharedResolverConfig() SharedResolverConfig {
	return SharedResolverConfig{Total: 18668, PSMTPOnly: 0.113, POpenOnly: 0.023, PBoth: 0.002}
}

// GenerateSharedResolvers draws the shared-resolver topology.
func GenerateSharedResolvers(cfg SharedResolverConfig, seed int64) []SharedResolverSpec {
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

// ---------------------------------------------------------------------------
// Figure 7: timing side channel.

// TimingProbeConfig models the latency-difference measurement: the first
// query of a cached record saves the upstream RTT, but per-query jitter and
// heterogeneous upstream RTTs smear the two populations together.
type TimingProbeConfig struct {
	Resolvers int
	// PCached is the fraction of resolvers with the record cached.
	PCached float64
	// JitterMS is the per-measurement jitter standard deviation.
	JitterMS float64
	// UpstreamRTTMinMS and UpstreamRTTMaxMS bound the (uniform) upstream
	// RTT distribution.
	UpstreamRTTMinMS float64
	UpstreamRTTMaxMS float64
}

// DefaultTimingProbeConfig returns parameters that reproduce Figure 7's
// inconclusive overlap.
func DefaultTimingProbeConfig() TimingProbeConfig {
	return TimingProbeConfig{
		Resolvers: 20000, PCached: 0.6,
		JitterMS: 25, UpstreamRTTMinMS: 5, UpstreamRTTMaxMS: 120,
	}
}

// GenerateTimingDeltas draws t_first − t_avg samples (milliseconds) for the
// probe population.
func GenerateTimingDeltas(cfg TimingProbeConfig, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, cfg.Resolvers)
	for i := range out {
		jitter := rng.NormFloat64() * cfg.JitterMS
		if rng.Float64() < cfg.PCached {
			// Cached: first and subsequent queries are both cache hits.
			out[i] = jitter
		} else {
			// Uncached: the first query pays the upstream RTT.
			rtt := cfg.UpstreamRTTMinMS + rng.Float64()*(cfg.UpstreamRTTMaxMS-cfg.UpstreamRTTMinMS)
			out[i] = rtt + jitter
		}
	}
	return out
}

// UniformTTLs draws n remaining-TTL values uniform on [0, maxTTL] seconds —
// the Figure 6 ground truth distribution.
func UniformTTLs(n, maxTTL int, seed int64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(rng.Intn(maxTTL+1)) * time.Second
	}
	return out
}
