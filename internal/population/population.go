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
//
// The four large populations, the popular-domain nameservers, the open
// resolvers, the ad clients and the shared resolvers, each have one draw
// loop, an iter.Seq (DomainNameservers, OpenResolvers, AdClients,
// SharedResolvers) that yields each member before drawing the next, so a
// study folds a population without storing it; the Generate function of
// each collects the same loop. The loops read math/rand's exact stream
// for the seed from a simrand.Source and decide each draw with an
// integer compare, so they draw exactly what the same loops written on
// rand.New(rand.NewSource(seed)) draw; the package's tests keep those
// loops as oracles. GeneratePool, GeneratePoolNameservers and
// GenerateTimingDeltas draw with math/rand's own methods on
// rand.New(simrand.New(seed)), the same stream.
//
// A negative population size draws nothing, as a size of zero does.
package population

import (
	"iter"
	"math/rand"
	"slices"

	"dnstime/internal/ipv4"
	"dnstime/internal/simrand"
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
	// No scan sends mode 7; the draw stays so the population's random
	// stream keeps its bytes.
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
	rng := rand.New(simrand.New(seed))
	if cfg.PKoD > cfg.PRateLimit {
		cfg.PKoD = cfg.PRateLimit
	}
	out := make([]PoolServerSpec, max(cfg.Servers, 0))
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
	rng := rand.New(simrand.New(seed))
	out := make([]NameserverSpec, max(cfg.Total, 0))
	perm := rng.Perm(len(out))
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

// GenerateDomainNameservers draws the popular-domain nameserver population
// and stores it. A study that only folds the population should range over
// DomainNameservers instead, which draws the same nameservers without
// keeping them.
func GenerateDomainNameservers(cfg DomainNameserverConfig, seed int64) []NameserverSpec {
	out := make([]NameserverSpec, 0, max(cfg.Total, 0))
	for s := range DomainNameservers(cfg, seed) {
		out = append(out, s)
	}
	return out
}

// DomainNameservers draws the popular-domain nameserver population one
// nameserver at a time and yields each before drawing the next, so a
// study can fold it without storing it.
//
// This is the population's one draw loop. It consumes
// rand.New(rand.NewSource(seed)) exactly as
//
//	for range cfg.Total {
//		switch {
//		case rng.Float64() < cfg.PDNSSEC:
//			signed
//		case rng.Float64() < cfg.PFragNoDNSSEC/(1-cfg.PDNSSEC):
//			fragmenting, with MinFragSize 292, 548, 1276 or 1500 as
//			r := rng.Float64() is below CumAt292, CumAt548, CumAt1276
//			or none of them, tested in that order
//		default:
//			neither
//		}
//	}
//
// does, but reads the stream from a simrand.Source and decides each
// Float64 test with an integer compare.
func DomainNameservers(cfg DomainNameserverConfig, seed int64) iter.Seq[NameserverSpec] {
	return func(yield func(NameserverSpec) bool) {
		signed := simrand.Below(cfg.PDNSSEC)
		fragments := simrand.Below(cfg.PFragNoDNSSEC / (1 - cfg.PDNSSEC))
		at292 := uint64(simrand.Below(cfg.CumAt292))
		at548 := uint64(simrand.Below(cfg.CumAt548))
		at1276 := uint64(simrand.Below(cfg.CumAt1276))
		var src simrand.Source // a value, so it stays on the stack (see Source)
		src.Seed(seed)
		for range cfg.Total {
			s := NameserverSpec{MinFragSize: ipv4.DefaultMTU}
			switch {
			case src.Test(signed):
				s.DNSSEC = true
			case src.Test(fragments):
				s.Fragments = true
				switch v := src.Float64Value(); {
				case v < at292:
					s.MinFragSize = 292
				case v < at548:
					s.MinFragSize = 548
				case v < at1276:
					s.MinFragSize = 1276
				default:
					s.MinFragSize = 1500
				}
			}
			if !yield(s) {
				return
			}
		}
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
	// slices of one population out of shared chunks: a population is drawn
	// per campaign run, and per-resolver maps dominated the generator's
	// allocation profile.
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

// DrawnResolver is one open resolver as OpenResolvers draws it: the
// flags of an OpenResolverSpec, with each cached record named by its
// index in OpenResolverRecords(cfg).
type DrawnResolver struct {
	Responds, RespectsRD, AcceptsFragments bool
	// Cached holds the cached records in draw order.
	Cached []CachedIndex
}

// CachedIndex is one cached record of a DrawnResolver: Record indexes
// OpenResolverRecords(cfg), and TTL is its remaining TTL (seconds).
type CachedIndex struct {
	Record, TTL int
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
//
// Each resolver's records are carved out of a chunked arena: an
// exhausted chunk is replaced, and carved slices keep the old one alive.
// Chunks keep allocation count (and GC pressure) orders of magnitude
// below one slice per resolver without sizing one array as if every
// record were cached everywhere.
func GenerateOpenResolvers(cfg OpenResolverConfig, seed int64) []OpenResolverSpec {
	records := OpenResolverRecords(cfg)
	out := make([]OpenResolverSpec, 0, max(cfg.Total, 0))
	chunk := make([]CachedRecord, 0, 1024*len(records))
	for r := range OpenResolvers(cfg, seed) {
		s := OpenResolverSpec{Responds: r.Responds, RespectsRD: r.RespectsRD, AcceptsFragments: r.AcceptsFragments}
		if r.Responds {
			if len(chunk)+len(r.Cached) > cap(chunk) {
				chunk = make([]CachedRecord, 0, 1024*len(records))
			}
			start := len(chunk)
			for _, c := range r.Cached {
				chunk = append(chunk, CachedRecord{records[c.Record], c.TTL})
			}
			s.Cached = chunk[start:len(chunk):len(chunk)]
		}
		out = append(out, s)
	}
	return out
}

// OpenResolvers draws the open-resolver population one resolver at a
// time and yields each before drawing the next, so a study can fold a
// population of any size without storing it. It yields the resolvers
// GenerateOpenResolvers returns, in the same order, each cached record
// named by its index in OpenResolverRecords(cfg). A yielded resolver's
// Cached slice is scratch that the next draw overwrites: copy it to keep
// it.
//
// This is the population's one draw loop. It consumes
// rand.New(rand.NewSource(seed)) exactly as
//
//	for range cfg.Total {
//		if rng.Float64() >= cfg.PResponds {
//			continue // silent resolver
//		}
//		RespectsRD = rng.Float64() < cfg.PRespectsRD
//		AcceptsFragments = rng.Float64() < cfg.PAcceptsFragments
//		for each record in draw order, with its probability p {
//			if rng.Float64() < p {
//				cache it with TTL rng.Intn(cfg.RecordTTL + 1)
//			}
//		}
//	}
//
// does, but reads the stream from a simrand.Source and decides each
// draw on the raw output with an integer compare (simrand.Cut,
// simrand.Intn), a resolver at a time from the unread rest of the
// stream's current block. A resolver that block cannot decide is drawn
// over from its first output in sequence, with the Source's Test and
// Intn, so the draw stays exact: a responding resolver that starts with
// fewer outputs left than it may read (about one per block), and one on
// which math/rand would draw again (a Float64 that rounds to 1, an Intn
// rejection, an invalid RecordTTL).
func OpenResolvers(cfg OpenResolverConfig, seed int64) iter.Seq[DrawnResolver] {
	return func(yield func(DrawnResolver) bool) {
		d := newOpenDraw(cfg)
		var src simrand.Source // a value, so it stays on the stack (see Source)
		src.Seed(seed)
		r := DrawnResolver{Cached: make([]CachedIndex, 0, len(d.cuts))}
		for range cfg.Total {
			if n := d.fast(&r, src.Unread()); n > 0 {
				src.Advance(n)
			} else {
				d.sequential(&r, &src)
			}
			if !yield(r) {
				return
			}
		}
	}
}

// openDraw holds one configuration's draw decisions.
type openDraw struct {
	responds, verifies, fragments simrand.Cut
	cuts                          []simrand.Cut // per record
	ttl                           simrand.Intn
	// most is the number of outputs a responding resolver reads at most
	// without a redraw: three flags, then a caching draw and a TTL per
	// record.
	most int
}

func newOpenDraw(cfg OpenResolverConfig) *openDraw {
	records := OpenResolverRecords(cfg)
	d := &openDraw{
		responds:  simrand.NotAtLeast(cfg.PResponds),
		verifies:  simrand.Below(cfg.PRespectsRD),
		fragments: simrand.Below(cfg.PAcceptsFragments),
		cuts:      make([]simrand.Cut, len(records)),
		ttl:       simrand.NewIntn(cfg.RecordTTL + 1),
		most:      3 + 2*len(records),
	}
	for j, rec := range records {
		d.cuts[j] = simrand.Below(cfg.PCached[rec])
	}
	return d
}

// fast draws one resolver into r from the unread outputs w, at least
// one, and returns the number it read. It returns 0, leaving r to be
// drawn over, when math/rand would draw again or the resolver responds
// and w is shorter than the most a responding resolver can read.
func (d *openDraw) fast(r *DrawnResolver, w []uint64) int {
	responds, ok := d.responds.Of(w[0])
	if !ok {
		return 0
	}
	if !responds {
		*r = DrawnResolver{Cached: r.Cached[:0]}
		return 1
	}
	if len(w) < d.most {
		return 0
	}
	verifies, ok1 := d.verifies.Of(w[1])
	fragments, ok2 := d.fragments.Of(w[2])
	if !ok1 || !ok2 {
		return 0
	}
	// Each record reads its caching draw and, if cached, a TTL from the
	// next output. The TTL is decided whether or not the record is cached
	// and the index advances by the outcome, so the loop does not branch
	// on it; an output that only a cached record would read and math/rand
	// would reject sends the resolver to the sequential path needlessly,
	// but never wrongly.
	cuts, ttls := d.cuts, d.ttl
	cached := r.Cached[:len(cuts)]
	n, i := 0, 3
	for j, c := range cuts {
		hit, ok := c.Of(w[i])
		ttl, tok := ttls.Of(w[i+1])
		if !ok || !tok {
			return 0
		}
		cached[n] = CachedIndex{j, ttl}
		k := 0
		if hit {
			k = 1
		}
		n += k
		i += 1 + k
	}
	*r = DrawnResolver{true, verifies, fragments, cached[:n]}
	return i
}

// sequential draws one resolver into r one decision at a time, reading
// again wherever math/rand draws again.
func (d *openDraw) sequential(r *DrawnResolver, src *simrand.Source) {
	*r = DrawnResolver{Cached: r.Cached[:0]}
	if !src.Test(d.responds) {
		return
	}
	r.Responds = true
	r.RespectsRD = src.Test(d.verifies)
	r.AcceptsFragments = src.Test(d.fragments)
	for j, c := range d.cuts {
		if src.Test(c) {
			r.Cached = append(r.Cached, CachedIndex{j, src.Intn(d.ttl)})
		}
	}
}

// OpenResolverRecords returns the records an open-resolver draw decides,
// in draw order: the Table IV records cfg.PCached lists, in Table IV
// order, then any others it lists, sorted by name. Ranging over the
// PCached map instead would consume the RNG in Go's randomised map order
// and break seed determinism.
func OpenResolverRecords(cfg OpenResolverConfig) []PoolRecord {
	records := make([]PoolRecord, 0, len(cfg.PCached))
	for _, rec := range AllPoolRecords() {
		if _, ok := cfg.PCached[rec]; ok {
			records = append(records, rec)
		}
	}
	if len(records) < len(cfg.PCached) {
		known := len(records)
		for rec := range cfg.PCached {
			if !slices.Contains(records[:known], rec) {
				records = append(records, rec)
			}
		}
		slices.Sort(records[known:])
	}
	return records
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
// invalid results; the harness applies the paper's filtering) and stores
// it. A study that only folds the population should range over AdClients
// instead, which draws the same clients without keeping them.
func GenerateAdClients(cfg AdStudyConfig, seed int64) []AdClientSpec {
	total := 0
	for _, region := range AllRegions() {
		total += max(cfg.Regions[region].Clients, 0)
	}
	out := make([]AdClientSpec, 0, total)
	for c := range AdClients(cfg, seed) {
		out = append(out, c)
	}
	return out
}

// AdClients draws the ad-study client population one client at a time,
// region by region in AllRegions order, and yields each before drawing
// the next, so a study can fold it without storing it.
//
// This is the population's one draw loop. It consumes
// rand.New(rand.NewSource(seed)) exactly as the loop below does, for
// each region's p = cfg.Regions[region], but reads the stream from a
// simrand.Source and decides each Float64 test with an integer compare.
//
//	for range p.Clients {
//		PageOpenSeconds = 31 + rng.Intn(600)
//		Mobile if rng.Float64() < p.PMobile
//		if rng.Float64() < cfg.PInvalidPage {
//			if rng.Float64() < 0.5 {
//				PageOpenSeconds = rng.Intn(30)
//			} else {
//				BaselineOK = false
//			}
//		}
//		GoogleDNS = rng.Float64() < p.PGoogle
//		if GoogleDNS {
//			AcceptsBig = true
//		} else if rng.Float64() < pAnyNG {
//			AcceptsBig = true
//			AcceptsMedium = rng.Float64() < 0.95
//			AcceptsSmall = AcceptsMedium && rng.Float64() < 0.95
//			AcceptsTiny = AcceptsSmall && rng.Float64() < pTinyGivenSmall
//		}
//		ValidatesDNSSEC = rng.Float64() < p.PDNSSEC
//	}
//
// Table V's PTiny and PAnyFragment are marginals over all valid clients,
// Google users included, who never accept tiny fragments, so the
// non-Google rates are conditioned on not using Google: pAnyNG is
// (PAnyFragment − PGoogle)/(1 − PGoogle), and pTinyGivenSmall is
// PTiny/(1 − PGoogle) over pAnyNG·0.95·0.95, at most 1.
func AdClients(cfg AdStudyConfig, seed int64) iter.Seq[AdClientSpec] {
	return func(yield func(AdClientSpec) bool) {
		invalid := simrand.Below(cfg.PInvalidPage)
		half, likely := simrand.Below(0.5), simrand.Below(0.95)
		openFor, closedAfter := simrand.NewIntn(600), simrand.NewIntn(30)
		var src simrand.Source // a value, so it stays on the stack (see Source)
		src.Seed(seed)
		for _, region := range AllRegions() {
			p := cfg.Regions[region]
			d := newAdRegionDraw(p)
			for range p.Clients {
				c := AdClientSpec{Region: region, Device: PC, BaselineOK: true, SigrightOK: true, PageOpenSeconds: 31 + src.Intn(openFor)}
				if src.Test(d.mobile) {
					c.Device = Mobile
				}
				if src.Test(invalid) {
					// Invalid result: early close or failed control.
					if src.Test(half) {
						c.PageOpenSeconds = src.Intn(closedAfter)
					} else {
						c.BaselineOK = false
					}
				}
				c.GoogleDNS = src.Test(d.google)
				if c.GoogleDNS {
					// Google filters fragments below "big" but accepts big ones,
					// so Google clients count toward any-size acceptance.
					c.AcceptsBig = true
				} else if src.Test(d.anyNG) {
					c.AcceptsBig = true
					c.AcceptsMedium = src.Test(likely)
					c.AcceptsSmall = c.AcceptsMedium && src.Test(likely)
					c.AcceptsTiny = c.AcceptsSmall && src.Test(d.tinyGivenSmall)
				}
				c.ValidatesDNSSEC = src.Test(d.dnssec)
				if !yield(c) {
					return
				}
			}
		}
	}
}

// adRegionDraw holds one region's draw decisions.
type adRegionDraw struct {
	mobile, google, anyNG, tinyGivenSmall, dnssec simrand.Cut
}

// newAdRegionDraw returns the Cuts of p's tests, with the non-Google
// rates conditioned as AdClients describes.
func newAdRegionDraw(p RegionParams) adRegionDraw {
	pAnyNG := (p.PAnyFragment - p.PGoogle) / (1 - p.PGoogle)
	pTinyNG := p.PTiny / (1 - p.PGoogle)
	pTinyGivenSmall := pTinyNG / (pAnyNG * 0.95 * 0.95)
	if pTinyGivenSmall > 1 {
		pTinyGivenSmall = 1
	}
	return adRegionDraw{
		mobile:         simrand.Below(p.PMobile),
		google:         simrand.Below(p.PGoogle),
		anyNG:          simrand.Below(pAnyNG),
		tinyGivenSmall: simrand.Below(pTinyGivenSmall),
		dnssec:         simrand.Below(p.PDNSSEC),
	}
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

// GenerateSharedResolvers draws the shared-resolver topology and stores
// it. A study that only folds the topology should range over
// SharedResolvers instead, which draws the same resolvers without keeping
// them.
func GenerateSharedResolvers(cfg SharedResolverConfig, seed int64) []SharedResolverSpec {
	out := make([]SharedResolverSpec, 0, max(cfg.Total, 0))
	for s := range SharedResolvers(cfg, seed) {
		out = append(out, s)
	}
	return out
}

// SharedResolvers draws the shared-resolver topology one resolver at a
// time and yields each before drawing the next, so a study can fold it
// without storing it.
//
// This is the topology's one draw loop. It consumes
// rand.New(rand.NewSource(seed)) exactly as
//
//	for range cfg.Total {
//		switch r := rng.Float64(); {
//		case r < cfg.PBoth:
//			open and used by SMTP
//		case r < cfg.PBoth+cfg.POpenOnly:
//			open
//		case r < cfg.PBoth+cfg.POpenOnly+cfg.PSMTPOnly:
//			used by SMTP
//		}
//	}
//
// does, every resolver used by the web, but reads the stream from a
// simrand.Source and compares each drawn value with one integer per case.
func SharedResolvers(cfg SharedResolverConfig, seed int64) iter.Seq[SharedResolverSpec] {
	return func(yield func(SharedResolverSpec) bool) {
		both := uint64(simrand.Below(cfg.PBoth))
		open := uint64(simrand.Below(cfg.PBoth + cfg.POpenOnly))
		smtp := uint64(simrand.Below(cfg.PBoth + cfg.POpenOnly + cfg.PSMTPOnly))
		var src simrand.Source // a value, so it stays on the stack (see Source)
		src.Seed(seed)
		for range cfg.Total {
			s := SharedResolverSpec{UsedByWeb: true}
			switch v := src.Float64Value(); {
			case v < both:
				s.Open, s.UsedBySMTP = true, true
			case v < open:
				s.Open = true
			case v < smtp:
				s.UsedBySMTP = true
			}
			if !yield(s) {
				return
			}
		}
	}
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
	rng := rand.New(simrand.New(seed))
	out := make([]float64, max(cfg.Resolvers, 0))
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
