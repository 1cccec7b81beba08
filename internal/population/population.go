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
// No study stores the four large populations. The popular-domain
// nameservers and the open resolvers, which Figure 5 and Table IV draw by
// the hundred thousand per seed, each have a tally (TallyDomainNameservers,
// TallyOpenResolvers) that counts what its study reads as it draws: it
// walks the random stream's current block of outputs, decides on the raw
// outputs only what it counts, and leaves a member the block cannot
// decide to the population's one-decision-at-a-time draw, which is also
// its Generate function's only draw. The ad clients and the shared
// resolvers each have one draw loop, an iter.Seq (AdClients,
// SharedResolvers) that yields each member before drawing the next, so a
// study folds the population without storing it; the Generate function
// of each collects the same loop. All of them read math/rand's exact
// stream for the seed from a simrand.Source and decide each draw with an
// integer compare, so they draw exactly what the same generators written
// on rand.New(rand.NewSource(seed)) draw; the package's tests keep those
// generators as oracles. GeneratePool, GeneratePoolNameservers and
// TimingDeltas (Figure 7, which GenerateTimingDeltas collects) draw with
// math/rand's own methods on rand.New(simrand.New(seed)), the same
// stream.
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
// and stores it. A study that only counts the population should call
// TallyDomainNameservers instead, which counts the same nameservers by
// class without keeping them.
func GenerateDomainNameservers(cfg DomainNameserverConfig, seed int64) []NameserverSpec {
	d := newNameserverDraw(cfg)
	var src simrand.Source // a value, so it stays on the stack (see Source)
	src.Seed(seed)
	out := make([]NameserverSpec, max(cfg.Total, 0))
	for i := range out {
		out[i] = nameserverClasses[d.sequential(&src)]
	}
	return out
}

// NameserverCount is one class of nameserver, the spec every member of
// the class has, and how many members a population holds.
type NameserverCount struct {
	Spec NameserverSpec
	N    int
}

// The classes a domain-nameserver draw decides between, in the order
// TallyDomainNameservers counts them.
const (
	nsSigned   = iota // signed
	nsPlain           // unsigned, not fragmenting
	nsFrag292         // fragmenting, unsigned, with MinFragSize 292
	nsFrag548         // … 548
	nsFrag1276        // … 1276
	nsFrag1500        // … 1500
	nsClasses
)

// nameserverClasses holds each class's spec.
var nameserverClasses = [nsClasses]NameserverSpec{
	nsSigned:   {DNSSEC: true, MinFragSize: ipv4.DefaultMTU},
	nsPlain:    {MinFragSize: ipv4.DefaultMTU},
	nsFrag292:  {Fragments: true, MinFragSize: 292},
	nsFrag548:  {Fragments: true, MinFragSize: 548},
	nsFrag1276: {Fragments: true, MinFragSize: 1276},
	nsFrag1500: {Fragments: true, MinFragSize: 1500},
}

// TallyDomainNameservers draws the nameserver population
// GenerateDomainNameservers returns and counts it by class as it draws:
// the signed nameservers, the unsigned ones that do not fragment, and the
// fragmenting ones with each MinFragSize, 292, 548, 1276 and 1500, in that
// order. It stores no nameserver.
//
// The population's draw consumes rand.New(rand.NewSource(seed)) exactly
// as
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
// does, reading the stream from a simrand.Source. It has two forms.
// sequential draws one nameserver one decision at a time
// (Source.Float64Value, Test), reading again wherever math/rand draws
// again; it is GenerateDomainNameservers' only draw. The tally walks the
// stream's current block of outputs instead and decides each
// nameserver's class on the raw outputs with integer compares. A
// nameserver the block cannot decide goes to sequential, from its first
// output: one that starts with fewer than three outputs left in the
// block, and one whose outputs include one on which math/rand's Float64
// would draw again.
func TallyDomainNameservers(cfg DomainNameserverConfig, seed int64) [nsClasses]NameserverCount {
	d := newNameserverDraw(cfg)
	var src simrand.Source // a value, so it stays on the stack (see Source)
	src.Seed(seed)
	var n [nsClasses]int
	for left := max(cfg.Total, 0); left > 0; {
		w := src.Unread()
		i, drawn := d.block(&n, w, left)
		src.Advance(i)
		if left -= drawn; left > 0 && i < len(w) {
			n[d.sequential(&src)]++
			left--
		}
	}
	var out [nsClasses]NameserverCount
	for c, spec := range nameserverClasses {
		out[c] = NameserverCount{spec, n[c]}
	}
	return out
}

// nameserverDraw holds one configuration's draw decisions.
type nameserverDraw struct {
	signed, fragments    simrand.Cut
	at292, at548, at1276 uint64
}

func newNameserverDraw(cfg DomainNameserverConfig) nameserverDraw {
	return nameserverDraw{
		signed:    simrand.Below(cfg.PDNSSEC),
		fragments: simrand.Below(cfg.PFragNoDNSSEC / (1 - cfg.PDNSSEC)),
		at292:     uint64(simrand.Below(cfg.CumAt292)),
		at548:     uint64(simrand.Below(cfg.CumAt548)),
		at1276:    uint64(simrand.Below(cfg.CumAt1276)),
	}
}

// sequential draws the next nameserver's class one decision at a time,
// reading again wherever math/rand draws again.
func (d *nameserverDraw) sequential(src *simrand.Source) int {
	switch {
	case src.Test(d.signed):
		return nsSigned
	case src.Test(d.fragments):
		return d.fragClass(src.Float64Value())
	}
	return nsPlain
}

// fragClass returns the class of a fragmenting nameserver whose size
// draw has 63-bit value v.
func (d *nameserverDraw) fragClass(v uint64) int {
	switch {
	case v < d.at292:
		return nsFrag292
	case v < d.at548:
		return nsFrag548
	case v < d.at1276:
		return nsFrag1276
	}
	return nsFrag1500
}

// block counts nameservers into n by class, at most left of them, from
// the unread outputs w, and returns the number of outputs it read and of
// nameservers it counted. It stops before a nameserver it cannot decide
// from w.
func (d *nameserverDraw) block(n *[nsClasses]int, w []uint64, left int) (i, drawn int) {
	signed, fragments := uint64(d.signed), uint64(d.fragments)
	for ; drawn < left && len(w)-i >= 3; drawn++ {
		v := simrand.Value(w[i])
		if v < signed {
			n[nsSigned]++
			i++
			continue
		}
		if v >= simrand.Redraw {
			break
		}
		if v = simrand.Value(w[i+1]); v >= fragments {
			if v >= simrand.Redraw {
				break
			}
			n[nsPlain]++
			i += 2
			continue
		}
		if v = simrand.Value(w[i+2]); v >= simrand.Redraw {
			break
		}
		n[d.fragClass(v)]++
		i += 3
	}
	return i, drawn
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
// A study that only counts the population should call TallyOpenResolvers
// instead, which counts the same resolvers without keeping them.
//
// It draws each resolver with the population's one-decision-at-a-time
// draw (see TallyOpenResolvers), and carves the resolvers' records out
// of a chunked arena: an exhausted chunk is replaced, and carved slices
// keep the old one alive. Chunks keep allocation count (and GC pressure)
// orders of magnitude below one slice per resolver without sizing one
// array as if every record were cached everywhere.
func GenerateOpenResolvers(cfg OpenResolverConfig, seed int64) []OpenResolverSpec {
	d := newOpenDraw(cfg)
	var src simrand.Source // a value, so it stays on the stack (see Source)
	src.Seed(seed)
	out := make([]OpenResolverSpec, 0, max(cfg.Total, 0))
	chunk := make([]CachedRecord, 0, 1024*len(d.records))
	for range cfg.Total {
		if len(chunk)+len(d.records) > cap(chunk) {
			chunk = make([]CachedRecord, 0, 1024*len(d.records))
		}
		start := len(chunk)
		var s OpenResolverSpec
		s, chunk = d.sequential(&src, chunk)
		if s.Responds {
			s.Cached = chunk[start:len(chunk):len(chunk)]
		}
		out = append(out, s)
	}
	return out
}

// OpenResolverTally is an open-resolver population as a cache snoop
// counts it (TallyOpenResolvers).
type OpenResolverTally struct {
	// Responding counts the resolvers that respond.
	Responding int
	// Verified counts the responding resolvers that respect the RD bit,
	// on which the snooping pre-test verifies.
	Verified int
	// Records lists the records the draw decides, OpenResolverRecords(cfg),
	// and Cached[k] counts the verified resolvers that cache Records[k].
	Records []PoolRecord
	Cached  []int
	// TTLCounts[t] counts the verified resolvers that cache the tally's
	// TTL record with t seconds left, t capped at the tally's maxTTL. Its
	// length is one more than the largest t counted, and it is nil when
	// none was.
	TTLCounts []int
}

// TallyOpenResolvers draws the open-resolver population GenerateOpenResolvers
// returns and counts it as it draws: the responding resolvers, the
// verified ones, the verified ones caching each record, and the
// remaining TTLs of the verified ones caching ttlRecord, each capped at
// maxTTL (≥ 0). It stores no resolver.
//
// The population's draw consumes rand.New(rand.NewSource(seed)) exactly
// as
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
// does, reading the stream from a simrand.Source. It has two forms.
// sequential draws one resolver one decision at a time (Source.Test,
// Source.Intn), reading again wherever math/rand draws again; it is
// GenerateOpenResolvers' only draw. The tally walks the stream's current
// block of outputs instead, a resolver at a time, and decides on the raw
// outputs, with integer compares, only what it counts: a resolver's
// flags, and whether it caches each record. It decodes a TTL only for
// ttlRecord, but first checks, with one compare each, every output a
// responding resolver may read for a value on which math/rand would draw
// again, so a TTL output it does not decode is checked too. A resolver
// the block cannot decide goes to sequential, from its first output: a
// responding one that may read past the block's end (about one per
// block), and one whose outputs include one on which math/rand would draw
// again (a Float64 that rounds to 1, an Intn rejection, any output when
// Intn(cfg.RecordTTL+1) must panic).
func TallyOpenResolvers(cfg OpenResolverConfig, seed int64, ttlRecord PoolRecord, maxTTL int) OpenResolverTally {
	d := newOpenDraw(cfg)
	t := openTally{
		OpenResolverTally: OpenResolverTally{Records: d.records, Cached: make([]int, len(d.records))},
		openDraw:          d,
		ttlRec:            slices.Index(d.records, ttlRecord),
		maxTTL:            maxTTL,
		limit:             min(simrand.Redraw, d.ttl.Limit()),
	}
	if t.ttlRec >= 0 && cfg.RecordTTL >= 0 {
		// Room for every TTL the draw can decode, up to 1 024 s, so the
		// walk rarely grows the counts; trimTTLs drops the zero counts
		// past the largest counted.
		t.TTLCounts = make([]int, min(cfg.RecordTTL, maxTTL, 1<<10)+1)
	}
	var src simrand.Source // a value, so it stays on the stack (see Source)
	src.Seed(seed)
	cached := make([]CachedRecord, 0, len(d.records))
	for left := max(cfg.Total, 0); left > 0; {
		w := src.Unread()
		n, drawn := t.block(w, left)
		src.Advance(n)
		if left -= drawn; left > 0 && n < len(w) {
			var s OpenResolverSpec
			s, cached = t.sequential(&src, cached[:0])
			t.resolver(s, cached)
			left--
		}
	}
	t.trimTTLs()
	return t.OpenResolverTally
}

// openDraw holds one configuration's draw decisions.
type openDraw struct {
	records                       []PoolRecord // OpenResolverRecords(cfg)
	responds, verifies, fragments simrand.Cut
	cuts                          []simrand.Cut // per record
	ttl                           simrand.Intn
	// most is the number of outputs a responding resolver reads at most
	// without a redraw: three flags, then a caching draw and a TTL per
	// record.
	most int
}

func newOpenDraw(cfg OpenResolverConfig) openDraw {
	records := OpenResolverRecords(cfg)
	d := openDraw{
		records:   records,
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

// sequential draws the next resolver one decision at a time, reading
// again wherever math/rand draws again, and appends its cached records
// to cached, in draw order.
func (d *openDraw) sequential(src *simrand.Source, cached []CachedRecord) (OpenResolverSpec, []CachedRecord) {
	var s OpenResolverSpec
	if !src.Test(d.responds) {
		return s, cached
	}
	s.Responds = true
	s.RespectsRD = src.Test(d.verifies)
	s.AcceptsFragments = src.Test(d.fragments)
	for j, c := range d.cuts {
		if src.Test(c) {
			cached = append(cached, CachedRecord{d.records[j], src.Intn(d.ttl)})
		}
	}
	return s, cached
}

// openTally is TallyOpenResolvers' count in progress, with the draw it
// counts.
type openTally struct {
	OpenResolverTally
	openDraw
	ttlRec int // the index of the TTL record in Records, −1 if absent
	maxTTL int
	// limit is the least 63-bit value on which a Float64 or the TTL's Intn
	// draws again.
	limit uint64
}

// block tallies resolvers, at most left of them, from the unread outputs
// w, and returns the number of outputs it read and of resolvers it
// tallied. It stops before a resolver it cannot decide from w.
func (t *openTally) block(w []uint64, left int) (i, drawn int) {
	for responds := uint64(t.responds); drawn < left && i < len(w); drawn++ {
		if v := simrand.Value(w[i]); v < responds {
			n := t.responding(w[i:])
			if n == 0 {
				break
			}
			i += n
		} else if v < simrand.Redraw {
			i++ // silent
		} else {
			break
		}
	}
	return i, drawn
}

// responding tallies the responding resolver whose first output is w[0]
// and returns the number of outputs it read, or 0, counting nothing, when
// it cannot decide the resolver from w.
//
// The resolver reads at most t.most outputs, its first included; with
// fewer left in w it goes to sequential, about one resolver per block.
// Its outputs after the first, as many as it may read, are checked
// before anything is decided, each below the least value on which a
// Float64 or the TTL's Intn would draw again, and the resolver is then
// decided without further checks.
//
// Each record reads its caching draw and, if cached, a TTL from the next
// output. The walk advances by the outcome and the count adds it,
// weighted by whether the resolver verified, so it branches on neither:
// a record is cached with p ≈ 0.6 and a resolver verifies with p ≈ 0.4,
// so such branches would often be mispredicted. The TTL record's next
// output is decoded whether or not the record is cached (the check above
// covers it) and its count adds 0 when it does not count.
func (t *openTally) responding(w []uint64) int {
	if len(w) < t.most {
		return 0
	}
	r := w[1:t.most]
	for _, x := range r {
		if simrand.Value(x) >= t.limit {
			return 0
		}
	}
	vb := 0
	if simrand.Value(r[0]) < uint64(t.verifies) {
		vb = 1
	}
	t.Responding++
	t.Verified += vb
	cached, ttlRec := t.Cached[:len(t.cuts)], t.ttlRec
	j := 2
	for k, c := range t.cuts {
		b := 0
		if simrand.Value(r[j]) < uint64(c) {
			b = 1
		}
		cached[k] += b & vb
		if k == ttlRec {
			ttl, _ := t.ttl.Of(r[j+1])
			t.countTTL(ttl, b&vb)
		}
		j += 1 + b
	}
	return 1 + j
}

// resolver tallies one resolver sequential drew, its cached records in
// cached.
func (t *openTally) resolver(s OpenResolverSpec, cached []CachedRecord) {
	if !s.Responds {
		return
	}
	t.Responding++
	if !s.RespectsRD {
		return
	}
	t.Verified++
	k := 0
	for _, c := range cached {
		for t.Records[k] != c.Record {
			k++
		}
		t.Cached[k]++
		if k == t.ttlRec {
			t.countTTL(c.TTL, 1)
		}
	}
}

// countTTL adds n to the count of TTL ttl (≥ 0), capped at maxTTL. The
// walk adds 0 for a record it does not count, one not cached or cached by
// a resolver that did not verify, so the counts may end in zeros, which
// trimTTLs drops.
func (t *openTally) countTTL(ttl, n int) {
	ttl = min(ttl, t.maxTTL)
	if counts := t.TTLCounts; ttl >= len(counts) {
		t.TTLCounts = append(counts, make([]int, ttl+1-len(counts))...)
	}
	t.TTLCounts[ttl] += n
}

// trimTTLs drops the zero counts past the largest TTL counted, and the
// counts altogether when none was.
func (t *openTally) trimTTLs() {
	counts := t.TTLCounts
	for len(counts) > 0 && counts[len(counts)-1] == 0 {
		counts = counts[:len(counts)-1]
	}
	if len(counts) == 0 {
		counts = nil
	}
	t.TTLCounts = counts
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
// probe population and stores them. A study that only bins the samples
// should range over TimingDeltas instead, which draws the same samples
// without keeping them.
func GenerateTimingDeltas(cfg TimingProbeConfig, seed int64) []float64 {
	out := make([]float64, 0, max(cfg.Resolvers, 0))
	for d := range TimingDeltas(cfg, seed) {
		out = append(out, d)
	}
	return out
}

// TimingDeltas draws the probe population's t_first − t_avg samples
// (milliseconds) one at a time and yields each before drawing the next.
// It is the population's one draw loop, on math/rand's own methods.
func TimingDeltas(cfg TimingProbeConfig, seed int64) iter.Seq[float64] {
	return func(yield func(float64) bool) {
		rng := rand.New(simrand.New(seed))
		for range cfg.Resolvers {
			// Cached: first and subsequent queries are both cache hits.
			d := rng.NormFloat64() * cfg.JitterMS
			if !(rng.Float64() < cfg.PCached) {
				// Uncached: the first query pays the upstream RTT.
				rtt := cfg.UpstreamRTTMinMS + rng.Float64()*(cfg.UpstreamRTTMaxMS-cfg.UpstreamRTTMinMS)
				d = rtt + d
			}
			if !yield(d) {
				return
			}
		}
	}
}
