// Package measure implements the paper's measurement harness:
//
//	§VII-A  rate-limiting scan of the pool.ntp.org server population
//	        (64 queries at 1/s; first-half vs second-half comparison),
//	§VII-B  nameserver fragmentation/PMTUD scan (Figure 5),
//	§VIII-A open-resolver cache snooping (Table IV) and cached-TTL readback
//	        (Figure 6),
//	§VIII-B the ad-network client study (Table V), the shared-resolver
//	        discovery (§VIII-B3) and the timing side channel (Figure 7).
//
// The rate-limiting scan runs against live simulated NTP servers — the
// same ntpserv rate limiter and KoD the attacks flood — one server per
// behaviour class, since servers of one class are interchangeable on the
// scan's fixed path (see RateLimitScan). The fragmentation scan and the
// Internet-scale population studies (hundreds of thousands of
// resolvers/clients) evaluate the behavioural specs from
// internal/population; the protocol behaviour behind those specs is
// exercised by the live tests in internal/dnsauth, internal/dnsres and
// internal/simnet, and by the attacks.
package measure

import (
	"fmt"
	"math"
	"slices"
	"time"

	"dnstime/internal/ipv4"
	"dnstime/internal/netem"
	"dnstime/internal/ntpserv"
	"dnstime/internal/ntpwire"
	"dnstime/internal/obs"
	"dnstime/internal/population"
	"dnstime/internal/simclock"
	"dnstime/internal/simnet"
	"dnstime/internal/stats"
)

// ---------------------------------------------------------------------------
// §VII-A: rate-limiting scan.

// RateLimitResult summarises the pool scan.
type RateLimitResult struct {
	Servers     int
	KoDSenders  int // servers that sent a RATE KoD during the scan
	RateLimited int // servers whose second-half answer count collapsed
}

// KoDPct and RateLimitedPct report percentages.
func (r RateLimitResult) KoDPct() float64 { return pct(r.KoDSenders, r.Servers) }

// RateLimitedPct reports the stopped-responding percentage.
func (r RateLimitResult) RateLimitedPct() float64 { return pct(r.RateLimited, r.Servers) }

func pct(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return 100 * float64(n) / float64(d)
}

// ScanConfig tunes the §VII-A methodology (defaults are the paper's).
type ScanConfig struct {
	// Queries per server (paper: 64).
	Queries int
	// Interval between queries (paper: 1 s).
	Interval time.Duration
	// HalfGap is the required first-half surplus to call a server
	// rate-limiting (paper: 8).
	HalfGap int
	// Tracer receives the scan's virtual-time events, every clock fire
	// and every packet event, as a lab's tracer does (nil: none).
	Tracer obs.Tracer
}

// DefaultScanConfig returns the paper's parameters.
func DefaultScanConfig() ScanConfig {
	return ScanConfig{Queries: 64, Interval: time.Second, HalfGap: 8}
}

// RateLimitScan scans a pool-server population with the paper's
// methodology: 64 queries at 1/s; count answers in each half; a server is
// rate-limiting when the first half answered more than HalfGap more
// queries than the second; any RATE KoD marks a KoD sender.
//
// A server's outcome depends on its behaviour flags alone: servers share
// no state, and the scan's path (scanPath) is a fixed, lossless link that
// draws no randomness. So RateLimitScan groups the specs into classes —
// the spec with Addr zeroed — scans the first server of each class as a
// live NTP server (scanServers: the real ntpserv rate limiter and KoD on a
// simnet host) and counts that outcome once per class member. A
// GeneratePool population has at most six classes, however many servers
// it holds.
func RateLimitScan(specs []population.PoolServerSpec, cfg ScanConfig) (RateLimitResult, error) {
	class := make(map[population.PoolServerSpec]int)
	var reps []population.PoolServerSpec
	var sizes []int
	for _, spec := range specs {
		key := spec
		key.Addr = ipv4.Addr{}
		i, ok := class[key]
		if !ok {
			i = len(reps)
			class[key] = i
			reps = append(reps, spec)
			sizes = append(sizes, 0)
		}
		sizes[i]++
	}
	outcomes, err := scanServers(reps, cfg)
	if err != nil {
		return RateLimitResult{}, err
	}
	res := RateLimitResult{Servers: len(specs)}
	for i, o := range outcomes {
		if o.kod {
			res.KoDSenders += sizes[i]
		}
		if o.limited {
			res.RateLimited += sizes[i]
		}
	}
	return res, nil
}

// scanOutcome is one server's §VII-A verdict.
type scanOutcome struct {
	kod     bool // sent a RATE KoD
	limited bool // first-half answers exceeded second-half ones by more than HalfGap
}

// scanPath is the §VII-A scan's network path: a fixed, lossless,
// in-order 5 ms link that draws no randomness. Every server sees the same
// path whatever its address or how many share the scan, which is what
// makes RateLimitScan's one-server-per-class fold exact.
func scanPath() *netem.Path {
	return &netem.Path{Delay: netem.Fixed(5 * time.Millisecond)}
}

// scanServers builds each spec as a live NTP server on one simulated
// network and probes them all on the §VII-A schedule, returning each
// server's outcome in spec order. The scanner takes one ephemeral port per
// server, so the specs need distinct addresses and number at most 16 384.
func scanServers(specs []population.PoolServerSpec, cfg ScanConfig) ([]scanOutcome, error) {
	start := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	clk := simclock.New(start)
	opts := []simnet.Option{simnet.WithPathModel(scanPath())}
	if tr := cfg.Tracer; tr != nil && tr.Enabled() {
		clk.SetFireHook(simclock.TraceTo(tr))
		opts = append(opts, simnet.WithTrace(simnet.TraceTo(tr)))
	}
	net := simnet.New(clk, opts...)
	scanner := net.MustAddHost(ipv4.MustParseAddr("203.0.113.1"), simnet.HostConfig{})

	type state struct {
		firstHalf, secondHalf int
		kod                   bool
	}
	states := make([]state, len(specs))
	ports := make([]uint16, len(specs))
	var wire []byte // shared encode scratch; SendUDP copies before returning

	for i, spec := range specs {
		host, err := net.AddHost(spec.Addr, simnet.HostConfig{})
		if err != nil {
			return nil, fmt.Errorf("measure: pool host: %w", err)
		}
		scfg := ntpserv.Config{
			RateLimit: ntpserv.RateLimitConfig{
				Enabled:     spec.RateLimits,
				MinInterval: 2 * time.Second,
				Burst:       12,
				HoldDown:    60 * time.Second,
				SendKoD:     spec.SendsKoD,
			},
		}
		if _, err := ntpserv.New(host, scfg); err != nil {
			return nil, fmt.Errorf("measure: pool server: %w", err)
		}

		st := &states[i]
		port := scanner.AllocPort()
		ports[i] = port
		srvAddr := spec.Addr
		half := cfg.Queries / 2
		if err := scanner.HandleUDP(port, func(src ipv4.Addr, _ uint16, payload []byte) {
			if src != srvAddr {
				return
			}
			var pkt ntpwire.Packet
			if err := ntpwire.UnmarshalInto(&pkt, payload); err != nil {
				return
			}
			if pkt.IsKoD() {
				st.kod = true
				return
			}
			// Which half was the answered query in? Infer from current
			// scan time.
			if int(clk.Now().Sub(start)/cfg.Interval) < half {
				st.firstHalf++
			} else {
				st.secondHalf++
			}
		}); err != nil {
			return nil, err
		}
	}

	// All probes form one self-rescheduling round chain rather than
	// Queries×Servers pre-scheduled events: each round sends to every
	// server in registration order — exactly the interleaving per-server
	// schedules would produce, since they would all fire at the same
	// instants in that same order — while the pending-event heap holds one
	// chain event instead of one per server. The probe bytes are identical
	// across the round (same XmitTime), so the round shares one encode.
	round := 0
	var sendRound func()
	sendRound = func() {
		pkt := ntpwire.ClientPacket(clk.Now())
		wire = pkt.AppendMarshal(wire[:0])
		for i, spec := range specs {
			_, _ = scanner.SendUDP(spec.Addr, ports[i], ntpwire.Port, wire)
		}
		if round++; round < cfg.Queries {
			clk.After(cfg.Interval, sendRound)
		}
	}
	if len(specs) > 0 && cfg.Queries > 0 {
		clk.After(0, sendRound)
	}

	clk.RunFor(time.Duration(cfg.Queries)*cfg.Interval + 10*time.Second)

	out := make([]scanOutcome, len(states))
	for i, st := range states {
		out[i] = scanOutcome{kod: st.kod, limited: st.firstHalf-st.secondHalf > cfg.HalfGap}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// §VII-B / Figure 5: nameserver fragmentation scan.

// FragScanResult summarises a nameserver fragmentation scan.
type FragScanResult struct {
	Total int
	// FragBelow548 counts fragmenting, unsigned nameservers that honoured
	// a probe of 548 B or less.
	FragBelow548 int
	// DNSSEC counts signed nameservers.
	DNSSEC int
	// FragNoDNSSEC counts fragmenting, unsigned nameservers (the
	// vulnerable set).
	FragNoDNSSEC int
	// MinSizes holds the observed minimum fragment size per fragmenting,
	// unsigned nameserver, the smallest probe size it honoured — the
	// Figure 5 sample set, one count per probe size.
	MinSizes *stats.CDF
}

// FragScan applies the §VII-B probe logic to a nameserver population: for
// each server, probe at each of probeSizes and record the smallest the
// server honours, whatever their order. (The live ICMP → PMTU →
// fragmentation path is exercised end-to-end in internal/dnsauth's tests
// and by the attack; this scan evaluates populations at spec level for
// scale.) A server that honours none of the sizes is not counted as
// fragmenting. nil probeSizes means the paper's 1500, 1276, 548, 292 and
// 68 bytes, which include every floor the population generators draw.
func FragScan(specs []population.NameserverSpec, probeSizes []int) FragScanResult {
	f := newFragFold(probeSizes)
	for _, ns := range specs {
		f.add(ns, 1)
	}
	return f.result()
}

// fragFold applies the §VII-B scan to nameservers by spec, one at a time
// from a stored population (FragScan) or a class at a time from a tally
// (the fig5 scenario). It counts the fragmenting, unsigned nameservers
// by the smallest probe size each honours, and builds MinSizes from those
// counts.
type fragFold struct {
	res    FragScanResult
	sizes  []int // the probe sizes, ascending, each once
	counts []int // nameservers by the smallest size in sizes they honour
}

func newFragFold(probeSizes []int) *fragFold {
	if len(probeSizes) == 0 {
		probeSizes = []int{1500, 1276, 548, 292, 68}
	}
	sizes := slices.Compact(slices.Sorted(slices.Values(probeSizes)))
	return &fragFold{sizes: sizes, counts: make([]int, len(sizes))}
}

// add scans n nameservers of spec ns.
func (f *fragFold) add(ns population.NameserverSpec, n int) {
	f.res.Total += n
	if ns.DNSSEC {
		f.res.DNSSEC += n
		return
	}
	if !ns.Fragments {
		return
	}
	// The smallest size the server honours is the first at or above its
	// floor.
	if i, _ := slices.BinarySearch(f.sizes, ns.MinFragSize); i < len(f.sizes) {
		f.counts[i] += n
	}
}

func (f *fragFold) result() FragScanResult {
	res := f.res
	res.MinSizes = &stats.CDF{}
	for i, n := range f.counts {
		res.FragNoDNSSEC += n
		if f.sizes[i] <= 548 {
			res.FragBelow548 += n
		}
		res.MinSizes.AddN(float64(f.sizes[i]), n)
	}
	return res
}

// FragNoDNSSECPct reports the vulnerable fraction of the population.
func (r FragScanResult) FragNoDNSSECPct() float64 { return pct(r.FragNoDNSSEC, r.Total) }

// CumAt reports the Figure 5 CDF value at size (fraction of fragmenting,
// unsigned nameservers with minimum fragment size ≤ size).
func (r FragScanResult) CumAt(size float64) float64 { return r.MinSizes.At(size) }

// ---------------------------------------------------------------------------
// §VIII-A: open-resolver cache snooping (Table IV) and Figure 6.

// SnoopRow is one Table IV row.
type SnoopRow struct {
	Record    population.PoolRecord
	CachedPct float64
	Cached    int
	NotCached int
}

// SnoopResult is the Table IV dataset plus the Figure 6 TTL counts.
type SnoopResult struct {
	Probed   int // resolvers probed (responding)
	Verified int // resolvers where the RD-bit pre-test verified
	Rows     []SnoopRow
	// TTLCounts[t] counts the cached pool.ntp.org A records read back
	// with t seconds of TTL left: the Figure 6 samples, without their
	// order, which no Figure 6 statistic reads. Its length is one more
	// than the largest TTL read, and it is nil when none was read, so one
	// population has one TTLCounts however it is snooped.
	TTLCounts []int
}

// CacheSnoop performs the §VIII-A methodology over an open-resolver
// population: verify RD-bit handling, then probe each Table IV record with
// RD=0 and count cached-copy TTLs. A TTL outside [0, seven days], which
// only a hand-built spec holds, counts at the nearer end: a negative one
// as 0, as RFC 2181 §8 reads a wire TTL with its top bit set (negative to
// a signed reader), and a longer one as seven days, the cap RFC 8767 §4
// recommends for cached TTLs. So TTLCounts stays bounded whatever the
// specs hold.
func CacheSnoop(specs []population.OpenResolverSpec) SnoopResult {
	var f snoopFold
	for i := range specs {
		s := &specs[i]
		if f.resolver(s.Responds, s.RespectsRD) {
			for _, c := range s.Cached {
				f.record(slices.Index(tableIV[:], c.Record), c.TTL)
			}
		}
	}
	return f.result()
}

// SnoopOpenResolvers is CacheSnoop(population.GenerateOpenResolvers(cfg,
// seed)) without the stored population: population.TallyOpenResolvers
// counts what the snoop reads as it draws — the probed and verified
// resolvers, the verified ones caching each record, and their
// pool.ntp.org A TTLs clamped to [0, maxTTL] — and it keeps only the
// result, the Table IV counts and the Figure 6 TTL counts. Each record
// the draw decides is mapped to its Table IV row once.
func SnoopOpenResolvers(cfg population.OpenResolverConfig, seed int64) SnoopResult {
	t := population.TallyOpenResolvers(cfg, seed, population.RecPoolA, maxTTL)
	f := snoopFold{res: SnoopResult{Probed: t.Responding, Verified: t.Verified, TTLCounts: t.TTLCounts}}
	for k, rec := range t.Records {
		if row := slices.Index(tableIV[:], rec); row >= 0 {
			f.cached[row] = t.Cached[k]
		}
	}
	return f.result()
}

// tableIV holds the Table IV records in row order; snoopFold counts into
// arrays indexed by row.
var tableIV = [6]population.PoolRecord(population.AllPoolRecords())

// rowPoolA is the row of pool.ntp.org A, whose TTLs Figure 6 reads.
var rowPoolA = slices.Index(tableIV[:], population.RecPoolA)

// maxTTL is the longest remaining TTL the fold counts, in seconds: seven
// days, the cap RFC 8767 §4 recommends for cached TTLs.
const maxTTL = 7 * 24 * 3600

// snoopFold applies the §VIII-A methodology to a stored population
// (CacheSnoop) one resolver at a time: a resolver, then its cached
// records by Table IV row. SnoopOpenResolvers fills its counts from a
// tally instead.
type snoopFold struct {
	res    SnoopResult
	cached [len(tableIV)]int
	seen   [len(tableIV)]bool // rows the current resolver has counted
}

// resolver counts one resolver and reports whether its RD-bit pre-test
// verified, in which case its cached records are counted next.
func (f *snoopFold) resolver(responds, respectsRD bool) bool {
	if !responds {
		return false
	}
	f.res.Probed++
	if !respectsRD {
		return false
	}
	f.res.Verified++
	f.seen = [len(tableIV)]bool{}
	return true
}

// record counts one cached record of the last verified resolver by its
// Table IV row (−1: not in Table IV, ignored). A record listed twice
// counts once, with its first TTL — the answer
// OpenResolverSpec.CachedTTL gives. A pool.ntp.org A TTL is counted in
// TTLCounts, clamped to [0, maxTTL] (see CacheSnoop).
func (f *snoopFold) record(row, ttl int) {
	if row < 0 || f.seen[row] {
		return
	}
	f.seen[row] = true
	f.cached[row]++
	if row == rowPoolA {
		ttl = min(max(ttl, 0), maxTTL)
		if counts := f.res.TTLCounts; ttl >= len(counts) {
			f.res.TTLCounts = append(counts, make([]int, ttl+1-len(counts))...)
		}
		f.res.TTLCounts[ttl]++
	}
}

func (f *snoopFold) result() SnoopResult {
	res := f.res
	res.Rows = make([]SnoopRow, len(tableIV))
	for row, rec := range tableIV {
		res.Rows[row] = SnoopRow{
			Record:    rec,
			CachedPct: pct(f.cached[row], res.Verified),
			Cached:    f.cached[row],
			NotCached: res.Verified - f.cached[row],
		}
	}
	return res
}

// TTLHistogram bins the Figure 6 samples (default: 10-second bins over
// [0, 160]).
func (r SnoopResult) TTLHistogram() *stats.Histogram {
	h := stats.NewHistogram(0, 160, 10)
	for ttl, n := range r.TTLCounts {
		h.AddN(float64(ttl), n)
	}
	return h
}

// TTLMean returns the mean of the Figure 6 samples, NaN when there are
// none: stats.Mean of them in any order, since every partial sum of
// integer TTLs is an integer below 2⁵³, which float64 adds exactly.
func (r SnoopResult) TTLMean() float64 {
	n, sum := 0, 0
	for ttl, c := range r.TTLCounts {
		n += c
		sum += ttl * c
	}
	if n == 0 {
		return math.NaN()
	}
	return float64(sum) / float64(n)
}

// TTLMedian returns the median of the Figure 6 samples, NaN when there
// are none: stats.Median of them, found by walking the counts to the
// middle ranks instead of sorting.
func (r SnoopResult) TTLMedian() float64 {
	n := 0
	for _, c := range r.TTLCounts {
		n += c
	}
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return float64(r.ttlAt(n / 2))
	}
	return (float64(r.ttlAt(n/2-1)) + float64(r.ttlAt(n/2))) / 2
}

// ttlAt returns the TTL at rank k, counted from 0, of the sorted Figure 6
// samples; k must be below their number.
func (r SnoopResult) ttlAt(k int) int {
	for ttl, c := range r.TTLCounts {
		if k < c {
			return ttl
		}
		k -= c
	}
	panic("measure: TTL rank past the last sample")
}

// ---------------------------------------------------------------------------
// §VIII-B: ad-network study (Table V).

// AdRow is one Table V row.
type AdRow struct {
	Label     string
	TinyCount int
	TinyPct   float64
	AnyCount  int
	AnyPct    float64
	Total     int
	DNSSECPct float64
}

// AdStudyResult is the Table V dataset.
type AdStudyResult struct {
	Rows []AdRow
	// ValidClients is the post-filter population size.
	ValidClients int
	// Filtered counts results dropped by the paper's filters (page open
	// < 30 s, failed baseline/sigright controls).
	Filtered int
	// GoogleClients counts clients behind Google DNS.
	GoogleClients int
	// DNSSECMinPct and DNSSECMaxPct are the validation range across
	// regions ("between 19.14% and 28.94%").
	DNSSECMinPct, DNSSECMaxPct float64
}

// AdStudy runs the §VIII-B analysis over a client population: filter
// invalid results, then aggregate tiny-fragment and any-fragment acceptance
// and DNSSEC validation by region, device class, overall, and excluding
// Google-DNS clients. A client from a region outside
// population.AllRegions, or of a device class other than PC and
// Mobile,Tablet, counts in every row but its region's or its device's.
// With no valid client of a Table V region, the DNSSEC range is 0–0.
func AdStudy(clients []population.AdClientSpec) AdStudyResult {
	var f adFold
	for i := range clients {
		f.client(&clients[i])
	}
	return f.result()
}

// tableVRegions and tableVDevices hold Table V's region and device rows
// in order; adFold counts into arrays indexed by row.
var (
	tableVRegions = [5]population.Region(population.AllRegions())
	tableVDevices = [...]population.Device{population.PC, population.Mobile}
)

// adAgg counts one Table V row's clients.
type adAgg struct{ tiny, any, dnssec, total int }

func (a *adAgg) add(c *population.AdClientSpec) {
	a.total++
	if c.AcceptsTiny {
		a.tiny++
	}
	if c.AcceptsTiny || c.AcceptsSmall || c.AcceptsMedium || c.AcceptsBig {
		a.any++
	}
	if c.ValidatesDNSSEC {
		a.dnssec++
	}
}

func (a *adAgg) row(label string) AdRow {
	return AdRow{
		Label:     label,
		TinyCount: a.tiny, TinyPct: pct(a.tiny, a.total),
		AnyCount: a.any, AnyPct: pct(a.any, a.total),
		Total:     a.total,
		DNSSECPct: pct(a.dnssec, a.total),
	}
}

// adFold applies the §VIII-B analysis one client at a time, to a stored
// population (AdStudy) or to one drawn as it is studied (the table5
// scenario).
type adFold struct {
	res           AdStudyResult
	regions       [len(tableVRegions)]adAgg
	devices       [len(tableVDevices)]adAgg
	all, noGoogle adAgg
}

func (f *adFold) client(c *population.AdClientSpec) {
	if c.PageOpenSeconds < 30 || !c.BaselineOK || !c.SigrightOK {
		f.res.Filtered++
		return
	}
	f.res.ValidClients++
	if c.GoogleDNS {
		f.res.GoogleClients++
	} else {
		f.noGoogle.add(c)
	}
	if i := slices.Index(tableVRegions[:], c.Region); i >= 0 {
		f.regions[i].add(c)
	}
	if i := slices.Index(tableVDevices[:], c.Device); i >= 0 {
		f.devices[i].add(c)
	}
	f.all.add(c)
}

func (f *adFold) result() AdStudyResult {
	res := f.res
	res.Rows = make([]AdRow, 0, len(tableVRegions)+2+len(tableVDevices))
	for i, region := range tableVRegions {
		a := &f.regions[i]
		if a.total == 0 {
			continue
		}
		r := a.row(string(region))
		if len(res.Rows) == 0 {
			res.DNSSECMinPct, res.DNSSECMaxPct = r.DNSSECPct, r.DNSSECPct
		}
		res.DNSSECMinPct = min(res.DNSSECMinPct, r.DNSSECPct)
		res.DNSSECMaxPct = max(res.DNSSECMaxPct, r.DNSSECPct)
		res.Rows = append(res.Rows, r)
	}
	res.Rows = append(res.Rows, f.all.row("ALL"), f.noGoogle.row("Without Google"))
	for i, dev := range tableVDevices {
		if f.devices[i].total > 0 {
			res.Rows = append(res.Rows, f.devices[i].row(string(dev)))
		}
	}
	return res
}

// Render prints the Table V layout.
func (r AdStudyResult) Render() string {
	t := stats.NewTable("Group", "Tiny(68B)", "Tiny%", "Any size", "Any%", "Total", "DNSSEC%")
	for _, row := range r.Rows {
		t.AddRow(row.Label, row.TinyCount, row.TinyPct, row.AnyCount, row.AnyPct, row.Total, row.DNSSECPct)
	}
	return t.String()
}

// ---------------------------------------------------------------------------
// §VIII-B3: shared-resolver discovery.

// SharedResolverResult is the §VIII-B3 dataset.
type SharedResolverResult struct {
	Total       int
	WebOnly     int
	WebAndSMTP  int
	OpenOnly    int
	OpenAndSMTP int
}

// Triggerable counts resolvers where the attacker can cause queries via
// SMTP or direct (open) queries.
func (r SharedResolverResult) Triggerable() int {
	return r.WebAndSMTP + r.OpenOnly + r.OpenAndSMTP
}

// TriggerablePct is the headline 13.8% number.
func (r SharedResolverResult) TriggerablePct() float64 { return pct(r.Triggerable(), r.Total) }

// SharedResolverStudy classifies the topology per §VIII-B3.
func SharedResolverStudy(specs []population.SharedResolverSpec) SharedResolverResult {
	var res SharedResolverResult
	for _, s := range specs {
		res.resolver(s)
	}
	return res
}

// resolver classifies one resolver, from a stored topology
// (SharedResolverStudy) or one drawn as it is classified (the shared
// scenario).
func (r *SharedResolverResult) resolver(s population.SharedResolverSpec) {
	r.Total++
	switch {
	case s.Open && s.UsedBySMTP:
		r.OpenAndSMTP++
	case s.Open:
		r.OpenOnly++
	case s.UsedBySMTP:
		r.WebAndSMTP++
	default:
		r.WebOnly++
	}
}

// ---------------------------------------------------------------------------
// Figure 7: timing side channel.

// TimingResult is the Figure 7 dataset.
type TimingResult struct {
	Deltas []float64 // t_first − t_avg, milliseconds
}

// Histogram bins the deltas as in Figure 7 (5 ms bins over [−50, 200] with
// clamped tails).
func (r TimingResult) Histogram() *stats.Histogram {
	h := newTimingHistogram()
	for _, d := range r.Deltas {
		h.Add(d)
	}
	return h
}

// newTimingHistogram returns an empty Figure 7 histogram.
func newTimingHistogram() *stats.Histogram { return stats.NewHistogram(-50, 200, 5) }

// TimingSideChannel generates the Figure 7 measurement from the probe
// model.
func TimingSideChannel(cfg population.TimingProbeConfig, seed int64) TimingResult {
	return TimingResult{Deltas: population.GenerateTimingDeltas(cfg, seed)}
}
