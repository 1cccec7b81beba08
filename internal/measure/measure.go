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
	"slices"
	"time"

	"dnstime/internal/ipv4"
	"dnstime/internal/netem"
	"dnstime/internal/ntpserv"
	"dnstime/internal/ntpwire"
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
	net := simnet.New(clk, simnet.WithPathModel(scanPath()))
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
			ConfigInterface: spec.OpenConfig,
			UpstreamNames:   []string{"pool.ntp.org"},
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
	// FragBelow548 counts nameservers emitting fragments ≤ 548 B.
	FragBelow548 int
	// DNSSEC counts signed nameservers.
	DNSSEC int
	// FragNoDNSSEC counts fragmenting, unsigned nameservers (the
	// vulnerable set).
	FragNoDNSSEC int
	// MinSizes holds the observed minimum fragment size per fragmenting,
	// unsigned nameserver — the Figure 5 sample set.
	MinSizes *stats.CDF
}

// FragScan applies the §VII-B probe logic to a nameserver population: for
// each server, walk the probe MTUs downward and record the smallest the
// server honours. (The live ICMP → PMTU → fragmentation path is exercised
// end-to-end in internal/dnsauth's tests and by the attack; this scan
// evaluates populations at spec level for scale.)
func FragScan(specs []population.NameserverSpec, probeSizes []int) FragScanResult {
	if len(probeSizes) == 0 {
		probeSizes = []int{1500, 1276, 548, 292, 68}
	}
	res := FragScanResult{Total: len(specs), MinSizes: &stats.CDF{}}
	for _, ns := range specs {
		if ns.DNSSEC {
			res.DNSSEC++
			continue
		}
		if !ns.Fragments {
			continue
		}
		min := 0
		for _, sz := range probeSizes {
			if sz >= ns.MinFragSize {
				min = sz
			}
		}
		if min == 0 {
			continue
		}
		res.FragNoDNSSEC++
		res.MinSizes.Add(float64(ns.MinFragSize))
		if ns.MinFragSize <= 548 {
			res.FragBelow548++
		}
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

// SnoopResult is the Table IV dataset plus the Figure 6 TTL samples.
type SnoopResult struct {
	Probed   int // resolvers probed (responding)
	Verified int // resolvers where the RD-bit pre-test verified
	Rows     []SnoopRow
	// TTLs holds the remaining TTLs (seconds) read back from cached
	// pool.ntp.org A records — the Figure 6 samples.
	TTLs []float64
}

// CacheSnoop performs the §VIII-A methodology over an open-resolver
// population: verify RD-bit handling, then probe each Table IV record with
// RD=0 and record cached-copy TTLs.
func CacheSnoop(specs []population.OpenResolverSpec) SnoopResult {
	var f snoopFold
	for i := range specs {
		f.add(&specs[i])
	}
	return f.result()
}

// SnoopOpenResolvers is CacheSnoop(population.GenerateOpenResolvers(cfg,
// seed)) without the stored population: it snoops each resolver as it is
// drawn and keeps only the result — the Table IV counts and the Figure 6
// TTL samples.
func SnoopOpenResolvers(cfg population.OpenResolverConfig, seed int64) SnoopResult {
	var f snoopFold
	for r := range population.OpenResolvers(cfg, seed) {
		f.add(&r)
	}
	return f.result()
}

// tableIV holds the Table IV records in row order; snoopFold counts into
// arrays indexed by row.
var tableIV = [6]population.PoolRecord(population.AllPoolRecords())

// snoopFold applies the §VIII-A methodology one resolver at a time.
type snoopFold struct {
	res    SnoopResult
	cached [len(tableIV)]int
}

func (f *snoopFold) add(r *population.OpenResolverSpec) {
	if !r.Responds {
		return
	}
	f.res.Probed++
	if !r.RespectsRD {
		return
	}
	f.res.Verified++
	// A record listed twice counts once, with its first TTL — the answer
	// OpenResolverSpec.CachedTTL gives.
	var seen [len(tableIV)]bool
	for _, c := range r.Cached {
		row := slices.Index(tableIV[:], c.Record)
		if row < 0 || seen[row] {
			continue
		}
		seen[row] = true
		f.cached[row]++
		if c.Record == population.RecPoolA {
			f.res.TTLs = append(f.res.TTLs, float64(c.TTL))
		}
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
	for _, ttl := range r.TTLs {
		h.Add(ttl)
	}
	return h
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
// Google-DNS clients.
func AdStudy(clients []population.AdClientSpec) AdStudyResult {
	res := AdStudyResult{}
	type agg struct{ tiny, any, dnssec, total int }
	regions := make(map[population.Region]*agg)
	devices := make(map[population.Device]*agg)
	all := &agg{}
	noGoogle := &agg{}

	add := func(a *agg, c population.AdClientSpec) {
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

	for _, c := range clients {
		if c.PageOpenSeconds < 30 || !c.BaselineOK || !c.SigrightOK {
			res.Filtered++
			continue
		}
		res.ValidClients++
		if c.GoogleDNS {
			res.GoogleClients++
		} else {
			add(noGoogle, c)
		}
		if regions[c.Region] == nil {
			regions[c.Region] = &agg{}
		}
		if devices[c.Device] == nil {
			devices[c.Device] = &agg{}
		}
		add(regions[c.Region], c)
		add(devices[c.Device], c)
		add(all, c)
	}

	row := func(label string, a *agg) AdRow {
		return AdRow{
			Label:     label,
			TinyCount: a.tiny, TinyPct: pct(a.tiny, a.total),
			AnyCount: a.any, AnyPct: pct(a.any, a.total),
			Total:     a.total,
			DNSSECPct: pct(a.dnssec, a.total),
		}
	}
	res.DNSSECMinPct = 100
	for _, region := range population.AllRegions() {
		a := regions[region]
		if a == nil {
			continue
		}
		r := row(string(region), a)
		res.Rows = append(res.Rows, r)
		if r.DNSSECPct < res.DNSSECMinPct {
			res.DNSSECMinPct = r.DNSSECPct
		}
		if r.DNSSECPct > res.DNSSECMaxPct {
			res.DNSSECMaxPct = r.DNSSECPct
		}
	}
	res.Rows = append(res.Rows, row("ALL", all))
	res.Rows = append(res.Rows, row("Without Google", noGoogle))
	for _, dev := range []population.Device{population.PC, population.Mobile} {
		if a := devices[dev]; a != nil {
			res.Rows = append(res.Rows, row(string(dev), a))
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
	res := SharedResolverResult{Total: len(specs)}
	for _, s := range specs {
		switch {
		case s.Open && s.UsedBySMTP:
			res.OpenAndSMTP++
		case s.Open:
			res.OpenOnly++
		case s.UsedBySMTP:
			res.WebAndSMTP++
		default:
			res.WebOnly++
		}
	}
	return res
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
	h := stats.NewHistogram(-50, 200, 5)
	for _, d := range r.Deltas {
		h.Add(d)
	}
	return h
}

// BestThresholdAccuracy sweeps candidate thresholds T and returns the best
// achievable classification accuracy if "cached" were declared whenever
// t_first − t_avg < T, given the ground truth. The paper's conclusion — no
// reasonable T exists — corresponds to accuracies well below 1.
func BestThresholdAccuracy(deltas []float64, cached []bool) (bestT float64, accuracy float64) {
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

// TimingSideChannel generates the Figure 7 measurement from the probe
// model.
func TimingSideChannel(cfg population.TimingProbeConfig, seed int64) TimingResult {
	return TimingResult{Deltas: population.GenerateTimingDeltas(cfg, seed)}
}
