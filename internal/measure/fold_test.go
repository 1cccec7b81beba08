package measure

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dnstime/internal/population"
	"dnstime/internal/scenario"
	"dnstime/internal/stats"
)

// referenceFragScan is the §VII-B scan written out sample by sample: the
// smallest probe size each fragmenting, unsigned server honours, found
// by trying every size, and a CDF with one Add per server.
func referenceFragScan(specs []population.NameserverSpec, probeSizes []int) FragScanResult {
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
		smallest, honoured := 0, false
		for _, sz := range probeSizes {
			if sz >= ns.MinFragSize && (!honoured || sz < smallest) {
				smallest, honoured = sz, true
			}
		}
		if !honoured {
			continue
		}
		res.FragNoDNSSEC++
		res.MinSizes.Add(float64(smallest))
		if smallest <= 548 {
			res.FragBelow548++
		}
	}
	return res
}

// referenceAdStudy is the Table V fold as it was written with
// string-keyed maps, with one change: with no region row, the DNSSEC
// range is 0–0 instead of 100–0.
func referenceAdStudy(clients []population.AdClientSpec) AdStudyResult {
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
	if len(res.Rows) == 0 {
		res.DNSSECMinPct = 0
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

// sameFragScan reports how two scan results differ, "" when they agree:
// every count, and the Figure 5 CDF's size and value at each size the
// scans could record and just around it.
func sameFragScan(got, want FragScanResult) string {
	if got.Total != want.Total || got.DNSSEC != want.DNSSEC || got.FragNoDNSSEC != want.FragNoDNSSEC ||
		got.FragBelow548 != want.FragBelow548 || got.MinSizes.Len() != want.MinSizes.Len() {
		return "counts differ"
	}
	for _, v := range []float64{-10, -1, 0, 1, 67, 68, 100, 291, 292, 547, 548, 599, 600, 1275, 1276, 1499, 1500, 9000, math.Inf(1)} {
		for _, x := range []float64{math.Nextafter(v, math.Inf(-1)), v, math.Nextafter(v, math.Inf(1))} {
			if got.MinSizes.At(x) != want.MinSizes.At(x) {
				return "CDF differs"
			}
		}
	}
	return ""
}

// TestFragScanRecordsSmallestHonouredProbe: a scan records the smallest
// probe size a server honours, not the server's hidden floor, whatever
// the order of the probe sizes. Over floors 292 and 600 and probes at
// 1500 and 548 bytes, the scan sees 548 and 1500.
func TestFragScanRecordsSmallestHonouredProbe(t *testing.T) {
	specs := []population.NameserverSpec{
		{Fragments: true, MinFragSize: 292},
		{Fragments: true, MinFragSize: 600},
	}
	for _, probes := range [][]int{{1500, 548}, {548, 1500}} {
		res := FragScan(specs, probes)
		if res.FragNoDNSSEC != 2 || res.FragBelow548 != 1 {
			t.Errorf("probes %v: %d fragmenting, %d at or below 548 B; want 2, 1", probes, res.FragNoDNSSEC, res.FragBelow548)
		}
		if c := res.CumAt(292); c != 0 {
			t.Errorf("probes %v: CumAt(292) = %v, want 0: no probe was that small", probes, c)
		}
		if c := res.CumAt(548); c != 0.5 {
			t.Errorf("probes %v: CumAt(548) = %v, want 0.5", probes, c)
		}
	}
}

// TestAdStudyNoRegionRow: with no valid client of a Table V region there
// is no DNSSEC range to report, and it reads 0–0, not 100–0.
func TestAdStudyNoRegionRow(t *testing.T) {
	for name, clients := range map[string][]population.AdClientSpec{
		"no clients":     nil,
		"all filtered":   {{Region: population.Asia, PageOpenSeconds: 10, BaselineOK: true, SigrightOK: true}},
		"unknown region": {{Region: "Oceania", Device: population.PC, PageOpenSeconds: 40, BaselineOK: true, SigrightOK: true, ValidatesDNSSEC: true}},
	} {
		res := AdStudy(clients)
		if res.DNSSECMinPct != 0 || res.DNSSECMaxPct != 0 {
			t.Errorf("%s: DNSSEC range %v–%v, want 0–0", name, res.DNSSECMinPct, res.DNSSECMaxPct)
		}
	}
}

// randomNameservers draws n hand-built nameserver specs with floors on,
// between and beyond the probe sizes, zero and negative ones included.
func randomNameservers(rng *rand.Rand, n int) []population.NameserverSpec {
	floors := []int{-5, 0, 68, 100, 292, 293, 548, 600, 1276, 1500, 1501, 9000}
	specs := make([]population.NameserverSpec, n)
	for i := range specs {
		specs[i] = population.NameserverSpec{
			Fragments:   rng.Intn(4) > 0,
			DNSSEC:      rng.Intn(5) == 0,
			MinFragSize: floors[rng.Intn(len(floors))],
		}
	}
	return specs
}

// randomAdClients draws n hand-built ad clients, some from a region
// outside Table V or none, some with a device class other than Table V's.
func randomAdClients(rng *rand.Rand, n int) []population.AdClientSpec {
	regions := append(population.AllRegions(), "Oceania", "")
	devices := []population.Device{population.PC, population.Mobile, "Desktop", ""}
	clients := make([]population.AdClientSpec, n)
	for i := range clients {
		bit := func() bool { return rng.Intn(2) == 0 }
		clients[i] = population.AdClientSpec{
			Region: regions[rng.Intn(len(regions))], Device: devices[rng.Intn(len(devices))],
			GoogleDNS: bit(), AcceptsTiny: bit(), AcceptsSmall: bit(), AcceptsMedium: bit(), AcceptsBig: bit(),
			ValidatesDNSSEC: bit(), PageOpenSeconds: rng.Intn(60), BaselineOK: rng.Intn(8) > 0, SigrightOK: rng.Intn(8) > 0,
		}
	}
	return clients
}

// TestFoldsMatchReference: FragScan and AdStudy fold hand-built specs
// exactly as the reference folds do, for custom probe sizes (unordered,
// repeated, negative, a single one) and for clients outside Table V's
// regions and devices; and the fig5, table5, shared and fig7 scenarios,
// which fold their populations as they are drawn, report what the folds
// report over the stored populations.
func TestFoldsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	probeSets := [][]int{nil, {}, {1500, 548}, {548, 1500}, {68}, {1500, 1500, 292}, {600, 100, 0, -1}, {9000, 1276}}
	for round := range 50 {
		specs := randomNameservers(rng, rng.Intn(200))
		for _, probes := range probeSets {
			if diff := sameFragScan(FragScan(specs, probes), referenceFragScan(specs, probes)); diff != "" {
				t.Fatalf("round %d, probes %v: %s", round, probes, diff)
			}
		}
		clients := randomAdClients(rng, rng.Intn(200))
		if got, want := AdStudy(clients), referenceAdStudy(clients); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: AdStudy = %+v, reference %+v", round, got, want)
		}
	}

	ctx := context.Background()
	fig5, err := fig5Scenario(ctx, 1, scenario.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if diff := sameFragScan(fig5.Detail.(FragScanResult), referenceFragScan(population.GenerateDomainNameservers(population.DefaultDomainNameserverConfig(), 6), nil)); diff != "" {
		t.Errorf("fig5 scenario: %s", diff)
	}
	table5, err := tableVScenario(ctx, 1, scenario.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := table5.Detail.(AdStudyResult), referenceAdStudy(population.GenerateAdClients(population.DefaultAdStudyConfig(), 10)); !reflect.DeepEqual(got, want) {
		t.Errorf("table5 scenario: %+v, reference %+v", got, want)
	}
	shared, err := sharedScenario(ctx, 1, scenario.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := shared.Detail.(SharedResolverResult), SharedResolverStudy(population.GenerateSharedResolvers(population.DefaultSharedResolverConfig(), 22)); got != want {
		t.Errorf("shared scenario: %+v, stored %+v", got, want)
	}
	fig7, err := fig7Scenario(ctx, 1, scenario.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fig7.Detail.(*stats.Histogram), TimingSideChannel(population.DefaultTimingProbeConfig(), 18).Histogram(); !reflect.DeepEqual(got, want) {
		t.Errorf("fig7 scenario: %+v, stored deltas' %+v", got, want)
	}
}
