package dnstime_test

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// golden64 is the 64-seed full-population campaign document that
// TestRunCampaigns64Golden (cmd/experiments) pins byte for byte.
const golden64 = "cmd/experiments/testdata/campaigns-64.golden"

// goldenStat is one aggregate of golden64: a metric's mean with its 95%
// confidence interval, or (metric "") a scenario's success rate in percent
// with its Wilson interval.
type goldenStat struct {
	mean, lo, hi float64
	runs, succ   int
}

// goldenAggregates maps "scenario" and "scenario/metric" to their stats.
type goldenAggregates map[string]goldenStat

func loadGolden64(t *testing.T) goldenAggregates {
	t.Helper()
	data, err := os.ReadFile(golden64)
	if err != nil {
		t.Fatal(err)
	}
	type interval struct{ Lo, Hi float64 }
	var doc struct {
		Scenarios []struct {
			Scenario  string
			Runs      int
			Successes int
			Rate      float64  `json:"success_rate_pct"`
			RateCI    interval `json:"success_ci_pct"`
			Metrics   []struct {
				Name   string
				Mean   float64
				MeanCI interval `json:"mean_ci"`
			}
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("%s: %v", golden64, err)
	}
	g := goldenAggregates{}
	for _, s := range doc.Scenarios {
		g[s.Scenario] = goldenStat{mean: s.Rate, lo: s.RateCI.Lo, hi: s.RateCI.Hi, runs: s.Runs, succ: s.Successes}
		for _, m := range s.Metrics {
			g[s.Scenario+"/"+m.Name] = goldenStat{mean: m.Mean, lo: m.MeanCI.Lo, hi: m.MeanCI.Hi}
		}
	}
	return g
}

// get returns the stat at key; a key the golden lacks fails the test.
func (g goldenAggregates) get(t *testing.T, key string) goldenStat {
	t.Helper()
	s, ok := g[key]
	if !ok {
		t.Fatalf("%s has no aggregate %q", golden64, key)
	}
	return s
}

// scaled multiplies a stat by f (seconds to minutes, a count to a share).
func (s goldenStat) scaled(f float64) goldenStat {
	return goldenStat{mean: s.mean * f, lo: s.lo * f, hi: s.hi * f, runs: s.runs, succ: s.succ}
}

// zeroWidth reports an interval that is a point up to float rounding.
func (s goldenStat) zeroWidth() bool { return s.hi-s.lo <= 1e-9*math.Max(1, math.Abs(s.mean)) }

// ci renders the interval the way EXPERIMENTS.md does: "CI ±0" for a
// point, "CI lo–hi" at the given decimals otherwise.
func (s goldenStat) ci(decimals int) string {
	if s.zeroWidth() {
		return "CI ±0"
	}
	return "CI " + num(s.lo, decimals) + "–" + num(s.hi, decimals)
}

// halfWidth is the interval's half-width at the given decimals.
func (s goldenStat) halfWidth(decimals int) string { return num((s.hi-s.lo)/2, decimals) }

// num formats v at the given decimals with a typographic minus.
func num(v float64, decimals int) string {
	return strings.Replace(strconv.FormatFloat(v, 'f', decimals, 64), "-", "−", 1)
}

// thousands formats a count rounded to an integer with space-grouped
// thousands ("97 248").
func thousands(v float64) string {
	s := strconv.FormatFloat(math.Round(v), 'f', 0, 64)
	for i := len(s) - 3; i > 0; i -= 3 {
		s = s[:i] + " " + s[i:]
	}
	return s
}

// pct renders a fraction as a percentage with at most one decimal
// ("100%", "98.4%").
func pct(v float64) string {
	return strings.TrimSuffix(strconv.FormatFloat(100*v, 'f', 1, 64), ".0") + "%"
}

// runsOf renders a scenario's successes as "64/64".
func runsOf(s goldenStat) string { return fmt.Sprintf("%d/%d", s.succ, s.runs) }

// campaignCell is one cell of an EXPERIMENTS.md campaign column: the
// row it sits in (the row's leading cells joined by " | ", matched as a
// prefix), its column header, and the text the golden renders to.
type campaignCell struct {
	section, row, col string
	want              string
}

// campaignPhrase is a campaign number quoted in EXPERIMENTS.md prose: the
// section holds want verbatim, up to line wrapping.
type campaignPhrase struct {
	section, want string
}

// inSection reports whether part, a "## " section of EXPERIMENTS.md, has
// a heading whose first words are prefix.
func inSection(part, prefix string) bool {
	rest, ok := strings.CutPrefix(part, prefix)
	return ok && (rest == "" || rest[0] == ' ' || rest[0] == '\n')
}

// docSection returns the text of the "## " section whose heading starts
// with the words of prefix.
func docSection(t *testing.T, doc, prefix string) string {
	t.Helper()
	for _, part := range strings.Split(doc, "\n## ")[1:] {
		if inSection(part, prefix) {
			return part
		}
	}
	t.Fatalf("EXPERIMENTS.md has no section %q", prefix)
	return ""
}

// docTable is one markdown table: its header cells and its rows' cells.
type docTable struct {
	header []string
	rows   [][]string
}

// docTables parses the markdown tables of a section.
func docTables(section string) []docTable {
	var tables []docTable
	var cur *docTable
	for _, line := range strings.Split(section, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "|") {
			cur = nil
			continue
		}
		var cells []string
		for _, c := range strings.Split(strings.Trim(line, "|"), "|") {
			cells = append(cells, strings.TrimSpace(c))
		}
		switch {
		case cur == nil:
			tables = append(tables, docTable{header: cells})
			cur = &tables[len(tables)-1]
		case strings.Trim(line, "|-: ") == "":
			// The header's separator row.
		default:
			cur.rows = append(cur.rows, cells)
		}
	}
	return tables
}

// campaignColumns names, per EXPERIMENTS.md section, the table columns
// that quote the 64-seed campaign. Every cell in them must be a
// campaignCell, and every column header mentioning 64 seeds must be
// listed here.
var campaignColumns = map[string][]string{
	"Table II":                 {"64-seed campaign"},
	"Table III":                {"64-seed campaign"},
	"Table IV":                 {"64-seed campaign"},
	"Table V":                  {"64-seed campaign"},
	"Figure 5":                 {"64-seed campaign"},
	"§VII-A":                   {"64-seed campaign"},
	"§VII-B":                   {"64-seed campaign"},
	"§VI-C":                    {"64-seed campaign"},
	"§VIII-B3":                 {"64-seed campaign"},
	"Headline attacks":         {"64-seed campaign"},
	"Network-condition sweeps": {"shifted", "poisoning landed", "mean tts (95% CI)"},
	"Race-margin sweeps":       {"shifted (64 seeds)", "mean tts"},
}

// TestExperimentsCampaignCellsMatchGolden ties every 64-seed campaign
// number EXPERIMENTS.md quotes to the aggregate it comes from in
// campaigns-64.golden: each cell of a campaign column and each campaign
// number in the prose is rendered from its (scenario, metric, statistic)
// and must appear in the document as rendered. A change that moves a
// quoted aggregate fails TestRunCampaigns64Golden; this test then fails
// until the document is brought in step, and a campaign cell added to the
// document fails until it is mapped here.
func TestExperimentsCampaignCellsMatchGolden(t *testing.T) {
	data, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	g := loadGolden64(t)
	m := func(key string) goldenStat { return g.get(t, key) }
	meanCI := func(key string, decimals int, unit string) string {
		s := m(key)
		return num(s.mean, decimals) + unit + " (" + s.ci(decimals) + ")"
	}
	// §VIII-B3 quotes counts as shares of the studied resolvers.
	shared := func(metric string) string {
		s := m("shared/" + metric).scaled(100 / m("shared/total").mean)
		return num(s.mean, 2) + "% (" + s.ci(2) + ")"
	}
	minutes := func(s goldenStat) string { return num(s.mean, 1) + " min (" + s.ci(1) + ")" }
	netTTS := func(profile string) string {
		s := m("netsweep/tts_s/" + profile)
		if s.zeroWidth() {
			return num(s.mean, 1) + " s (CI ±0)"
		}
		return num(s.mean, 1) + " s (" + num(s.lo, 1) + "–" + num(s.hi, 1) + ")"
	}
	raceTTS := func(margin string) string {
		s, ok := g["racemargin/tts_s/"+margin]
		if !ok { // no run shifted, so no time-to-shift sample
			return "—"
		}
		return num(s.mean, 1) + " s"
	}
	dnssecMin, dnssecMax := m("table5/dnssec_min_pct"), m("table5/dnssec_max_pct")

	cells := []campaignCell{
		{"Table II", "ntpd | P2", "64-seed campaign", minutes(m("table2/minutes/NTPd-P2"))},
		{"Table II", "ntpd | P1", "64-seed campaign", minutes(m("table2/minutes/NTPd-P1"))},
		{"Table II", "systemd-timesyncd | P1", "64-seed campaign", minutes(m("table2/minutes/systemd-timesyncd-P1"))},
		{"Table II", "chrony | P1", "64-seed campaign", minutes(m("table2/minutes/chrony-P1"))},
		{"Table III", "P1(n=1)", "64-seed campaign", meanCI("table3/p1_pct/m=1", 1, "%")},
		{"Table III", "P2(m=4)", "64-seed campaign", meanCI("table3/p2_pct/m=4", 1, "%")},
		{"Table III", "P1(m=6)", "64-seed campaign", meanCI("table3/p1_pct/m=6", 1, "%")},
		{"Table IV", "pool.ntp.org IN NS", "64-seed campaign", meanCI("table4/cached_pct/pool.ntp.org IN NS", 2, "")},
		{"Table IV", "pool.ntp.org IN A", "64-seed campaign", meanCI("table4/cached_pct/pool.ntp.org IN A", 2, "")},
		{"Table IV", "0.pool.ntp.org IN A", "64-seed campaign", meanCI("table4/cached_pct/0.pool.ntp.org IN A", 2, "")},
		{"Table V", "ALL tiny (68 B) %", "64-seed campaign", meanCI("table5/tiny_pct/ALL", 2, "")},
		{"Table V", "ALL any size %", "64-seed campaign", meanCI("table5/any_pct/ALL", 2, "")},
		{"Table V", "DNSSEC validation range", "64-seed campaign",
			num(dnssecMin.mean, 2) + "–" + num(dnssecMax.mean, 2) +
				" (CIs ±" + dnssecMin.halfWidth(1) + ", ±" + dnssecMax.halfWidth(1) + ")"},
		{"Figure 5", "CDF(292 B)", "64-seed campaign", meanCI("fig5/cdf_pct/292B", 2, "")},
		{"Figure 5", "CDF(548 B)", "64-seed campaign", meanCI("fig5/cdf_pct/548B", 2, "")},
		{"Figure 5", "fragmenting, no DNSSEC", "64-seed campaign", meanCI("fig5/frag_nodnssec_pct", 2, "")},
		{"§VII-A", "KoD senders", "64-seed campaign", meanCI("ratelimit/kod_pct", 2, "%")},
		{"§VII-A", "stopped replying", "64-seed campaign", meanCI("ratelimit/rate_limited_pct", 2, "%")},
		{"§VII-B", "fragment below 548 B", "64-seed campaign",
			num(m("nsfrag/frag_below_548").mean, 1) + " of " + num(m("nsfrag/total").mean, 0) +
				" (" + m("nsfrag/frag_below_548").ci(1) + ")"},
		{"§VII-B", "DNSSEC-signed", "64-seed campaign", meanCI("nsfrag/dnssec", 0, "")},
		{"§VI-C", "attack bound", "64-seed campaign", meanCI("chronos/bound", 0, "")},
		{"§VI-C", "N=5 run: clock shifted", "64-seed campaign",
			runsOf(m("chronos")) + " (CI " + num(m("chronos").lo, 1) + "–" + num(m("chronos").hi, 0) + "%)"},
		{"§VI-C", "N=5 run: pool size / evil", "64-seed campaign",
			num(m("chronos/pool_size").mean, 0) + " / " + num(m("chronos/evil_in_pool").mean, 0) +
				" (" + m("chronos/pool_size").ci(0) + ")"},
		{"§VIII-B3", "web only", "64-seed campaign", shared("web_only")},
		{"§VIII-B3", "web + SMTP", "64-seed campaign", shared("web_smtp")},
		{"§VIII-B3", "open |", "64-seed campaign", shared("open")},
		{"§VIII-B3", "open + SMTP", "64-seed campaign", shared("open_smtp")},
		{"§VIII-B3", "triggerable", "64-seed campaign", meanCI("shared/triggerable_pct", 2, "%")},
		{"Headline attacks", "boot-time shift (ntpd)", "64-seed campaign",
			num(m("boot/offset_s").mean, 0) + " s, " + runsOf(m("boot")) + " runs"},
		{"Headline attacks", "boot-time time-to-shift (ntpd)", "64-seed campaign", meanCI("boot/tts_s", 0, " s")},
		// No campaign metric counts planting rounds; the footnote says so.
		{"Headline attacks", "planting rounds per 150 s TTL", "64-seed campaign", "—¹"},
		{"Headline attacks", "run-time shift (ntpd, P1)", "64-seed campaign",
			num(m("runtime/offset_s").mean, 0) + " s, " + runsOf(m("runtime")) + " runs"},
		{"Headline attacks", "run-time duration (ntpd, P1)", "64-seed campaign", minutes(m("runtime/duration_s").scaled(1.0 / 60))},
	}
	for _, p := range []string{"lab", "lan", "wan", "transcontinental", "lossy-wifi", "congested"} {
		cells = append(cells,
			campaignCell{"Network-condition sweeps", p + " |", "shifted", pct(m("netsweep/shifted/" + p).mean)},
			campaignCell{"Network-condition sweeps", p + " |", "poisoning landed", pct(m("netsweep/poisoned/" + p).mean)},
			campaignCell{"Network-condition sweeps", p + " |", "mean tts (95% CI)", netTTS(p)})
	}
	for _, mg := range [][2]string{
		{"−8 s", "-8s"}, {"−4 s", "-4s"}, {"−2 s", "-2s"}, {"−1.5 s", "-1.5s"}, {"−1.2 s", "-1.2s"},
		{"−1.1 s", "-1.1s"}, {"−1 s", "-1s"}, {"−500 ms", "-500ms"}, {"0 s", "0s"}, {"+28 ms", "28ms"},
	} {
		cells = append(cells,
			campaignCell{"Race-margin sweeps", mg[0] + " |", "shifted (64 seeds)", pct(m("racemargin/shifted/" + mg[1]).mean)},
			campaignCell{"Race-margin sweeps", mg[0] + " |", "mean tts", raceTTS(mg[1])})
	}

	tts := func(client string) string { return num(m("table1/tts_s/"+client).mean, 0) + " s" }
	sntpMax := 0.0
	for _, c := range []string{"Android", "ntpdate", "ntpclient", "systemd-timesyncd"} {
		sntpMax = math.Max(sntpMax, m("table1/tts_s/"+c).mean)
	}
	sntp := "< 1 s"
	if sntpMax >= 1 {
		sntp = num(sntpMax, 0) + " s"
	}
	ttl, ttlMedian, ttlSamples := m("fig6/ttl_mean_s"), m("fig6/ttl_median_s"), m("fig6/ttl_samples")
	under, over := m("fig7/clamped_under"), m("fig7/clamped_over")
	probed, verified := m("table4/probed"), m("table4/verified")
	phrases := []campaignPhrase{
		{"Table I", "every client shifts in " + runsOf(m("table1")) + " boot-time runs (95% Wilson CI " +
			num(m("table1").lo, 1) + "–" + num(m("table1").hi, 0) + "%)"},
		{"Table I", "ntpd " + tts("NTPd") + ", chrony " + tts("chrony") + ", openntpd " + tts("openntpd") +
			", the four SNTP clients " + sntp},
		{"Table II", "All four attacks complete in " + runsOf(m("table2")) + " campaign runs"},
		{"Table IV", "(" + thousands(probed.mean) + " ± " + probed.halfWidth(0) + " probed, " +
			thousands(verified.mean) + " ± " + verified.halfWidth(0) + " verified per run)"},
		{"Figure 6", "mean remaining TTL " + num(ttl.mean, 2) + " s (" + ttl.ci(2) + "), median " +
			num(ttlMedian.mean, 2) + " s"},
		{"Figure 6", "over " + thousands(ttlSamples.mean) + " ± " + ttlSamples.halfWidth(0) + " cached samples per run"},
		{"Figure 7", num(under.mean, 1) + " samples below −50 ms (CI " + num(under.lo, 1) + "–" + num(under.hi, 1) +
			") and " + num(over.mean, 1) + " above 200 ms (" + over.ci(2) + ") of " +
			thousands(m("fig7/samples").mean) + " per run"},
		{"§VI-C", "spoofed 20 → N ≤ " + num(m("chronosbound/max_n/spoofed=20").mean, 0) +
			", 45 → N ≤ " + num(m("chronosbound/max_n/spoofed=45").mean, 0) +
			", 89 → N ≤ " + num(m("chronosbound/max_n/spoofed=89").mean, 0) +
			", 120 → N ≤ " + num(m("chronosbound/max_n/spoofed=120").mean, 0)},
	}

	// Every campaign cell of the document is mapped, and matches.
	matched := map[int]bool{}
	for prefix, cols := range campaignColumns {
		for _, table := range docTables(docSection(t, doc, prefix)) {
			for ci, col := range table.header {
				if !slices.Contains(cols, col) {
					continue
				}
				for _, row := range table.rows {
					key := strings.Join(row, " | ")
					found := false
					for i, c := range cells {
						if c.section != prefix || c.col != col || !strings.HasPrefix(key, c.row) {
							continue
						}
						found, matched[i] = true, true
						if ci >= len(row) || row[ci] != c.want {
							got := ""
							if ci < len(row) {
								got = row[ci]
							}
							t.Errorf("EXPERIMENTS.md %s, row %q, column %q: document says %q, %s renders %q",
								prefix, row[0], col, got, golden64, c.want)
						}
					}
					if !found {
						t.Errorf("EXPERIMENTS.md %s, row %q, column %q: campaign cell mapped to no golden aggregate",
							prefix, row[0], col)
					}
				}
			}
		}
	}
	for i, c := range cells {
		if !matched[i] {
			t.Errorf("mapped cell %s / %q / %q matches no row of EXPERIMENTS.md", c.section, c.row, c.col)
		}
	}
	// Every table column that quotes 64 seeds is a listed campaign column.
	for _, part := range strings.Split(doc, "\n## ")[1:] {
		for _, table := range docTables(part) {
			for _, col := range table.header {
				if !strings.Contains(col, "64") {
					continue
				}
				listed := false
				for prefix, cols := range campaignColumns {
					listed = listed || (inSection(part, prefix) && slices.Contains(cols, col))
				}
				if !listed {
					t.Errorf("EXPERIMENTS.md section %q: column %q is not a mapped campaign column",
						strings.SplitN(part, "\n", 2)[0], col)
				}
			}
		}
	}
	for _, p := range phrases {
		text := strings.Join(strings.Fields(docSection(t, doc, p.section)), " ")
		if !strings.Contains(text, p.want) {
			t.Errorf("EXPERIMENTS.md %s does not quote %s as rendered: %q", p.section, golden64, p.want)
		}
	}
}
