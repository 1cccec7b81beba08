package main

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json compare reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// loadBenchmark reads BENCHMARK.json from the working directory (the
// repository root, where run.sh runs) or its parent (bench/, where the
// tests run).
func loadBenchmark() (benchmarkSpec, error) {
	var spec benchmarkSpec
	var data []byte
	var err error
	for _, path := range []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")} {
		if data, err = os.ReadFile(path); err == nil {
			break
		}
	}
	if err != nil {
		return spec, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

// loadRuns reads every run file (-o output) in dir.
func loadRuns(dir string) ([]runFile, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("%s: no run files: %w", dir, fs.ErrNotExist)
	}
	sort.Strings(paths)
	runs := make([]runFile, 0, len(paths))
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rf runFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		runs = append(runs, rf)
	}
	return runs, nil
}

func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare <dirA> <dirB>")
		return 2
	}
	spec, err := loadBenchmark()
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	var sides [2][]runFile
	for i, dir := range args {
		if sides[i], err = loadRuns(dir); err != nil {
			fmt.Fprintln(stderr, "bench compare:", err)
			return 2
		}
	}
	lines, v := compareRuns(spec, sides[0], sides[1])
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	fmt.Fprintf(stdout, "%d regression(s), %d unresolved, %d other problem(s): A=%s B=%s\n",
		v.regressions, v.unresolved, v.other, args[0], args[1])
	if v.regressions+v.unresolved+v.other > 0 {
		return 1
	}
	return 0
}

// verdicts counts what compareRuns flagged: regressions past a bound,
// metrics too noisy to judge, and other problems (failed runs, missing
// metrics, work-count mismatches).
type verdicts struct {
	regressions, unresolved, other int
}

// compareRuns reports, per workload, each metric's median and quartiles
// on both sides. An end-to-end metric whose B median is worse than A's by
// more than its bound is a regression; one whose own spread (interquartile
// range over median) on either side exceeds the bound is unresolved,
// unless every B run reads better than every A run. A change beyond both
// sides' spreads but within the bound is reported as slower, not counted. Work counts must be
// identical across every traced run of the same seed. Per-layer metrics
// are reported without a verdict.
func compareRuns(spec benchmarkSpec, a, b []runFile) (lines []string, v verdicts) {
	flag := func(format string, args ...any) {
		v.other++
		lines = append(lines, "  "+fmt.Sprintf(format, args...))
	}
	for _, p := range provenanceDiffs(a, b) {
		lines = append(lines, "warning: "+p)
	}
	for _, w := range spec.Workloads {
		untracedA, untracedB := selectRuns(a, w.Name, false), selectRuns(b, w.Name, false)
		tracedA, tracedB := selectRuns(a, w.Name, true), selectRuns(b, w.Name, true)
		if len(untracedA)+len(untracedB)+len(tracedA)+len(tracedB) == 0 {
			continue
		}
		lines = append(lines, fmt.Sprintf("%s: A %d runs (+%d traced), B %d runs (+%d traced)",
			w.Name, len(untracedA), len(tracedA), len(untracedB), len(tracedB)))
		for _, side := range [][]runFile{untracedA, untracedB, tracedA, tracedB} {
			for _, rf := range side {
				if !rf.Correct || rf.Failed > 0 {
					flag("run at seed %d: %d of %d operations failed", rf.Provenance.Seed, rf.Failed, rf.Attempted)
				}
			}
		}
		if len(untracedA) == 0 || len(untracedB) == 0 {
			flag("end-to-end runs missing on one side")
		} else {
			for _, m := range spec.EndToEnd {
				va, vb := values(untracedA, m.Name), values(untracedB, m.Name)
				if len(va) != len(untracedA) || len(vb) != len(untracedB) {
					flag("%-16s missing from some runs", m.Name)
					continue
				}
				qa, qb := quartiles(va), quartiles(vb)
				worse := (qb[1] - qa[1]) / qa[1]
				if m.Better == "higher" {
					worse = -worse
				}
				verdict := "ok"
				switch {
				case spread(qa) > m.Bound || spread(qb) > m.Bound:
					verdict = "unresolved"
					if allBetter(va, vb, m.Better == "higher") {
						verdict = "better"
					}
				case worse > m.Bound:
					verdict = "REGRESSION"
				case worse > max(spread(qa), spread(qb)):
					verdict = "slower, within bound"
				}
				switch verdict {
				case "REGRESSION":
					v.regressions++
				case "unresolved":
					v.unresolved++
				}
				lines = append(lines, fmt.Sprintf("  %-16s A %s  B %s  worse by %+6.1f%%  bound %2.0f%%  %s",
					m.Name, fmtQ(qa), fmtQ(qb), 100*worse, 100*m.Bound, verdict))
			}
		}
		for _, m := range spec.PerLayer {
			va, vb := values(tracedA, m.Name), values(tracedB, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			qa, qb := quartiles(va), quartiles(vb)
			lines = append(lines, fmt.Sprintf("  %-40s A %s  B %s  %s", m.Name, fmtQ(qa), fmtQ(qb), m.Unit))
		}
		for _, msg := range workMismatches(append(append([]runFile(nil), tracedA...), tracedB...)) {
			flag("%s", msg)
		}
	}
	return lines, v
}

func selectRuns(runs []runFile, workload string, traced bool) []runFile {
	var out []runFile
	for _, rf := range runs {
		if rf.Provenance.Workload == workload && rf.Provenance.Trace == traced {
			out = append(out, rf)
		}
	}
	return out
}

func values(runs []runFile, name string) []float64 {
	var out []float64
	for _, rf := range runs {
		if m, ok := rf.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// workMismatches reports every work count that differs between traced
// runs of the same seed: the counts are deterministic, so any difference
// means the program did different work.
func workMismatches(runs []runFile) []string {
	first := map[string]float64{}
	var out []string
	for _, rf := range runs {
		names := make([]string, 0, len(rf.Metrics))
		for name := range rf.Metrics {
			if strings.HasPrefix(name, "work.") {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			key := fmt.Sprintf("seed %d %s", rf.Provenance.Seed, name)
			v := rf.Metrics[name].Value
			if want, ok := first[key]; !ok {
				first[key] = v
			} else if v != want {
				out = append(out, fmt.Sprintf("%s: %v, another run counted %v", key, v, want))
			}
		}
	}
	return out
}

// provenanceDiffs lists host and toolchain differences between the sides.
func provenanceDiffs(a, b []runFile) []string {
	describe := func(runs []runFile) map[string]bool {
		out := map[string]bool{}
		for _, rf := range runs {
			p := rf.Provenance
			out[fmt.Sprintf("nproc=%d gomaxprocs=%d %s seconds=%g", p.NProc, p.GoMaxProcs, p.GoVersion, p.Seconds)] = true
		}
		return out
	}
	da, db := describe(a), describe(b)
	var out []string
	for k := range da {
		if !db[k] {
			out = append(out, "only A ran at "+k)
		}
	}
	for k := range db {
		if !da[k] {
			out = append(out, "only B ran at "+k)
		}
	}
	sort.Strings(out)
	return out
}

// quartiles returns the first quartile, median and third quartile of xs,
// as Python's statistics.quantiles(xs, n=4) (the exclusive method) and
// statistics.median compute them.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	med := s[n/2]
	if n%2 == 0 {
		med = (s[n/2-1] + s[n/2]) / 2
	}
	if n < 2 {
		return [3]float64{med, med, med}
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return [3]float64{q(1), med, q(3)}
}

// spread is the interquartile range as a share of the median.
func spread(q [3]float64) float64 {
	if q[1] == 0 {
		return math.Inf(1)
	}
	return math.Abs(q[2]-q[0]) / math.Abs(q[1])
}

// allBetter reports whether every B value beats every A value.
func allBetter(a, b []float64, higher bool) bool {
	if higher {
		return slices.Min(b) > slices.Max(a)
	}
	return slices.Max(b) < slices.Min(a)
}

func fmtQ(q [3]float64) string {
	return fmt.Sprintf("%.4g [%.4g–%.4g]", q[1], q[0], q[2])
}
