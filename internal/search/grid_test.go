package search

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"dnstime/internal/scenario"
)

// TestGridSweep: a full product over the step oracle classifies every
// cell by its side of the threshold, and cells arrive in canonical
// order regardless of dimension order.
func TestGridSweep(t *testing.T) {
	oracleThreshold.Store(500000)
	dims := []Dim{
		{Key: "x", Values: []string{"0.2", "0.8"}},
		{Key: "mode", Values: []string{"a", "b"}},
	}
	res, err := Grid(context.Background(), dims, GridOptions{
		Options: Options{Scenario: "t-search-step", Seeds: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 || res.Dropped != 0 {
		t.Fatalf("cells = %d (dropped %d), want the full 2×2 product", len(res.Cells), res.Dropped)
	}
	for i, c := range res.Cells {
		if want := c.Params["x"] == "0.8"; c.Success != want {
			t.Errorf("cell %v: success=%t, want %t", c.Params, c.Success, want)
		}
		if c.Runs != 4 {
			t.Errorf("cell %v: %d runs, want 4", c.Params, c.Runs)
		}
		if i > 0 && cellKey(res.Cells[i-1].Params) >= cellKey(c.Params) {
			t.Errorf("cells out of canonical order at %d: %v after %v", i, c.Params, res.Cells[i-1].Params)
		}
	}
}

// TestGridPruning: with staged seeds, cells whose prune-stage Wilson
// interval already excludes the target stop at PruneSeeds runs, while
// undecided cells extend to the full campaign over distinct seeds.
func TestGridPruning(t *testing.T) {
	oracleThreshold.Store(500000)
	dims := []Dim{{Key: "x", Values: []string{"0.1", "0.9"}}}
	run := func(target float64) GridResult {
		t.Helper()
		res, err := Grid(context.Background(), dims, GridOptions{
			Options:    Options{Scenario: "t-search-step", Seeds: 16, Target: target},
			PruneSeeds: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// At target 0.5 both all-fail and all-success cells are decided by
	// 4 seeds (Wilson 0/4 tops out below 0.5; 4/4 bottoms out above).
	res := run(0.5)
	if res.PrunedCells != 2 {
		t.Fatalf("pruned %d cells, want 2: %+v", res.PrunedCells, res.Cells)
	}
	for _, c := range res.Cells {
		want := "above"
		if c.Params["x"] == "0.1" {
			want = "below"
		}
		if c.Pruned != want || c.Runs != 4 {
			t.Errorf("cell %v: pruned=%q runs=%d, want %q at 4 runs", c.Params, c.Pruned, c.Runs, want)
		}
	}

	// At target 0.9, 4/4 successes (CI ≈ [0.51, 1]) cannot exclude the
	// target, so the success cell extends to all 16 seeds.
	res = run(0.9)
	for _, c := range res.Cells {
		switch c.Params["x"] {
		case "0.1":
			if c.Pruned != "below" || c.Runs != 4 {
				t.Errorf("fail cell not pruned: %+v", c)
			}
		case "0.9":
			if c.Pruned != "" || c.Runs != 16 || c.Successes != 16 {
				t.Errorf("undecided cell did not extend: %+v", c)
			}
		}
	}
}

// TestGridPruneStagesShareCheckpoint: the prune and extension stages
// are distinct probe campaigns (different seed ranges, so different
// JobSpec keys) in one state directory, so a resumed sweep re-runs
// neither.
func TestGridPruneStagesShareCheckpoint(t *testing.T) {
	oracleThreshold.Store(500000)
	dir := t.TempDir()
	dims := []Dim{{Key: "x", Values: []string{"0.9"}}}
	opt := GridOptions{
		Options:    Options{Scenario: "t-search-step", Seeds: 16, Target: 0.9, StateDir: dir},
		PruneSeeds: 4,
	}
	res, err := Grid(context.Background(), dims, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(res)
	x := scenario.Params{"x": "0.9"}
	for _, path := range []string{probePath(t, dir, x, 4, 1), probePath(t, dir, x, 12, 5)} {
		if _, err := os.Stat(path); err != nil {
			t.Errorf("stage checkpoint missing: %v", err)
		}
	}
	before := oracleRuns.Load()
	res2, err := Grid(context.Background(), dims, opt)
	if err != nil {
		t.Fatal(err)
	}
	if n := oracleRuns.Load() - before; n != 0 {
		t.Errorf("resumed sweep executed %d runs, want 0", n)
	}
	if got, _ := json.Marshal(res2); string(got) != string(want) {
		t.Errorf("resumed sweep differs:\n%s\nvs\n%s", got, want)
	}
	if !res2.Cells[0].Cached {
		t.Error("fully resumed cell not marked cached")
	}
}

// TestGridLatinSample: subsampling is deterministic, respects the cell
// budget, and still covers every value of every dimension (the point of
// Latin-hypercube over a truncated product).
func TestGridLatinSample(t *testing.T) {
	dims := []Dim{
		{Key: "x", Values: []string{"0.1", "0.3", "0.5", "0.7", "0.9"}},
		{Key: "mode", Values: []string{"a", "b", "c", "d", "e"}},
	}
	first := latinSample(dims, 5)
	if len(first) > 5 {
		t.Fatalf("latinSample(5) returned %d cells", len(first))
	}
	for _, d := range dims {
		seen := map[string]bool{}
		for _, c := range first {
			seen[c[d.Key]] = true
		}
		if len(seen) != len(d.Values) {
			t.Errorf("dimension %s covers %d/%d values: %v", d.Key, len(seen), len(d.Values), first)
		}
	}
	if again := latinSample(dims, 5); !reflect.DeepEqual(first, again) {
		t.Errorf("latinSample not deterministic:\n%v\nvs\n%v", first, again)
	}

	oracleThreshold.Store(500000)
	res, err := Grid(context.Background(), dims, GridOptions{
		Options: Options{Scenario: "t-search-step", Seeds: 2},
		Samples: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) > 5 || res.Dropped != 25-len(res.Cells) {
		t.Errorf("sampled sweep: %d cells, dropped %d", len(res.Cells), res.Dropped)
	}
}

// TestGridDeterministicAcrossWorkers: the marshalled sweep is
// byte-identical at any probe worker count.
func TestGridDeterministicAcrossWorkers(t *testing.T) {
	oracleThreshold.Store(500000)
	dims := []Dim{
		{Key: "x", Values: []string{"0.3", "0.7"}},
		{Key: "mode", Values: []string{"a", "b"}},
	}
	marshal := func(workers int) string {
		res, err := Grid(context.Background(), dims, GridOptions{
			Options: Options{Scenario: "t-search-step", Seeds: 8, Workers: workers,
				Params: scenario.Params{"spread": "0.3"}},
			PruneSeeds: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	serial := marshal(1)
	if parallel := marshal(4); parallel != serial {
		t.Errorf("workers=4 output differs from workers=1:\n%s\nvs\n%s", parallel, serial)
	}
}

// TestGridRejectsBadDims: dimension validation fails before any run.
func TestGridRejectsBadDims(t *testing.T) {
	opt := GridOptions{Options: Options{Scenario: "t-search-step"}}
	fixed := opt
	fixed.Params = scenario.Params{"mode": "a"}
	cases := map[string]struct {
		dims []Dim
		opt  GridOptions
	}{
		"no dims":         {nil, opt},
		"empty key":       {[]Dim{{Values: []string{"1"}}}, opt},
		"key with equals": {[]Dim{{Key: "a=b", Values: []string{"1"}}}, opt},
		"no values":       {[]Dim{{Key: "x"}}, opt},
		"duplicate dim":   {[]Dim{{Key: "x", Values: []string{"1"}}, {Key: "x", Values: []string{"2"}}}, opt},
		"duplicate value": {[]Dim{{Key: "x", Values: []string{"1", "1"}}}, opt},
		"fixed collision": {[]Dim{{Key: "mode", Values: []string{"a"}}}, fixed},
	}
	for name, c := range cases {
		if _, err := Grid(context.Background(), c.dims, c.opt); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
