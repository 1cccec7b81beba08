package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dnstime"
)

// TestRunSearchRacemargin is the subsystem's acceptance criterion: the
// default racemargin search must land on the committed collapse bracket
// (EXPERIMENTS.md pins the threshold between −1.2s and −1.1s) within
// the ⌈log₂(bracket/resolution)⌉ = 5 probe budget, with byte-identical
// JSON at -workers 1 and -workers 4.
func TestRunSearchRacemargin(t *testing.T) {
	run := func(workers string) dnstime.SearchBisectResult {
		t.Helper()
		var out bytes.Buffer
		err := runSearch(context.Background(),
			[]string{"-scenario", "racemargin", "-workers", workers, "-json", "-q"}, &out)
		if err != nil {
			t.Fatal(err)
		}
		var res dnstime.SearchBisectResult
		if err := json.Unmarshal(out.Bytes(), &res); err != nil {
			t.Fatalf("search output is not JSON: %v\n%s", err, out.String())
		}
		return res
	}
	res := run("4")
	if res.Lo != "-1.2s" || res.Hi != "-1.1s" {
		t.Errorf("bracket (%s, %s], want (-1.2s, -1.1s]", res.Lo, res.Hi)
	}
	if res.Budget != 5 || len(res.Probes) > res.Budget {
		t.Errorf("%d probes against budget %d, want ≤5", len(res.Probes), res.Budget)
	}
	b4, _ := json.Marshal(res)
	b1, _ := json.Marshal(run("1"))
	if string(b1) != string(b4) {
		t.Errorf("-workers 1 and -workers 4 outputs differ:\n%s\nvs\n%s", b1, b4)
	}
}

// TestRunSearchGridCLI smoke-tests grid mode end to end: a margin ×
// client matrix over racemargin with staged pruning.
func TestRunSearchGridCLI(t *testing.T) {
	var out bytes.Buffer
	err := runSearch(context.Background(), []string{
		"-scenario", "racemargin",
		"-dim", "margin=-8s,28ms",
		"-dim", "client=ntpd,chrony",
		"-seeds", "4", "-prune-seeds", "2", "-json", "-q",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	var res dnstime.SearchGridResult
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatalf("grid output is not JSON: %v\n%s", err, out.String())
	}
	if len(res.Cells) != 4 {
		t.Fatalf("%d cells, want the 2×2 product", len(res.Cells))
	}
	for _, c := range res.Cells {
		// At −8s the attacker can never finish planting; at +28 ms the
		// near-attacker preset wins outright.
		if want := c.Params["margin"] == "28ms"; c.Success != want {
			t.Errorf("cell %v: success=%t, want %t", c.Params, c.Success, want)
		}
	}
}

// TestRunSearchTextOutput: the human rendering names the bracket and
// one row per probe.
func TestRunSearchTextOutput(t *testing.T) {
	var out bytes.Buffer
	err := runSearch(context.Background(), []string{
		"-scenario", "racemargin",
		"-lo", "-8s", "-hi", "0s", "-resolution", "4s",
		"-seeds", "2", "-q",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if s := out.String(); !strings.Contains(s, "collapse threshold inside (-4s, 0s]") {
		t.Errorf("text output lacks the bracket line:\n%s", s)
	}
}

// TestRunSearchStateDir: -state keeps one Engine checkpoint per probe,
// named by the probe's JobSpec key (here at an explicit -seed 0), and a
// second run over the directory prints byte-identical JSON.
func TestRunSearchStateDir(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-scenario", "racemargin", "-lo", "-8s", "-hi", "0s", "-resolution", "2s",
		"-seeds", "2", "-seed", "0", "-state", dir, "-json", "-q"}
	run := func() string {
		t.Helper()
		var out bytes.Buffer
		if err := runSearch(context.Background(), args, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	first := run()
	var res dnstime.SearchBisectResult
	if err := json.Unmarshal([]byte(first), &res); err != nil {
		t.Fatalf("search output is not JSON: %v\n%s", err, first)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(res.Probes) {
		t.Errorf("%d files in the state directory for %d probes: %v", len(files), len(res.Probes), files)
	}
	zero := int64(0)
	for _, p := range res.Probes {
		key, err := dnstime.CampaignJobSpec{Scenario: "racemargin", Seeds: 2, BaseSeed: &zero,
			Params: dnstime.ScenarioParams{"margin": p.Value}}.Key()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(dir, key+".jsonl")); err != nil {
			t.Errorf("probe %s: no checkpoint at its base-seed-0 JobSpec key: %v", p.Value, err)
		}
	}
	if again := run(); again != first {
		t.Errorf("rerun over the state directory differs:\n%s\nvs\n%s", again, first)
	}
}

// TestRunSearchErrors: flag-surface misuse fails before any campaign.
func TestRunSearchErrors(t *testing.T) {
	cases := map[string][]string{
		"no scenario":        {"-json"},
		"unknown scenario":   {"-scenario", "sundial"},
		"positional":         {"-scenario", "racemargin", "stray"},
		"zero seeds":         {"-scenario", "racemargin", "-seeds", "0"},
		"lhs without dim":    {"-scenario", "racemargin", "-lhs", "4"},
		"prune without dim":  {"-scenario", "racemargin", "-prune-seeds", "4"},
		"no built-in axis":   {"-scenario", "boot"},
		"bad dim":            {"-scenario", "racemargin", "-dim", "margins"},
		"bad lo":             {"-scenario", "racemargin", "-lo", "soon", "-hi", "0s", "-resolution", "1s"},
		"kind needs bracket": {"-scenario", "racemargin", "-kind", "fraction"},
		"bad target":         {"-scenario", "racemargin", "-target", "1.5", "-lo", "-2s", "-hi", "0s", "-resolution", "1s"},
		"client conflict":    {"-scenario", "racemargin", "-client", "ntpd", "-param", "client=chrony"},
	}
	for name, args := range cases {
		var out bytes.Buffer
		if err := runSearch(context.Background(), args, &out); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
