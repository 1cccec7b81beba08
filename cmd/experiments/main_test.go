package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dnstime"
)

// TestRunDefaultGolden pins every byte of the single-seed output at seed
// 1: the paper-layout tables and figures. After an intended change of
// output, regenerate the file from the repository root with
//
//	go run ./cmd/experiments > cmd/experiments/testdata/default-seed1.golden
func TestRunDefaultGolden(t *testing.T) {
	const golden = "default-seed1.golden"
	t.Run(golden, func(t *testing.T) {
		want, err := os.ReadFile("testdata/" + golden)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := run(&got, 1, ""); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("output differs from testdata/%s:\n%s", golden, got.String())
		}
	})
}

// TestRunCampaigns64Golden pins every byte of the 64-seed full-population
// JSON aggregates of all registered scenarios — the campaign columns
// EXPERIMENTS.md quotes. The output is identical at any -workers count.
// After an intended change of output, regenerate the file from the
// repository root with
//
//	go run ./cmd/experiments campaigns -seeds 64 -json -q > cmd/experiments/testdata/campaigns-64.golden
func TestRunCampaigns64Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("64-seed full-population campaign of every scenario in -short mode")
	}
	want, err := os.ReadFile("testdata/campaigns-64.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := runCampaigns(context.Background(), []string{"-seeds", "64", "-json", "-q"}, &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("campaign aggregates differ from testdata/campaigns-64.golden:\n%s", got.String())
	}
}

// TestRunRejectsPositional: the single-seed mode refuses a leftover
// positional argument (a misspelt subcommand) instead of dropping the
// flags after it and printing the full paper run; the error names the
// argument and lists the subcommands.
func TestRunRejectsPositional(t *testing.T) {
	for _, argv := range [][]string{
		{"campaign", "-seeds", "2"},
		{"tabel1"},
	} {
		checkRejectsPositional(t, argv)
	}
}

// TestRunBenchBadArgs: the retired bench subcommand is refused like any
// other stray argument, whatever flags follow it, instead of running the
// paper reproduction with those flags dropped; the README checker
// refuses a documented bench command too. The benchmark is bench/.
func TestRunBenchBadArgs(t *testing.T) {
	for _, argv := range [][]string{
		{"bench", "-seeds", "16"},
		{"bench", "-compare", "old.json", "-in", "new.json"},
		{"bench", "-only", "sundial"},
		{"-seed", "2", "bench", "-seeds", "0"},
	} {
		checkRejectsPositional(t, argv)
		cmd := "experiments " + strings.Join(argv, " ")
		if err := checkExperimentsCommand(cmd, argv); err == nil {
			t.Errorf("README checker accepts %q", cmd)
		}
	}
}

// TestRunFastIsFlagError: every scenario runs at the one size the paper
// reports, so -fast is a flag error in each CLI mode, refused before any
// run instead of being ignored.
func TestRunFastIsFlagError(t *testing.T) {
	const want = "flag provided but not defined: -fast"
	var seed int64
	var only string
	fs := experimentsFlagSet(&seed, &only)
	fs.SetOutput(io.Discard)
	var out bytes.Buffer
	for mode, err := range map[string]error{
		"experiments": fs.Parse([]string{"-fast", "-only", "table1"}),
		"campaigns": runCampaigns(context.Background(),
			[]string{"-only", "boot", "-seeds", "1", "-fast", "-q"}, &out),
		"search": runSearch(context.Background(),
			[]string{"-scenario", "racemargin", "-seeds", "1", "-fast", "-q"}, &out),
	} {
		if err == nil || err.Error() != want {
			t.Errorf("%s -fast: err = %v, want %q", mode, err, want)
		}
	}
	if out.Len() != 0 {
		t.Errorf("printed output before refusing -fast:\n%s", out.String())
	}
}

// checkRejectsPositional parses argv with the single-seed flag set and
// requires noPositional to refuse it, naming the stray argument and
// listing the subcommands.
func checkRejectsPositional(t *testing.T, argv []string) {
	t.Helper()
	var seed int64
	var only string
	fs := experimentsFlagSet(&seed, &only)
	if err := fs.Parse(argv); err != nil {
		t.Fatalf("%v: %v", argv, err)
	}
	err := noPositional(fs)
	if err == nil {
		t.Errorf("%v: positional argument accepted", argv)
		return
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("%q", fs.Arg(0))) || !strings.Contains(err.Error(), strings.Join(subcommands, ", ")) {
		t.Errorf("%v: error does not name the argument and list the subcommands: %v", argv, err)
	}
}

// TestRunOnlyUnknownSection: a misspelt -only section, or a list that
// names none, is an error naming it and listing the valid sections, not a
// silent empty run.
func TestRunOnlyUnknownSection(t *testing.T) {
	for only, named := range map[string]string{
		"table3,tabel1": `"tabel1"`,
		",":             `","`,
		" , ":           `" , "`,
	} {
		var out bytes.Buffer
		err := run(&out, 1, only)
		if err == nil {
			t.Errorf("-only %q accepted", only)
			continue
		}
		if !strings.Contains(err.Error(), named) || !strings.Contains(err.Error(), strings.Join(sections, ", ")) {
			t.Errorf("-only %q: error does not name %s and list the valid sections: %v", only, named, err)
		}
		if out.Len() != 0 {
			t.Errorf("-only %q: printed output before rejecting the selection:\n%s", only, out.String())
		}
	}
}

// TestScenarioCLIColumn ties the registry's "Single-run CLI" column (the
// DESIGN.md §4 index) to the single-seed sections: a scenario with a
// section names `experiments -only <name>`, every other one a one-seed
// campaign.
func TestScenarioCLIColumn(t *testing.T) {
	for _, sc := range dnstime.Scenarios() {
		want := "experiments campaigns -only " + sc.Name + " -seeds 1"
		if slices.Contains(sections, sc.Name) {
			want = "experiments -only " + sc.Name
		}
		if sc.CLI != want {
			t.Errorf("%s: CLI = %q, want %q", sc.Name, sc.CLI, want)
		}
	}
}

// TestRunOnlyFig6: Figure 6 renders on its own from one fig6 run, without
// the Table IV block, and matches the golden's rendering.
func TestRunOnlyFig6(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out, 1, "fig6"); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "== Figure 6:") || strings.Contains(out.String(), "Table IV") {
		t.Fatalf("-only fig6 output:\n%s", out.String())
	}
	golden, err := os.ReadFile("testdata/default-seed1.golden")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(golden, out.Bytes()) {
		t.Errorf("-only fig6 output is not the full run's Figure 6 block:\n%s", out.String())
	}
}

// TestRunCampaignsTable1 smoke-tests the campaigns subcommand and checks
// its rendered output names every client profile (the table1 scenario
// keys its metrics by client).
func TestRunCampaignsTable1(t *testing.T) {
	var out bytes.Buffer
	err := runCampaigns(context.Background(), []string{"-seeds", "4", "-workers", "8", "-only", "table1", "-q"}, &out)
	if err != nil {
		t.Fatalf("runCampaigns: %v", err)
	}
	for _, client := range []string{"NTPd", "chrony", "openntpd", "ntpdate", "Android", "ntpclient", "systemd-timesyncd"} {
		if !strings.Contains(out.String(), client) {
			t.Errorf("campaign output missing client %q:\n%s", client, out.String())
		}
	}
}

// TestRunCampaignsDeterministicForEveryScenario is the acceptance
// criterion at the CLI level: for every registered scenario,
// `experiments campaigns -only <name>` emits byte-identical output
// (including per-seed results) at -workers 1 and -workers 8.
func TestRunCampaignsDeterministicForEveryScenario(t *testing.T) {
	for _, name := range dnstime.ScenarioNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			render := func(workers string) string {
				var out bytes.Buffer
				err := runCampaigns(context.Background(), []string{
					"-seeds", "2", "-workers", workers,
					"-only", name, "-json", "-perrun", "-q",
				}, &out)
				if err != nil {
					t.Fatal(err)
				}
				return out.String()
			}
			if a, b := render("1"), render("8"); a != b {
				t.Errorf("output differs between -workers 1 and -workers 8:\n%s\nvs\n%s", a, b)
			}
		})
	}
}

// TestRunCampaignsAllScenariosByDefault: with no -only, the campaigns
// subcommand covers the whole registry in paper order.
func TestRunCampaignsAllScenariosByDefault(t *testing.T) {
	names, err := selectScenarios("")
	if err != nil {
		t.Fatal(err)
	}
	all := dnstime.ScenarioNames()
	if len(names) != len(all) {
		t.Fatalf("default selection = %v, want every registered scenario %v", names, all)
	}
	for i := range all {
		if names[i] != all[i] {
			t.Fatalf("default selection out of paper order: %v vs %v", names, all)
		}
	}
}

// TestRunCampaignsUnknownScenario: an unknown -only scenario, or a list
// that names none, is an error naming it and listing the registry.
func TestRunCampaignsUnknownScenario(t *testing.T) {
	for _, only := range []string{"sundial", ",", " , "} {
		err := runCampaigns(context.Background(), []string{"-only", only, "-json", "-q"}, io.Discard)
		if err == nil {
			t.Errorf("-only %q accepted", only)
			continue
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("%q", only)) || !strings.Contains(err.Error(), strings.Join(dnstime.ScenarioNames(), ", ")) {
			t.Errorf("-only %q: error does not name it and list the registry: %v", only, err)
		}
	}
}

func TestRunCampaignsBadSeeds(t *testing.T) {
	for _, seeds := range []string{"0", "-3"} {
		if err := runCampaigns(context.Background(), []string{"-seeds", seeds}, nil); err == nil {
			t.Errorf("-seeds %s accepted", seeds)
		}
	}
	// A positional argument is almost always a forgotten -only; silently
	// ignoring it would run the entire registry.
	if err := runCampaigns(context.Background(), []string{"table4"}, nil); err == nil {
		t.Error("positional argument accepted")
	}
}

// TestRunCampaignsSeedZero: the Engine distinguishes an explicit -seed 0
// from the unset default, so campaign seed 0 is requestable (it used to
// be rejected because the old option struct could not express it).
func TestRunCampaignsSeedZero(t *testing.T) {
	var out bytes.Buffer
	err := runCampaigns(context.Background(), []string{
		"-seed", "0", "-seeds", "2", "-only", "boot", "-json", "-perrun", "-q",
	}, &out)
	if err != nil {
		t.Fatalf("runCampaigns -seed 0: %v", err)
	}
	if !strings.Contains(out.String(), `"base_seed": 0`) {
		t.Errorf("output does not echo base seed 0:\n%s", out.String())
	}
	if !strings.Contains(out.String(), `"seed": 0`) {
		t.Errorf("no per-run result for seed 0:\n%s", out.String())
	}
}

// TestRunScenariosListsRegistry: the scenarios subcommand lists every
// registered scenario by name.
func TestRunScenariosListsRegistry(t *testing.T) {
	var out bytes.Buffer
	if err := runScenarios(nil, &out); err != nil {
		t.Fatal(err)
	}
	for _, name := range dnstime.ScenarioNames() {
		if !strings.Contains(out.String(), name) {
			t.Errorf("scenario listing missing %q:\n%s", name, out.String())
		}
	}
}

// TestRunScenariosMarkdown: -markdown emits exactly the registry index
// DESIGN.md embeds.
func TestRunScenariosMarkdown(t *testing.T) {
	var out bytes.Buffer
	if err := runScenarios([]string{"-markdown"}, &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != dnstime.ScenarioIndexMarkdown() {
		t.Errorf("scenarios -markdown differs from ScenarioIndexMarkdown:\n%s", out.String())
	}
}

// TestReadmeCommandsParse extracts every `$ ...` command from README.md's
// code blocks and checks the experiments invocations against the real
// flag sets (and their -only lists against the registry), so documented
// commands cannot drift from the CLI.
func TestReadmeCommandsParse(t *testing.T) {
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	cmds := shellCommands(string(data))
	if len(cmds) == 0 {
		t.Fatal("no `$ ...` commands found in README.md code blocks")
	}
	sawExperiments := false
	for _, cmd := range cmds {
		args := strings.Fields(cmd)
		var err error
		switch args[0] {
		case "git", "cd", "curl", "kill", "bash":
			// Other binaries (and setup lines, like the serve walkthrough's
			// curl session) are out of this checker's scope.
		case "go":
			if len(args) >= 3 && args[1] == "run" && strings.HasSuffix(args[2], "cmd/experiments") {
				sawExperiments = true
				err = checkExperimentsCommand(cmd, args[3:])
			}
		case "experiments":
			sawExperiments = true
			err = checkExperimentsCommand(cmd, args[1:])
		default:
			t.Errorf("README documents unknown command %q", cmd)
		}
		if err != nil {
			t.Errorf("README command %q does not parse: %v", cmd, err)
		}
	}
	if !sawExperiments {
		t.Error("README documents no experiments commands")
	}
}

// TestCheckExperimentsCommandStale: a documented command for a subcommand
// that does not exist fails the README checker instead of parsing as the
// single-seed mode with its flags silently dropped.
func TestCheckExperimentsCommandStale(t *testing.T) {
	for _, cmd := range []string{
		"experiments campaign -seeds 2",
		"experiments tabel1",
	} {
		if err := checkExperimentsCommand(cmd, strings.Fields(cmd)[1:]); err == nil {
			t.Errorf("stale command %q parses", cmd)
		}
	}
	if err := checkExperimentsCommand("experiments -only table1", []string{"-only", "table1"}); err != nil {
		t.Errorf("valid single-seed command rejected: %v", err)
	}
}

// checkExperimentsCommand parses one documented experiments invocation
// with the CLI's own flag sets. Syntax summaries (lines with [optional]
// brackets or | alternatives) are skipped — only literal commands must
// parse.
func checkExperimentsCommand(cmd string, args []string) error {
	if strings.ContainsAny(cmd, "[|<>") {
		return nil
	}
	quietly := func(fs *flag.FlagSet) *flag.FlagSet {
		fs.SetOutput(io.Discard)
		return fs
	}
	var err error
	switch {
	case len(args) > 0 && args[0] == "campaigns":
		var cfg campaignConfig
		err = quietly(campaignFlagSet(&cfg)).Parse(args[1:])
		if err == nil {
			_, err = selectScenarios(cfg.only)
		}
	case len(args) > 0 && args[0] == "search":
		var cfg searchConfig
		err = quietly(searchFlagSet(&cfg)).Parse(args[1:])
		if err == nil && cfg.scenarioName != "" {
			if _, ok := dnstime.LookupScenario(cfg.scenarioName); !ok {
				err = fmt.Errorf("unknown scenario %q", cfg.scenarioName)
			}
		}
	case len(args) > 0 && args[0] == "scenarios":
		var markdown bool
		err = quietly(scenariosFlagSet(&markdown)).Parse(args[1:])
	case len(args) > 0 && args[0] == "serve":
		var cfg serveConfig
		err = quietly(serveFlagSet(&cfg)).Parse(args[1:])
	default:
		var seed int64
		var only string
		fs := quietly(experimentsFlagSet(&seed, &only))
		err = fs.Parse(args)
		if err == nil {
			err = noPositional(fs)
		}
		if err == nil {
			_, err = selectNames(only, sections, "section")
		}
	}
	return err
}

// shellCommands returns the `$ `-prefixed commands inside fenced code
// blocks, with trailing-backslash continuations joined.
func shellCommands(markdown string) []string {
	var cmds []string
	inFence := false
	cont := ""
	for _, line := range strings.Split(markdown, "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "```") {
			inFence = !inFence
			continue
		}
		if !inFence {
			continue
		}
		switch {
		case cont != "":
			joined := cont + " " + strings.TrimSpace(strings.TrimSuffix(trimmed, "\\"))
			if strings.HasSuffix(trimmed, "\\") {
				cont = joined
			} else {
				cmds = append(cmds, joined)
				cont = ""
			}
		case strings.HasPrefix(trimmed, "$ "):
			cmd := strings.TrimPrefix(trimmed, "$ ")
			if strings.HasSuffix(cmd, "\\") {
				cont = strings.TrimSpace(strings.TrimSuffix(cmd, "\\"))
			} else {
				cmds = append(cmds, cmd)
			}
		}
	}
	return cmds
}

// TestRunCampaignsParam: a -param override reaches the runs — a boot
// campaign at a −123 s target shift must report exactly that offset in
// its aggregate (the default campaign lands at −500 s).
func TestRunCampaignsParam(t *testing.T) {
	var out bytes.Buffer
	err := runCampaigns(context.Background(), []string{
		"-seeds", "2", "-only", "boot", "-param", "offset=-123s", "-q",
	}, &out)
	if err != nil {
		t.Fatalf("runCampaigns -param offset=-123s: %v", err)
	}
	if !strings.Contains(out.String(), "-123.00") {
		t.Errorf("offset_s metric does not reflect the -123 s param:\n%s", out.String())
	}
}

// TestRunCampaignsNetParamDeterministic: link randomness (loss bursts,
// latency jitter, reordering from a netem profile) derives from the
// campaign seed, never from worker scheduling — so a network-condition
// campaign is byte-identical at -workers 1 and -workers 8, per-seed
// results included.
func TestRunCampaignsNetParamDeterministic(t *testing.T) {
	for _, argv := range [][]string{
		{"-only", "boot", "-param", "net=lossy-wifi"},
		{"-only", "boot", "-param", "net=congested", "-param", "loss=0.05"},
		{"-only", "chronos", "-param", "net=transcontinental"},
		// Asymmetric role-based topologies: per-directed-link stateful
		// loss (cli-net=lossy-wifi) and the preset sweepers must stay
		// byte-identical across worker counts too.
		{"-only", "boot", "-param", "topo=near-attacker", "-param", "cli-net=lossy-wifi"},
		{"-only", "chronos", "-param", "topo=colo", "-param", "atk-net=lan"},
		{"-only", "racemargin", "-param", "vic-net=lossy-wifi"},
	} {
		argv := argv
		t.Run(strings.Join(argv, " "), func(t *testing.T) {
			t.Parallel()
			render := func(workers string) string {
				var out bytes.Buffer
				args := append([]string{"-seeds", "4", "-workers", workers, "-json", "-perrun", "-q"}, argv...)
				if err := runCampaigns(context.Background(), args, &out); err != nil {
					t.Fatal(err)
				}
				return out.String()
			}
			if a, b := render("1"), render("8"); a != b {
				t.Errorf("output differs between -workers 1 and -workers 8:\n%s\nvs\n%s", a, b)
			}
		})
	}
}

// TestRunCampaignsNetsweep: the netsweep campaign reports one success
// metric per netem profile — the per-profile success-rate table.
func TestRunCampaignsNetsweep(t *testing.T) {
	var out bytes.Buffer
	err := runCampaigns(context.Background(), []string{
		"-seeds", "2", "-only", "netsweep", "-q",
	}, &out)
	if err != nil {
		t.Fatalf("runCampaigns -only netsweep: %v", err)
	}
	for _, profile := range []string{"lab", "lan", "wan", "transcontinental", "lossy-wifi", "congested"} {
		if !strings.Contains(out.String(), "shifted/"+profile) {
			t.Errorf("netsweep output missing profile %q:\n%s", profile, out.String())
		}
	}
}

// TestRunCampaignsBadNetParam: an unknown netem profile, topology
// preset, client profile or run-time scenario (in runtime or netsweep),
// or a malformed override,
// is a per-run error, surfaced in the aggregate's error count (param
// *keys* are validated before the campaign; values are interpreted by the
// scenario's runs).
func TestRunCampaignsBadNetParam(t *testing.T) {
	for name, argv := range map[string][]string{
		"unknown profile":  {"-only", "boot", "-param", "net=dialup", "-seeds", "1"},
		"unknown preset":   {"-only", "boot", "-param", "topo=backbone", "-seeds", "1"},
		"unknown client":   {"-only", "boot", "-client", "swatch", "-seeds", "1"},
		"unknown scenario": {"-only", "runtime", "-param", "scenario=P3", "-seeds", "1"},
		"netsweep unknown scenario": {
			"-only", "netsweep", "-param", "attack=runtime", "-param", "scenario=P3", "-seeds", "1"},
		"loss not a rate":  {"-only", "boot", "-param", "loss=2", "-seeds", "1"},
		"loss at sentinel": {"-only", "boot", "-param", "loss=-1", "-seeds", "1"},
		"rtt not a time":   {"-only", "boot", "-param", "rtt=fast", "-seeds", "1"},
	} {
		var out bytes.Buffer
		err := runCampaigns(context.Background(), argv, &out)
		if err == nil && !strings.Contains(out.String(), "errors 1") {
			t.Errorf("%s: run accepted without errors (argv %v):\n%s", name, argv, out.String())
		}
	}
}

// TestRunCampaignsTopoUniformByteIdentical is the tentpole's
// compatibility acceptance at the CLI level: a default-config campaign
// (no topology) and the same campaign under `topo=uniform` emit
// byte-identical per-seed results and aggregates at any worker count —
// the global Path really is the topology's uniform special case.
func TestRunCampaignsTopoUniformByteIdentical(t *testing.T) {
	render := func(workers string, params ...string) string {
		t.Helper()
		var out bytes.Buffer
		argv := append([]string{"-seeds", "4", "-workers", workers, "-only", "boot", "-json", "-perrun", "-q"}, params...)
		if err := runCampaigns(context.Background(), argv, &out); err != nil {
			t.Fatal(err)
		}
		// The -json envelope echoes the params; only the scenario
		// aggregates must match byte for byte.
		var doc campaignOutput
		if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		aggs, err := json.Marshal(doc.Scenarios)
		if err != nil {
			t.Fatal(err)
		}
		return string(aggs)
	}
	plain := render("1")
	for _, workers := range []string{"1", "8"} {
		if under := render(workers, "-param", "topo=uniform"); under != plain {
			t.Errorf("topo=uniform at -workers %s differs from the default campaign:\n%s\nvs\n%s",
				workers, under, plain)
		}
	}
}

// TestRunCampaignsTopoParam: a topology param reaches the runs — the
// netsweep topology axis reports preset-qualified metrics under
// topo=all, and an unknown preset is a per-run error.
func TestRunCampaignsTopoParam(t *testing.T) {
	var out bytes.Buffer
	err := runCampaigns(context.Background(), []string{
		"-seeds", "2", "-only", "netsweep", "-param", "topo=all", "-q",
	}, &out)
	if err != nil {
		t.Fatalf("netsweep topo=all: %v", err)
	}
	for _, key := range []string{"shifted/near-attacker/wan", "shifted/colo/lab", "shifted/far-attacker/congested"} {
		if !strings.Contains(out.String(), key) {
			t.Errorf("netsweep topo=all output missing %q:\n%s", key, out.String())
		}
	}
	// Param *keys* are validated up front; an unknown preset *value* is a
	// per-run error surfaced in the aggregate's error count.
	out.Reset()
	err = runCampaigns(context.Background(), []string{
		"-seeds", "1", "-only", "boot", "-param", "topo=backbone", "-q",
	}, &out)
	if err != nil {
		t.Fatalf("topo=backbone aborted the campaign instead of counting a per-run error: %v", err)
	}
	if !strings.Contains(out.String(), "errors 1") {
		t.Errorf("unknown preset not counted as a per-run error:\n%s", out.String())
	}
}

// TestRunCampaignsClientFlag: -client is shorthand for -param client=...
// (the parametrisation the campaigns CLI used to lack).
func TestRunCampaignsClientFlag(t *testing.T) {
	var out bytes.Buffer
	err := runCampaigns(context.Background(), []string{
		"-seeds", "2", "-only", "boot", "-client", "chrony", "-q",
	}, &out)
	if err != nil {
		t.Fatalf("runCampaigns -client chrony: %v", err)
	}
	if !strings.Contains(out.String(), "2/2 succeeded") {
		t.Errorf("chrony boot campaign output:\n%s", out.String())
	}
}

// TestRunCampaignsParamValidation: the param surface fails fast — on
// malformed pairs, on multi-scenario selections, on keys the scenario
// does not declare, and on -client colliding with -param client=.
func TestRunCampaignsParamValidation(t *testing.T) {
	cases := map[string][]string{
		"param without -only":      {"-param", "client=chrony"},
		"param with two scenarios": {"-only", "boot,chronos", "-param", "N=9"},
		"malformed pair":           {"-only", "boot", "-param", "client"},
		"undeclared key":           {"-only", "boot", "-param", "clinet=x", "-seeds", "1"},
		"param on no-param scenario": {
			"-only", "table4", "-param", "client=x", "-seeds", "1"},
		"client twice":             {"-only", "boot", "-client", "ntpd", "-param", "client=chrony"},
		"checkpoint without -only": {"-checkpoint", "x.jsonl"},
	}
	for name, argv := range cases {
		if err := runCampaigns(context.Background(), argv, io.Discard); err == nil {
			t.Errorf("%s: accepted (argv %v)", name, argv)
		}
	}
}

// TestRunCampaignsCheckpointResume: a checkpointed prefix campaign,
// rerun over more seeds with the same -checkpoint, emits byte-identical
// -json output to one uninterrupted run.
func TestRunCampaignsCheckpointResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "boot.jsonl")
	render := func(argv ...string) string {
		t.Helper()
		var out bytes.Buffer
		argv = append(argv, "-only", "boot", "-json", "-perrun", "-q")
		if err := runCampaigns(context.Background(), argv, &out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	full := render("-seeds", "4")
	// Prefix run: seeds 1–2 recorded in the checkpoint.
	render("-seeds", "2", "-checkpoint", path)
	resumed := render("-seeds", "4", "-checkpoint", path)
	if resumed != full {
		t.Errorf("resumed output differs from uninterrupted run:\n%s\nvs\n%s", resumed, full)
	}
}

// TestRunCampaignsCheckpointNoOverwrite: rerunning a checkpointed
// campaign never overwrites its file. A rerun over fewer seeds leaves it
// byte-identical (every seed it needs is recorded, so none executes), a
// run for another scenario or param set is refused and leaves it
// byte-identical, and a rerun over more seeds appends to it.
func TestRunCampaignsCheckpointNoOverwrite(t *testing.T) {
	path := filepath.Join(t.TempDir(), "b.jsonl")
	argv := func(seeds string, extra ...string) []string {
		return append([]string{"-seeds", seeds, "-checkpoint", path, "-q"}, extra...)
	}
	if err := runCampaigns(context.Background(), argv("4", "-only", "boot"), io.Discard); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	unchanged := func(what string) {
		t.Helper()
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
			t.Errorf("%s changed the checkpoint (read err %v):\n%s\nwant:\n%s", what, err, after, before)
		}
	}
	if err := runCampaigns(context.Background(), argv("2", "-only", "boot"), io.Discard); err != nil {
		t.Fatalf("rerun over fewer seeds: %v", err)
	}
	unchanged("rerun over fewer seeds")
	for name, extra := range map[string][]string{
		"other scenario": {"-only", "runtime"},
		"param":          {"-only", "boot", "-client", "chrony"},
	} {
		if err := runCampaigns(context.Background(), argv("4", extra...), io.Discard); err == nil {
			t.Errorf("%s: checkpoint for another campaign accepted", name)
		}
		unchanged(name)
	}
	if err := runCampaigns(context.Background(), argv("6", "-only", "boot"), io.Discard); err != nil {
		t.Fatalf("rerun over more seeds: %v", err)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.HasPrefix(after, before) || len(after) == len(before) {
		t.Errorf("rerun over more seeds did not extend the checkpoint (read err %v):\n%s", err, after)
	}
}

// TestRunCampaignsInterrupted: a cancelled context (the CLI wires SIGINT
// to it) drains cleanly, prints the aggregate marked partial, and reports
// the interruption with a resume hint.
func TestRunCampaignsInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	var out bytes.Buffer
	err := runCampaigns(ctx, []string{
		"-seeds", "4", "-only", "boot", "-checkpoint", path, "-q",
	}, &out)
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("err = %v, want interruption report", err)
	}
	if !strings.Contains(err.Error(), "rerun with -checkpoint "+path+" to resume") {
		t.Errorf("interruption report lacks resume hint: %v", err)
	}
	if !strings.Contains(out.String(), "partial") {
		t.Errorf("partial aggregate not rendered:\n%s", out.String())
	}
}
