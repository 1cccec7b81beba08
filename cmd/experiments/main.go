// Command experiments regenerates every table and figure of the paper's
// evaluation and prints them in paper-like layout, runs parallel
// multi-seed campaigns over any registered scenario, and lists the
// scenario registry.
//
// Usage:
//
//	experiments [-seed N] [-fast] [-only table3,fig5,...]
//	experiments campaigns [-seeds N] [-workers M] [-json] [-fast] [-only boot,table4,...]
//	experiments campaigns -only boot [-param client=chrony] [-checkpoint f.jsonl]
//	experiments search -scenario racemargin [-lo -2s -hi 0s -resolution 100ms] [-target 0.5] [-state DIR] [-json]
//	experiments search -scenario racemargin -dim vic-net=lan,wan -dim client=ntpd,chrony [-prune-seeds 4] [-lhs N]
//	experiments scenarios [-markdown]
//	experiments serve [-addr HOST:PORT] [-workers M] [-queue N] [-state DIR] [-rate R -burst B] [-pprof]
//
// The default (no subcommand) is the original single-seed paper
// reproduction; -fast skips Table II's four full run-time attacks and
// shrinks the §VII-A rate-limit scan from 2432 servers to 300. The serve
// subcommand keeps the whole machinery resident behind an HTTP API —
// queued campaigns, streamed JSONL results, a content-addressed aggregate
// cache and graceful drain (DESIGN.md §11).
//
// The campaigns subcommand fans each selected scenario out across -seeds
// independent seeds on -workers workers (default GOMAXPROCS) through the campaign
// Engine and prints aggregate statistics; output is identical at any
// worker count. Parameterisable scenarios take `-param key=value`
// overrides (`-client` is shorthand for `-param client=...`); with
// `-checkpoint f.jsonl` the engine records each completed seed, so an
// interrupted campaign (SIGINT drains the workers and prints the partial
// aggregate) is picked up by rerunning the same command, which skips the
// recorded seeds. Network conditions are params too:
// `-param net=<profile>` runs a scenario's labs over a netem path model
// (lan, wan, transcontinental, lossy-wifi, congested — DESIGN.md §8),
// with `-param rtt=...`/`-param loss=...` scalar overrides; `-param
// topo=<preset>` (with `-param atk-net=...`/`-param cli-net=...`
// per-side profiles) positions the attacker on a role-based topology
// instead (DESIGN.md §9). The search subcommand drives campaigns
// adaptively (DESIGN.md §13): by default it bisects a scenario's
// monotone success-vs-parameter axis to its collapse threshold in
// O(log) probe campaigns, and with repeated -dim flags it sweeps a
// parameter grid, pruning cells whose Wilson interval already excludes
// the -target success rate. The scenarios subcommand lists the registry
// (-markdown emits the DESIGN.md §4 experiment index).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"dnstime"
	"dnstime/internal/core"
	"dnstime/internal/stats"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "campaigns" {
		// SIGINT/SIGTERM cancel the engine context: workers drain and the
		// partial aggregate is printed. The signal hook is released as
		// soon as the context cancels, so a second signal gets default
		// handling (hard kill) instead of being swallowed during the
		// drain.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		context.AfterFunc(ctx, stop)
		err := runCampaigns(ctx, os.Args[2:], os.Stdout)
		stop()
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments campaigns:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "search" {
		// Same signal wiring as campaigns: SIGINT/SIGTERM cancel the
		// probe campaigns; with -state every completed seed is already
		// in its probe's checkpoint for a rerun to resume.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		context.AfterFunc(ctx, stop)
		err := runSearch(ctx, os.Args[2:], os.Stdout)
		stop()
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments search:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "scenarios" {
		if err := runScenarios(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "experiments scenarios:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		// SIGINT/SIGTERM trigger the graceful drain: submissions refused,
		// the running campaign checkpointed for resumption, streams
		// terminated with their partial aggregates.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		err := runServe(ctx, os.Args[2:], os.Stdout)
		stop()
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments serve:", err)
			os.Exit(1)
		}
		return
	}
	var seed int64
	var fast bool
	var only string
	fs := experimentsFlagSet(&seed, &fast, &only)
	if err := fs.Parse(os.Args[1:]); err != nil {
		if err == flag.ErrHelp {
			os.Exit(0)
		}
		os.Exit(2)
	}
	if err := noPositional(fs); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	if err := run(os.Stdout, seed, fast, only); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// sections names the single-seed mode's -only sections. The flag's help
// text and its validation both derive from this one list.
var sections = []string{
	"table1", "table2", "table3", "table4", "table5", "fig5", "fig6", "fig7",
	"ratelimit", "nsfrag", "chronos", "shared",
}

// experimentsFlagSet declares the single-seed (no subcommand) flag
// surface. The README command checker parses documented commands against
// the same set.
func experimentsFlagSet(seed *int64, fast *bool, only *string) *flag.FlagSet {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.Int64Var(seed, "seed", 1, "deterministic seed for all experiments")
	fs.BoolVar(fast, "fast", false, "skip Table II and shrink the §VII-A rate-limit scan to 300 servers")
	fs.StringVar(only, "only", "", "comma-separated subset: "+strings.Join(sections, ","))
	return fs
}

// subcommands names the modes main dispatches on its first argument.
var subcommands = []string{"campaigns", "search", "scenarios", "serve"}

// noPositional rejects a positional argument left over by the single-seed
// flag set. Flag parsing stops at the first non-flag, so a misspelt
// subcommand ("campaign", "tabel1") would otherwise drop every flag after
// it and print the whole paper run.
func noPositional(fs *flag.FlagSet) error {
	if fs.NArg() == 0 {
		return nil
	}
	return fmt.Errorf("unexpected argument %q (subcommands: %s)", fs.Arg(0), strings.Join(subcommands, ", "))
}

// run is the single-seed mode: it prints the selected sections to w in
// the paper's layout.
func run(w io.Writer, seed int64, fast bool, only string) error {
	want, err := selectNames(only, sections, "section")
	if err != nil {
		return err
	}
	labCfg := dnstime.LabConfig{Seed: seed}

	// Tables I and II render one run of their registered scenarios.
	if want["table1"] {
		fmt.Fprintln(w, "== Table I: attack scenarios for popular NTP clients ==")
		res, err := dnstime.RunScenario(context.Background(), "table1", seed, dnstime.ScenarioConfig{})
		if err != nil {
			return err
		}
		t := stats.NewTable("Client", "pool usage %", "boot-time", "run-time")
		for _, pu := range dnstime.AllProfiles() {
			usage := fmt.Sprintf("%.1f", pu.UsagePct)
			if pu.UsagePct == 0 {
				usage = "not listed"
			}
			boot := core.No
			if res.Metrics["boot/"+pu.Profile.Name] == 1 {
				boot = core.Yes
			}
			t.AddRow(pu.Profile.Name, usage, boot.String(), core.RuntimeApplicability(pu.Profile).String())
		}
		fmt.Fprintln(w, t)
	}

	if want["table2"] && !fast {
		fmt.Fprintln(w, "== Table II: run-time attack duration (paper values in parentheses) ==")
		res, err := dnstime.RunScenario(context.Background(), "table2", seed, dnstime.ScenarioConfig{})
		if err != nil {
			return err
		}
		t := stats.NewTable("Client", "Scenario", "Measured", "Paper")
		for _, s := range core.TableIISpecs {
			t.AddRow(s.Profile.Name, s.Scenario.String(),
				fmt.Sprintf("%.0f minutes", res.Metrics[s.Metric()]),
				fmt.Sprintf("(%.0f minutes)", s.Paper.Minutes()))
		}
		fmt.Fprintln(w, t)
	}

	if want["table3"] {
		fmt.Fprintln(w, "== Table III: run-time attack success probabilities (p_rate = 38%) ==")
		t := stats.NewTable("m", "n", "P1(n) %", "P2(m,n) %")
		for _, r := range dnstime.TableIII(dnstime.DefaultPRate) {
			t.AddRow(r.M, r.N, r.P1, r.P2)
		}
		fmt.Fprintln(w, t)
	}

	// Table IV and Figure 6 render one cache-snooping result.
	if want["table4"] || want["fig6"] {
		res := dnstime.SnoopOpenResolvers(dnstime.DefaultOpenResolverConfig(), seed+11)
		if want["table4"] {
			fmt.Fprintln(w, "== Table IV: pool.ntp.org caching state in open resolvers ==")
			t := stats.NewTable("Query", "Cached %", "Cached", "Not Cached")
			for _, row := range res.Rows {
				t.AddRow(string(row.Record), row.CachedPct, row.Cached, row.NotCached)
			}
			fmt.Fprintln(w, t)
			fmt.Fprintf(w, "probed=%d verified=%d\n\n", res.Probed, res.Verified)
		}
		if want["fig6"] {
			fmt.Fprintln(w, "== Figure 6: TTL values of cached NTP pool records ==")
			fmt.Fprintln(w, res.TTLHistogram().Render(50))
		}
	}

	if want["table5"] {
		fmt.Fprintln(w, "== Table V: client resolver study using ads ==")
		clients := dnstime.GenerateAdClients(dnstime.DefaultAdStudyConfig(), seed+9)
		res := dnstime.AdStudy(clients)
		fmt.Fprint(w, res.Render())
		fmt.Fprintf(w, "valid=%d filtered=%d google=%d  DNSSEC validation %.2f%%–%.2f%% (paper: 19.14%%–28.94%%)\n\n",
			res.ValidClients, res.Filtered, res.GoogleClients, res.DNSSECMinPct, res.DNSSECMaxPct)
	}

	if want["fig5"] {
		fmt.Fprintln(w, "== Figure 5: CDF of min fragment sizes (1M-domain nameservers, no DNSSEC) ==")
		specs := dnstime.GenerateDomainNameservers(dnstime.DefaultDomainNameserverConfig(), seed+5)
		res := dnstime.FragScan(specs, nil)
		t := stats.NewTable("Min fragment size (bytes)", "cumulative fraction %")
		for _, pt := range res.MinSizes.Points([]float64{68, 292, 548, 1276, 1500}) {
			t.AddRow(int(pt[0]), 100*pt[1])
		}
		fmt.Fprintln(w, t)
		fmt.Fprintf(w, "fragmenting without DNSSEC: %.2f%% of domains (paper: 7.66%%)\n\n", res.FragNoDNSSECPct())
	}

	if want["fig7"] {
		fmt.Fprintln(w, "== Figure 7: latency difference t_first − t_avg (ms) ==")
		res := dnstime.TimingSideChannel(dnstime.DefaultTimingProbeConfig(), seed+17)
		h := res.Histogram()
		fmt.Fprintln(w, h.Render(50))
		fmt.Fprintf(w, "clamped tails: %d below −50 ms, %d above 200 ms\n\n", h.Under(), h.Over())
	}

	if want["ratelimit"] {
		cfg := dnstime.DefaultPoolConfig()
		if fast {
			cfg.Servers = 300
		}
		fmt.Fprintf(w, "== §VII-A: rate limiting of %d pool.ntp.org NTP servers ==\n", cfg.Servers)
		specs := dnstime.GeneratePool(cfg, seed+42)
		res, err := dnstime.RateLimitScan(specs, dnstime.DefaultScanConfig())
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "KoD senders:      %d (%.0f%%, paper: 33%%)\n", res.KoDSenders, res.KoDPct())
		fmt.Fprintf(w, "stopped replying: %d (%.0f%%, paper: 38%%)\n\n", res.RateLimited, res.RateLimitedPct())
	}

	if want["nsfrag"] {
		fmt.Fprintln(w, "== §VII-B: fragmentation support of pool.ntp.org nameservers ==")
		specs := dnstime.GeneratePoolNameservers(dnstime.DefaultPoolNameserverConfig(), seed+3)
		res := dnstime.FragScan(specs, nil)
		fmt.Fprintf(w, "%d of %d nameservers fragment below 548 B (paper: 16 of 30); DNSSEC: %d (paper: 0)\n\n",
			res.FragBelow548, res.Total, res.DNSSEC)
	}

	if want["chronos"] {
		fmt.Fprintln(w, "== §VI-C: DNS poisoning attack against Chronos ==")
		fmt.Fprintf(w, "analytic bound: poisoning must land before query N ≤ %d (paper: 11)\n",
			dnstime.ChronosAttackBound(4, 89))
		res, err := dnstime.RunChronosAttack(5, 89, labCfg)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "N=%d: pool=%d (evil %d), 2/3 control=%t, clock shifted=%t (offset %v)\n\n",
			res.N, res.PoolSize, res.EvilInPool, res.ControlsPool, res.Shifted, res.ClockOffset)
	}

	if want["shared"] {
		fmt.Fprintln(w, "== §VIII-B3: shared DNS resolvers ==")
		res := dnstime.SharedResolverStudy(dnstime.GenerateSharedResolvers(dnstime.DefaultSharedResolverConfig(), seed+21))
		fmt.Fprintf(w, "web only:      %d (%.1f%%, paper: 86.2%%)\n", res.WebOnly, 100*float64(res.WebOnly)/float64(res.Total))
		fmt.Fprintf(w, "web + SMTP:    %d (%.1f%%, paper: 11.3%%)\n", res.WebAndSMTP, 100*float64(res.WebAndSMTP)/float64(res.Total))
		fmt.Fprintf(w, "open:          %d (%.1f%%, paper: 2.3%%)\n", res.OpenOnly, 100*float64(res.OpenOnly)/float64(res.Total))
		fmt.Fprintf(w, "open + SMTP:   %d (%.1f%%, paper: 0.2%%)\n", res.OpenAndSMTP, 100*float64(res.OpenAndSMTP)/float64(res.Total))
		fmt.Fprintf(w, "triggerable:   %d (%.1f%%, paper: 13.8%%)\n\n", res.Triggerable(), res.TriggerablePct())
	}
	return nil
}
