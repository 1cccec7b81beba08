// Command experiments regenerates every table and figure of the paper's
// evaluation and prints them in paper-like layout, runs parallel
// multi-seed campaigns over any registered scenario, and lists the
// scenario registry.
//
// Usage:
//
//	experiments [-seed N] [-only table3,fig5,...]
//	experiments campaigns [-seeds N] [-workers M] [-json] [-only boot,table4,...]
//	experiments campaigns -only boot [-param client=chrony] [-checkpoint f.jsonl]
//	experiments search -scenario racemargin [-lo -2s -hi 0s -resolution 100ms] [-target 0.5] [-state DIR] [-json]
//	experiments search -scenario racemargin -dim vic-net=lan,wan -dim client=ntpd,chrony [-prune-seeds 4] [-lhs N]
//	experiments scenarios [-markdown]
//	experiments serve [-addr HOST:PORT] [-workers M] [-queue N] [-state DIR] [-rate R -burst B] [-pprof]
//
// The default (no subcommand) is the single-seed paper reproduction:
// each section prints one run of the registered scenario of the same
// name, at the size the paper reports. The serve subcommand keeps the
// whole machinery resident behind an HTTP API —
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
	"dnstime/internal/analysis"
	"dnstime/internal/core"
	"dnstime/internal/measure"
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
	var only string
	fs := experimentsFlagSet(&seed, &only)
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
	if err := run(os.Stdout, seed, only); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// sections names the single-seed mode's -only sections in print order.
// Each is a registered scenario, rendered from one run of it. The flag's
// help text and its validation both derive from this one list.
var sections = []string{
	"table1", "table2", "table3", "table4", "fig6", "table5", "fig5", "fig7",
	"ratelimit", "nsfrag", "chronos", "shared",
}

// experimentsFlagSet declares the single-seed (no subcommand) flag
// surface. The README command checker parses documented commands against
// the same set.
func experimentsFlagSet(seed *int64, only *string) *flag.FlagSet {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.Int64Var(seed, "seed", 1, "deterministic seed for all experiments")
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

// run is the single-seed mode: it prints one scenario.Run of each
// selected section to w in the paper's layout. Tables I and II render the
// run's Metrics; every other section renders its Detail.
func run(w io.Writer, seed int64, only string) error {
	want, err := selectNames(only, sections, "section")
	if err != nil {
		return err
	}
	for _, name := range sections {
		if !want[name] {
			continue
		}
		res, err := dnstime.RunScenario(context.Background(), name, seed, dnstime.ScenarioConfig{})
		if err != nil {
			return err
		}
		switch name {
		case "table1":
			fmt.Fprintln(w, "== Table I: attack scenarios for popular NTP clients ==")
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
		case "table2":
			fmt.Fprintln(w, "== Table II: run-time attack duration (paper values in parentheses) ==")
			t := stats.NewTable("Client", "Scenario", "Measured", "Paper")
			for _, s := range core.TableIISpecs {
				t.AddRow(s.Profile.Name, s.Scenario.String(),
					fmt.Sprintf("%.0f minutes", res.Metrics[s.Metric()]),
					fmt.Sprintf("(%.0f minutes)", s.Paper.Minutes()))
			}
			fmt.Fprintln(w, t)
		case "table3":
			fmt.Fprintln(w, "== Table III: run-time attack success probabilities (p_rate = 38%) ==")
			t := stats.NewTable("m", "n", "P1(n) %", "P2(m,n) %")
			for _, r := range res.Detail.([]analysis.TableIIIRow) {
				t.AddRow(r.M, r.N, r.P1, r.P2)
			}
			fmt.Fprintln(w, t)
		case "table4":
			r := res.Detail.(measure.SnoopResult)
			fmt.Fprintln(w, "== Table IV: pool.ntp.org caching state in open resolvers ==")
			t := stats.NewTable("Query", "Cached %", "Cached", "Not Cached")
			for _, row := range r.Rows {
				t.AddRow(string(row.Record), row.CachedPct, row.Cached, row.NotCached)
			}
			fmt.Fprintln(w, t)
			fmt.Fprintf(w, "probed=%d verified=%d\n\n", r.Probed, r.Verified)
		case "fig6":
			fmt.Fprintln(w, "== Figure 6: TTL values of cached NTP pool records ==")
			fmt.Fprintln(w, res.Detail.(measure.SnoopResult).TTLHistogram().Render(50))
		case "table5":
			r := res.Detail.(measure.AdStudyResult)
			fmt.Fprintln(w, "== Table V: client resolver study using ads ==")
			fmt.Fprint(w, r.Render())
			fmt.Fprintf(w, "valid=%d filtered=%d google=%d  DNSSEC validation %.2f%%–%.2f%% (paper: 19.14%%–28.94%%)\n\n",
				r.ValidClients, r.Filtered, r.GoogleClients, r.DNSSECMinPct, r.DNSSECMaxPct)
		case "fig5":
			r := res.Detail.(measure.FragScanResult)
			fmt.Fprintln(w, "== Figure 5: CDF of min fragment sizes (1M-domain nameservers, no DNSSEC) ==")
			t := stats.NewTable("Min fragment size (bytes)", "cumulative fraction %")
			for _, pt := range r.MinSizes.Points([]float64{68, 292, 548, 1276, 1500}) {
				t.AddRow(int(pt[0]), 100*pt[1])
			}
			fmt.Fprintln(w, t)
			fmt.Fprintf(w, "fragmenting without DNSSEC: %.2f%% of domains (paper: 7.66%%)\n\n", r.FragNoDNSSECPct())
		case "fig7":
			h := res.Detail.(*stats.Histogram)
			fmt.Fprintln(w, "== Figure 7: latency difference t_first − t_avg (ms) ==")
			fmt.Fprintln(w, h.Render(50))
			fmt.Fprintf(w, "clamped tails: %d below −50 ms, %d above 200 ms\n\n", h.Under(), h.Over())
		case "ratelimit":
			r := res.Detail.(measure.RateLimitResult)
			fmt.Fprintf(w, "== §VII-A: rate limiting of %d pool.ntp.org NTP servers ==\n", r.Servers)
			fmt.Fprintf(w, "KoD senders:      %d (%.0f%%, paper: 33%%)\n", r.KoDSenders, r.KoDPct())
			fmt.Fprintf(w, "stopped replying: %d (%.0f%%, paper: 38%%)\n\n", r.RateLimited, r.RateLimitedPct())
		case "nsfrag":
			r := res.Detail.(measure.FragScanResult)
			fmt.Fprintln(w, "== §VII-B: fragmentation support of pool.ntp.org nameservers ==")
			fmt.Fprintf(w, "%d of %d nameservers fragment below 548 B (paper: 16 of 30); DNSSEC: %d (paper: 0)\n\n",
				r.FragBelow548, r.Total, r.DNSSEC)
		case "chronos":
			r := res.Detail.(core.ChronosResult)
			fmt.Fprintln(w, "== §VI-C: DNS poisoning attack against Chronos ==")
			fmt.Fprintf(w, "analytic bound: poisoning must land before query N ≤ %d (paper: 11)\n", r.Bound)
			fmt.Fprintf(w, "N=%d: pool=%d (evil %d), 2/3 control=%t, clock shifted=%t (offset %v)\n\n",
				r.N, r.PoolSize, r.EvilInPool, r.ControlsPool, r.Shifted, r.ClockOffset)
		case "shared":
			r := res.Detail.(measure.SharedResolverResult)
			fmt.Fprintln(w, "== §VIII-B3: shared DNS resolvers ==")
			fmt.Fprintf(w, "web only:      %d (%.1f%%, paper: 86.2%%)\n", r.WebOnly, 100*float64(r.WebOnly)/float64(r.Total))
			fmt.Fprintf(w, "web + SMTP:    %d (%.1f%%, paper: 11.3%%)\n", r.WebAndSMTP, 100*float64(r.WebAndSMTP)/float64(r.Total))
			fmt.Fprintf(w, "open:          %d (%.1f%%, paper: 2.3%%)\n", r.OpenOnly, 100*float64(r.OpenOnly)/float64(r.Total))
			fmt.Fprintf(w, "open + SMTP:   %d (%.1f%%, paper: 0.2%%)\n", r.OpenAndSMTP, 100*float64(r.OpenAndSMTP)/float64(r.Total))
			fmt.Fprintf(w, "triggerable:   %d (%.1f%%, paper: 13.8%%)\n\n", r.Triggerable(), r.TriggerablePct())
		}
	}
	return nil
}
