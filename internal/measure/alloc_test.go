package measure

import (
	"context"
	"runtime"
	"testing"

	"dnstime/internal/population"
	"dnstime/internal/scenario"
)

// Committed heap budgets for the open-resolver snoop. table4 and fig6
// snoop a default-size population (200 000 resolvers) per seed;
// SnoopOpenResolvers counts it as it is drawn (population's tally) and
// CacheSnoop folds a stored population, and both count Figure 6's TTLs
// by value, so a call allocates only its result (151 TTL counts and six
// rows) and, for the draw, its decisions and the tally: about 1.9 KB and
// 2.4 KB, 1.9 KB and 3.6 KB under -race. The draw's Source is on the
// stack. These gates pin that contract: keeping the ≈27 500 TTL samples
// instead costs about 1.2 MB per call, storing the population about
// 17.7 MB, and a Source on the heap or a privately seeded math/rand
// source 4.9 KB.
const (
	heapBudgetSnoop      = 2560    // bytes per default-size SnoopOpenResolvers call
	heapBudgetCacheSnoop = 4 << 10 // bytes per default-size CacheSnoop call
)

// Committed heap budget for the §VII-A scan. RateLimitScan builds one
// live NTP server per behaviour class (at most six), so a default-size
// call allocates about 17 KB; building a host and server per pool server
// costs about 4.5 MB.
const heapBudgetRateLimitScan = 256 << 10 // bytes per default-size RateLimitScan call

// Committed heap budgets for the fig5, table5, shared and fig7 scenarios,
// one default-size seed each: 100 000 domain nameservers, 8 014 ad
// clients, 18 668 resolvers and 20 000 timing probes. Each folds its
// population as it is drawn and keeps only the result, so a seed
// allocates the fold's counters and its metrics map: about 0.9 KB,
// 3.4 KB and 0.3 KB, 1.3 KB, 3.4 KB and 0.3 KB under -race, from a Source
// on the stack. fig7 draws with math/rand's NormFloat64 through
// rand.New, which keeps its Source on the heap, so a seed allocates that
// Source, the Rand and Figure 7's 50-bin histogram: about 6.1 KB. Figure 5's CDF holds one count per
// probe size. Storing the populations cost 2.66 MB, 458 KB, 63 KB and
// 160 KB per seed, a Source on the heap or a privately seeded math/rand
// source 4.9 KB more, and keeping fig5's ≈7 700 samples 61 KB or more.
const (
	heapBudgetFig5   = 2560    // bytes per default-size fig5 seed
	heapBudgetTableV = 4608    // bytes per table5 seed
	heapBudgetShared = 512     // bytes per shared seed
	heapBudgetFig7   = 8 << 10 // bytes per fig7 seed
)

// heapCalls is how many calls a heap gate measures, after one warm-up
// call: a gated call allocates the same bytes every time, so a handful
// gives its exact figure without timing a benchmark.
const heapCalls = 4

// heapGate fails when call allocates more than budget bytes per call,
// read from runtime.MemStats.TotalAlloc over heapCalls calls after one
// warm-up call, which leaves out anything a first call sets up once.
func heapGate(t *testing.T, name string, budget uint64, call func() error) {
	t.Helper()
	if err := call(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range heapCalls {
		if err := call(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	got := (after.TotalAlloc - before.TotalAlloc) / heapCalls
	if got > budget {
		t.Errorf("%s allocates %d bytes per default-size call, budget %d", name, got, budget)
	}
	t.Logf("%s: %d bytes per call, budget %d", name, got, budget)
}

// benchCall times call, reporting its allocations.
func benchCall(b *testing.B, call func() error) {
	b.ReportAllocs()
	for b.Loop() {
		if err := call(); err != nil {
			b.Fatal(err)
		}
	}
}

// rateLimitScan returns a call that scans the ratelimit scenario's first
// pool: the default size at seed 43 (campaign seed 1 plus the scenario's
// +42).
func rateLimitScan() func() error {
	specs := population.GeneratePool(population.DefaultPoolConfig(), 43)
	cfg := DefaultScanConfig()
	return func() error {
		_, err := RateLimitScan(specs, cfg)
		return err
	}
}

// snoopOpenResolvers returns a call that draws and snoops a default-size
// open-resolver population, as table4 and fig6 do.
func snoopOpenResolvers() func() error {
	cfg := population.DefaultOpenResolverConfig()
	return func() error {
		SnoopOpenResolvers(cfg, 11)
		return nil
	}
}

// cacheSnoop returns a call that snoops a stored default-size
// open-resolver population.
func cacheSnoop() func() error {
	specs := population.GenerateOpenResolvers(population.DefaultOpenResolverConfig(), 11)
	return func() error {
		CacheSnoop(specs)
		return nil
	}
}

// scenarioSeed returns a call that runs one scenario at campaign seed 1
// and default size.
func scenarioSeed(run func(context.Context, int64, scenario.Config) (scenario.Result, error)) func() error {
	return func() error {
		_, err := run(context.Background(), 1, scenario.Config{})
		return err
	}
}

func TestHeapBudgetRateLimitScan(t *testing.T) {
	heapGate(t, "RateLimitScan", heapBudgetRateLimitScan, rateLimitScan())
}

func TestHeapBudgetSnoopOpenResolvers(t *testing.T) {
	heapGate(t, "SnoopOpenResolvers", heapBudgetSnoop, snoopOpenResolvers())
}

func TestHeapBudgetCacheSnoop(t *testing.T) {
	heapGate(t, "CacheSnoop", heapBudgetCacheSnoop, cacheSnoop())
}

func TestHeapBudgetFig5Scenario(t *testing.T) {
	heapGate(t, "fig5 seed", heapBudgetFig5, scenarioSeed(fig5Scenario))
}

func TestHeapBudgetTableVScenario(t *testing.T) {
	heapGate(t, "table5 seed", heapBudgetTableV, scenarioSeed(tableVScenario))
}

func TestHeapBudgetSharedScenario(t *testing.T) {
	heapGate(t, "shared seed", heapBudgetShared, scenarioSeed(sharedScenario))
}

func TestHeapBudgetFig7Scenario(t *testing.T) {
	heapGate(t, "fig7 seed", heapBudgetFig7, scenarioSeed(fig7Scenario))
}

func BenchmarkRateLimitScan(b *testing.B)      { benchCall(b, rateLimitScan()) }
func BenchmarkSnoopOpenResolvers(b *testing.B) { benchCall(b, snoopOpenResolvers()) }
func BenchmarkCacheSnoop(b *testing.B)         { benchCall(b, cacheSnoop()) }
func BenchmarkFig5Scenario(b *testing.B)       { benchCall(b, scenarioSeed(fig5Scenario)) }
func BenchmarkTableVScenario(b *testing.B)     { benchCall(b, scenarioSeed(tableVScenario)) }
func BenchmarkSharedScenario(b *testing.B)     { benchCall(b, scenarioSeed(sharedScenario)) }
func BenchmarkFig7Scenario(b *testing.B)       { benchCall(b, scenarioSeed(fig7Scenario)) }
