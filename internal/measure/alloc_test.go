package measure

import (
	"testing"

	"dnstime/internal/population"
)

// Committed heap budgets for the open-resolver snoop. table4 and fig6
// snoop a default-size population (200 000 resolvers) per seed;
// SnoopOpenResolvers folds each resolver as it is drawn and CacheSnoop
// folds a stored population, and both count Figure 6's TTLs by value,
// so a call allocates only its result (151 TTL counts and six rows) and,
// for the draw, its reader: about 18 KB and 2.4 KB. These gates pin that
// contract: keeping the ≈27 500 TTL samples instead costs about 1.2 MB
// per call, and storing the population about 17.7 MB.
const (
	heapBudgetSnoop      = 24 << 10 // bytes per default-size SnoopOpenResolvers call
	heapBudgetCacheSnoop = 4 << 10  // bytes per default-size CacheSnoop call
)

// Committed heap budget for the §VII-A scan. RateLimitScan builds one
// live NTP server per behaviour class (at most six), so a default-size
// call allocates about 17 KB; building a host and server per pool server
// costs about 4.5 MB.
const heapBudgetRateLimitScan = 256 << 10 // bytes per default-size RateLimitScan call

// heapGate fails when bench allocates more than budget bytes per call.
func heapGate(t *testing.T, name string, bench func(*testing.B), budget int64) {
	t.Helper()
	r := testing.Benchmark(bench)
	if r.N == 0 {
		t.Fatal("benchmark did not run")
	}
	got := r.AllocedBytesPerOp()
	if got > budget {
		t.Errorf("%s allocates %d bytes per default-size call, budget %d", name, got, budget)
	}
	t.Logf("%s: %d bytes per call, budget %d", name, got, budget)
}

func TestHeapBudgetRateLimitScan(t *testing.T) {
	heapGate(t, "RateLimitScan", BenchmarkRateLimitScan, heapBudgetRateLimitScan)
}

// BenchmarkRateLimitScan scans the ratelimit scenario's first pool: the
// default size at seed 43 (campaign seed 1 plus the scenario's +42).
func BenchmarkRateLimitScan(b *testing.B) {
	specs := population.GeneratePool(population.DefaultPoolConfig(), 43)
	cfg := DefaultScanConfig()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := RateLimitScan(specs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func TestHeapBudgetSnoopOpenResolvers(t *testing.T) {
	heapGate(t, "SnoopOpenResolvers", BenchmarkSnoopOpenResolvers, heapBudgetSnoop)
}

func TestHeapBudgetCacheSnoop(t *testing.T) {
	heapGate(t, "CacheSnoop", BenchmarkCacheSnoop, heapBudgetCacheSnoop)
}

func BenchmarkSnoopOpenResolvers(b *testing.B) {
	cfg := population.DefaultOpenResolverConfig()
	b.ReportAllocs()
	for b.Loop() {
		SnoopOpenResolvers(cfg, 11)
	}
}

func BenchmarkCacheSnoop(b *testing.B) {
	specs := population.GenerateOpenResolvers(population.DefaultOpenResolverConfig(), 11)
	b.ReportAllocs()
	for b.Loop() {
		CacheSnoop(specs)
	}
}
