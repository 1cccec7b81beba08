package measure

import (
	"testing"

	"dnstime/internal/population"
)

// Committed heap budget for the streamed open-resolver snoop. table4 and
// fig6 snoop a default-size population (200 000 resolvers) every seed;
// SnoopOpenResolvers folds each resolver as it is drawn, so it allocates
// only its result and the RNG. This gate pins that contract: storing the
// population instead costs about 17.7 MB per call.
const heapBudgetSnoop = 2 << 20 // bytes per default-size SnoopOpenResolvers call

// Committed heap budget for the §VII-A scan. RateLimitScan builds one
// live NTP server per behaviour class (at most six), so a default-size
// call allocates about 17 KB; building a host and server per pool server
// costs about 4.5 MB.
const heapBudgetRateLimitScan = 256 << 10 // bytes per default-size RateLimitScan call

func TestHeapBudgetRateLimitScan(t *testing.T) {
	r := testing.Benchmark(BenchmarkRateLimitScan)
	if r.N == 0 {
		t.Fatal("benchmark did not run")
	}
	if got := r.AllocedBytesPerOp(); got > heapBudgetRateLimitScan {
		t.Errorf("RateLimitScan allocates %d bytes per default-size call, budget %d", got, heapBudgetRateLimitScan)
	}
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
	r := testing.Benchmark(BenchmarkSnoopOpenResolvers)
	if r.N == 0 {
		t.Fatal("benchmark did not run")
	}
	if got := r.AllocedBytesPerOp(); got > heapBudgetSnoop {
		t.Errorf("SnoopOpenResolvers allocates %d bytes per default-size call, budget %d", got, heapBudgetSnoop)
	}
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
