package core

import (
	"context"
	"runtime"
	"testing"

	"dnstime/internal/ntpclient"
	"dnstime/internal/scenario"
)

// allocBudgetLabReset is the committed budget for re-purposing a pooled
// laboratory to a new seed: Lab.Reset re-wires nameserver, resolver,
// attacker and twelve NTP servers in place and re-targets the kept
// topology compiler, applying the network options as it makes them and
// rewriting the nameserver's pool record in place. It measured 0 against
// 5 before the options and the pool record stopped being built per reset,
// and 197 allocations (41.4 KB) for building the same lab with NewLab
// (Go 1.24.0, -cpu 1).
const allocBudgetLabReset = 2

func TestAllocBudgetLabReset(t *testing.T) {
	l := MustNewLab(LabConfig{Seed: 1})
	seed := int64(1)
	reset := func() {
		seed++
		if err := l.Reset(LabConfig{Seed: seed}); err != nil {
			t.Fatal(err)
		}
	}
	// Warm the event arena and component scratch before measuring.
	for i := 0; i < 4; i++ {
		reset()
	}
	avg := testing.AllocsPerRun(50, reset)
	if avg > allocBudgetLabReset {
		t.Errorf("%.1f allocs per pooled lab reset, budget %d", avg, allocBudgetLabReset)
	}
}

// allocCalls is how many calls an allocation gate counts, after its
// warm-up: a pooled call allocates the same every time once the pool,
// the lab's free lists and its spare client are warm, so a fixed
// handful gives its figure without timing a benchmark.
const allocCalls = 16

// allocsPerCall returns the mean allocations and bytes of one call, read
// from runtime.MemStats over allocCalls calls on one processor, as
// testing.AllocsPerRun counts.
func allocsPerCall(call func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range allocCalls {
		call()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / allocCalls, (after.TotalAlloc - before.TotalAlloc) / allocCalls
}

// The committed budget for one pooled boot-time attack, the race every
// poison-short seed runs one to ten times: a lab reset, the poisoning
// campaign and the client's boot, at a fresh seed, as in a campaign. It
// measured 0 B and 0 allocations per attack (Go 1.24.0, 2 cores), and
// 56 allocations (2 104 B) before the attacker's planting round, the
// resolver's and the stub's queries and the lab's per-reset options kept
// their state in slots the pooled lab owns. The budget leaves room for
// the race detector, under which the packet pool drops some of what it
// is given.
const (
	allocBudgetBootAttackBytes = 512
	allocBudgetBootAttack      = 8
)

// bootAttackLoop runs n pooled ntpd boot-time attacks, each at the next
// seed after *seed.
func bootAttackLoop(tb testing.TB, seed *int64, n int) {
	for i := 0; i < n; i++ {
		*seed++
		if _, err := RunBootTimeAttack(ntpclient.ProfileNTPd, LabConfig{Seed: *seed}); err != nil {
			tb.Fatal(err)
		}
	}
}

func TestAllocBudgetBootAttack(t *testing.T) {
	SetLabPooling(true)
	// Seeds far from every other test's, a fresh one per attack.
	seed := int64(1 << 36)
	// Warm the pool, the lab's free lists and its spare client.
	bootAttackLoop(t, &seed, 8)
	allocs, bytes := allocsPerCall(func() { bootAttackLoop(t, &seed, 1) })
	if bytes > allocBudgetBootAttackBytes {
		t.Errorf("%d B allocated per pooled boot-time attack, budget %d", bytes, allocBudgetBootAttackBytes)
	}
	if allocs > allocBudgetBootAttack {
		t.Errorf("%d allocs per pooled boot-time attack, budget %d", allocs, allocBudgetBootAttack)
	}
	t.Logf("pooled boot-time attack: %d allocs, %d B", allocs, bytes)
}

// allocBudgetRaceMarginSeed is the committed budget for one racemargin
// seed over the default ten-margin grid: ten pooled boot-time attacks,
// each under its margin's topology. What a seed allocates is its own
// result (the margin grid, the metrics map and its keys) and the race
// topology it aims at every margin. It measured 51 allocations (2 336 B),
// against 996 (38 457 B) before the pooled attack allocated nothing.
const allocBudgetRaceMarginSeed = 64

func TestAllocBudgetRaceMarginSeed(t *testing.T) {
	SetLabPooling(true)
	seed := int64(1 << 38)
	run := func() {
		seed++
		if _, err := scenario.Run(context.Background(), "racemargin", seed, scenario.Config{}); err != nil {
			t.Fatal(err)
		}
	}
	for range 4 {
		run()
	}
	allocs, bytes := allocsPerCall(run)
	if allocs > allocBudgetRaceMarginSeed {
		t.Errorf("%d allocs per racemargin seed, budget %d", allocs, allocBudgetRaceMarginSeed)
	}
	t.Logf("racemargin seed: %d allocs, %d B", allocs, bytes)
}

// BenchmarkBootTimeAttack is the pooled boot-time attack at a fresh seed
// per op, the gate's steady state.
func BenchmarkBootTimeAttack(b *testing.B) {
	SetLabPooling(true)
	seed := int64(1 << 37)
	bootAttackLoop(b, &seed, 8)
	b.ReportAllocs()
	b.ResetTimer()
	bootAttackLoop(b, &seed, b.N)
}
