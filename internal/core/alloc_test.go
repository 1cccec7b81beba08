package core

import (
	"testing"

	"dnstime/internal/ntpclient"
)

// allocBudgetLabReset is the committed budget for re-purposing a pooled
// laboratory to a new seed: Lab.Reset re-wires nameserver, resolver,
// attacker and twelve NTP servers in place and re-targets the kept
// topology compiler, so the remaining allocations are the handful of
// per-run config values (the defaults pointer, the network options, the
// pool record set). It measured 5 against 197 allocations (41.4 KB) for
// building the same lab with NewLab (Go 1.24.0, -cpu 1).
const allocBudgetLabReset = 8

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

// The committed budget for one pooled boot-time attack, the race every
// poison-short seed runs one to ten times: a lab reset, the poisoning
// campaign and the client's boot, at a fresh seed, as in a campaign. It
// measured 2 296 B and 59 allocations per attack (Go 1.24.0, 2 cores),
// against 2 512 B and 70 before the attacker encoded its queries and its
// spoofed ICMP into scratch, and 33 090 B and 351 before the spare
// clients, the pooled fragment path, the cached-answer arena, reassembly
// into pooled packets and the reclaimed in-flight packets; what remains
// is mostly the attacker's per-round closures and probe buffers and the
// resolver's per-query client state.
const (
	allocBudgetBootAttackBytes = 2600
	allocBudgetBootAttack      = 67
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
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		bootAttackLoop(b, &seed, b.N)
	})
	if got := res.AllocedBytesPerOp(); got > allocBudgetBootAttackBytes {
		t.Errorf("%d B allocated per pooled boot-time attack, budget %d", got, allocBudgetBootAttackBytes)
	}
	if got := res.AllocsPerOp(); got > allocBudgetBootAttack {
		t.Errorf("%d allocs per pooled boot-time attack, budget %d", got, allocBudgetBootAttack)
	}
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
