// Package analysis implements the paper's closed-form probability analysis
// of the run-time attack (Section V-B, Table III).
package analysis

import "math"

// DefaultPRate is the measured fraction of pool.ntp.org servers that
// rate-limit (Section VII-A: 904 of 2432 ≈ 38%).
const DefaultPRate = 0.38

// P1 is the Scenario-1 success probability: the attacker removes servers
// one-after-another (discovered by querying the client), so all n targeted
// servers must rate-limit: P1(n) = p^n.
func P1(n int, p float64) float64 {
	return math.Pow(p, float64(n))
}

// P2 is the Scenario-2 success probability: the attacker knows all m
// upstream servers upfront and needs any n of them to rate-limit:
// P2(m,n) = Σ_{i=n..m} C(m,i) p^i (1−p)^{m−i}.
//
// (The paper's Table III prints the summand as pⁱ·p^{m−i}; the tabulated
// values correspond to the standard binomial tail with q = 1−p, which is
// what we compute.)
func P2(m, n int, p float64) float64 {
	if n > m {
		return 0
	}
	var sum float64
	for i := n; i <= m; i++ {
		sum += binomCoeff(m, i) * math.Pow(p, float64(i)) * math.Pow(1-p, float64(m-i))
	}
	return sum
}

func binomCoeff(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	c := 1.0
	for i := 0; i < k; i++ {
		c = c * float64(n-i) / float64(i+1)
	}
	return c
}

// RemovalThreshold is the number n of associations the attacker must remove
// for a client with m associations, per Table III: the attacker needs a
// strict majority of servers, but never more than m−2 (an ntpd-style client
// re-queries DNS once fewer than MINCLOCK=3 ⇒ m−2 removals suffice to
// trigger the lookup).
//
// Note: the paper's column header prints max(⌈m/2⌉, m−2), but its own row
// m=4 (n=3) matches the strict majority max(⌈(m+1)/2⌉, m−2), which is what
// we implement; every other row agrees with both.
func RemovalThreshold(m int) int {
	maj := (m + 2) / 2 // ⌈(m+1)/2⌉
	alt := m - 2
	if alt > maj {
		return alt
	}
	return maj
}

// TableIIIRow is one row of Table III.
type TableIIIRow struct {
	M  int
	N  int
	P1 float64 // percent
	P2 float64 // percent
}

// TableIII computes the full Table III for the given rate-limiting
// probability (paper: 0.38).
func TableIII(p float64) []TableIIIRow {
	rows := make([]TableIIIRow, 0, 9)
	for m := 1; m <= 9; m++ {
		n := RemovalThreshold(m)
		rows = append(rows, TableIIIRow{
			M:  m,
			N:  n,
			P1: 100 * P1(n, p),
			P2: 100 * P2(m, n, p),
		})
	}
	return rows
}
