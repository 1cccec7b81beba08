package analysis

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(got, want, tol float64) bool { return math.Abs(got-want) <= tol }

// TestTableIIIMatchesPaper reproduces every row of Table III at
// p_rate = 38%.
func TestTableIIIMatchesPaper(t *testing.T) {
	want := []TableIIIRow{
		{1, 1, 38.0, 38.0},
		{2, 2, 14.4, 14.4},
		{3, 2, 14.4, 32.4},
		{4, 3, 5.5, 15.7},
		{5, 3, 5.5, 28.4},
		{6, 4, 2.1, 15.3},
		{7, 5, 0.8, 7.8},
		{8, 6, 0.3, 3.9},
		{9, 7, 0.1, 1.8},
	}
	got := TableIII(DefaultPRate)
	if len(got) != len(want) {
		t.Fatalf("rows = %d, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if g.M != w.M || g.N != w.N {
			t.Errorf("row %d: m,n = %d,%d want %d,%d", i, g.M, g.N, w.M, w.N)
		}
		if !approx(g.P1, w.P1, 0.06) {
			t.Errorf("row m=%d: P1 = %.2f%%, want %.1f%%", w.M, g.P1, w.P1)
		}
		if !approx(g.P2, w.P2, 0.06) {
			t.Errorf("row m=%d: P2 = %.2f%%, want %.1f%%", w.M, g.P2, w.P2)
		}
	}
}

func TestP1(t *testing.T) {
	if !approx(P1(1, 0.38), 0.38, 1e-12) {
		t.Error("P1(1) wrong")
	}
	if !approx(P1(4, 0.38), 0.38*0.38*0.38*0.38, 1e-12) {
		t.Error("P1(4) wrong")
	}
	if P1(0, 0.38) != 1 {
		t.Error("P1(0) should be 1")
	}
}

func TestP2EqualsP1WhenNEqualsM(t *testing.T) {
	for m := 1; m <= 9; m++ {
		if !approx(P2(m, m, 0.38), P1(m, 0.38), 1e-12) {
			t.Errorf("P2(%d,%d) != P1(%d)", m, m, m)
		}
	}
}

func TestP2Boundaries(t *testing.T) {
	if P2(3, 4, 0.38) != 0 {
		t.Error("P2 with n>m should be 0")
	}
	if !approx(P2(5, 0, 0.38), 1, 1e-12) {
		t.Error("P2 with n=0 should be 1")
	}
}

func TestRemovalThresholdTableIII(t *testing.T) {
	want := map[int]int{1: 1, 2: 2, 3: 2, 4: 3, 5: 3, 6: 4, 7: 5, 8: 6, 9: 7}
	for m, n := range want {
		if got := RemovalThreshold(m); got != n {
			t.Errorf("RemovalThreshold(%d) = %d, want %d", m, got, n)
		}
	}
}

// Property: P2 is monotone decreasing in n and increasing in p.
func TestPropertyP2Monotonicity(t *testing.T) {
	f := func(mRaw, nRaw uint8, pRaw uint16) bool {
		m := int(mRaw)%12 + 1
		n := int(nRaw) % (m + 1)
		p := float64(pRaw%1000) / 1000
		if P2(m, n, p)+1e-9 < P2(m, n+1, p) {
			return false
		}
		return P2(m, n, p) <= P2(m, n, math.Min(p+0.1, 1))+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: Monte-Carlo agrees with the closed form.
func TestMonteCarloAgreesWithClosedForm(t *testing.T) {
	for _, tc := range []struct{ m, n int }{{4, 3}, {6, 4}, {9, 7}} {
		exact := P2(tc.m, tc.n, 0.38)
		mc := monteCarloP2(tc.m, tc.n, 0.38, 200000, 42)
		if !approx(mc, exact, 0.01) {
			t.Errorf("MC P2(%d,%d) = %.4f, closed form %.4f", tc.m, tc.n, mc, exact)
		}
	}
}

// monteCarloP2 estimates P2(m,n) by sampling server populations — the
// oracle for the closed form.
func monteCarloP2(m, n int, p float64, trials int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	hit := 0
	for t := 0; t < trials; t++ {
		limiting := 0
		for i := 0; i < m; i++ {
			if rng.Float64() < p {
				limiting++
			}
		}
		if limiting >= n {
			hit++
		}
	}
	return float64(hit) / float64(trials)
}
