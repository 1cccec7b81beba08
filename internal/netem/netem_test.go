package netem

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"dnstime/internal/ipv4"
)

var (
	srcA = ipv4.MustParseAddr("192.0.2.1")
	dstB = ipv4.MustParseAddr("198.51.100.7")
)

// draws samples a distribution n times on a fresh seeded rng.
func draws(d LatencyDist, seed int64, n int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = d.Sample(rng).Seconds()
	}
	return out
}

func meanVar(xs []float64) (mean, variance float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		variance += (x - mean) * (x - mean)
	}
	variance /= float64(len(xs))
	return mean, variance
}

// TestFixedConsumesNoRandomness: a Fixed delay must leave the RNG stream
// untouched — the property that keeps default labs byte-identical to the
// pre-netem simulation.
func TestFixedConsumesNoRandomness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	before := rng.Int63()
	rng = rand.New(rand.NewSource(7))
	if d := Fixed(3 * time.Millisecond).Sample(rng); d != 3*time.Millisecond {
		t.Errorf("Fixed sample = %v", d)
	}
	if got := rng.Int63(); got != before {
		t.Error("Fixed.Sample consumed randomness")
	}
}

// TestUniformMeanAndBounds: 10k uniform draws stay inside [Min, Max] with
// the midpoint mean and the (Max−Min)²/12 variance, within tolerance.
func TestUniformMeanAndBounds(t *testing.T) {
	u := Uniform{Min: 2 * time.Millisecond, Max: 12 * time.Millisecond}
	xs := draws(u, 1, 10000)
	for _, x := range xs {
		if x < 0.002 || x > 0.012 {
			t.Fatalf("uniform draw %v outside [2ms, 12ms]", x)
		}
	}
	mean, variance := meanVar(xs)
	if math.Abs(mean-0.007) > 0.0002 {
		t.Errorf("uniform mean = %.5f s, want ≈0.007", mean)
	}
	wantVar := 0.010 * 0.010 / 12
	if math.Abs(variance-wantVar) > wantVar/5 {
		t.Errorf("uniform variance = %.3e, want ≈%.3e", variance, wantVar)
	}
}

// TestLognormalMoments: 10k lognormal draws match the closed-form mean
// median·exp(σ²/2) and variance within tolerance, and the sample median
// sits near the configured median.
func TestLognormalMoments(t *testing.T) {
	l := Lognormal{Median: 40 * time.Millisecond, Sigma: 0.5}
	xs := draws(l, 2, 10000)
	mean, variance := meanVar(xs)
	m := 0.040
	wantMean := m * math.Exp(0.5*0.5/2)
	if math.Abs(mean-wantMean) > wantMean/20 {
		t.Errorf("lognormal mean = %.5f s, want ≈%.5f", mean, wantMean)
	}
	wantVar := m * m * math.Exp(0.5*0.5) * (math.Exp(0.5*0.5) - 1)
	if math.Abs(variance-wantVar) > wantVar/3 {
		t.Errorf("lognormal variance = %.3e, want ≈%.3e", variance, wantVar)
	}
	below := 0
	for _, x := range xs {
		if x < m {
			below++
		}
	}
	if below < 4800 || below > 5200 {
		t.Errorf("%d/10000 draws below the median, want ≈5000", below)
	}
}

// TestIIDLossRate: 10k i.i.d. trials hit the configured loss rate within
// tolerance, and P=0 consumes no randomness.
func TestIIDLossRate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	loss := IID{P: 0.05}
	drops := 0
	for i := 0; i < 10000; i++ {
		if loss.Drop(rng) {
			drops++
		}
	}
	if drops < 400 || drops > 600 {
		t.Errorf("IID(0.05) dropped %d/10000, want ≈500", drops)
	}
	rng = rand.New(rand.NewSource(3))
	before := rng.Int63()
	rng = rand.New(rand.NewSource(3))
	if (IID{}).Drop(rng) {
		t.Error("IID zero value dropped a packet")
	}
	if rng.Int63() != before {
		t.Error("IID(0).Drop consumed randomness")
	}
}

// TestGilbertElliottBursts: the bad-state visits of the two-state chain
// last 1/PBG packets on average and the overall loss rate matches the
// stationary mixture, both within tolerance over 200k packets.
func TestGilbertElliottBursts(t *testing.T) {
	ge := &GilbertElliott{PGB: 0.05, PBG: 0.5, LossGood: 0, LossBad: 1}
	rng := rand.New(rand.NewSource(4))
	const n = 200000
	drops, bursts := 0, 0
	run := 0
	var runs []int
	for i := 0; i < n; i++ {
		if ge.Drop(rng) {
			drops++
			run++
		} else if run > 0 {
			bursts++
			runs = append(runs, run)
			run = 0
		}
	}
	// With LossBad=1/LossGood=0, every drop-run is one bad-state visit:
	// mean run length 1/PBG = 2.
	var total int
	for _, r := range runs {
		total += r
	}
	meanBurst := float64(total) / float64(len(runs))
	if math.Abs(meanBurst-2) > 0.15 {
		t.Errorf("mean burst length = %.2f packets, want ≈2 (1/PBG)", meanBurst)
	}
	// Stationary bad share PGB/(PGB+PBG) = 0.0909…
	wantRate := 0.05 / 0.55
	rate := float64(drops) / float64(n)
	if math.Abs(rate-wantRate) > wantRate/10 {
		t.Errorf("GE loss rate = %.4f, want ≈%.4f", rate, wantRate)
	}
	if bursts < 1000 {
		t.Fatalf("only %d bursts observed", bursts)
	}
}

// TestPathReorderHoldsBackFraction: the configured fraction of packets is
// held back by Extra, everything else keeps the base delay.
func TestPathReorderHoldsBackFraction(t *testing.T) {
	p := &Path{
		Delay:   Fixed(10 * time.Millisecond),
		Reorder: Reorder{P: 0.1, Extra: 30 * time.Millisecond},
	}
	rng := rand.New(rand.NewSource(5))
	held := 0
	for i := 0; i < 10000; i++ {
		switch d := p.Latency(srcA, dstB, rng); d {
		case 40 * time.Millisecond:
			held++
		case 10 * time.Millisecond:
		default:
			t.Fatalf("unexpected delay %v", d)
		}
	}
	if held < 850 || held > 1150 {
		t.Errorf("%d/10000 packets held back, want ≈1000", held)
	}
}

// TestZeroPathIsDefaultLink: the zero-value Path reproduces simnet's
// historical default (fixed 10 ms, lossless) without touching the RNG.
func TestZeroPathIsDefaultLink(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	before := rng.Int63()
	rng = rand.New(rand.NewSource(6))
	p := &Path{}
	if d := p.Latency(srcA, dstB, rng); d != DefaultLatency {
		t.Errorf("zero Path latency = %v, want %v", d, DefaultLatency)
	}
	if p.Drop(srcA, dstB, rng) {
		t.Error("zero Path dropped a packet")
	}
	if rng.Int63() != before {
		t.Error("zero Path consumed randomness")
	}
}

// TestAsymmetricLegSelection: the two directions of one pair see their
// own legs, stably.
func TestAsymmetricLegSelection(t *testing.T) {
	a := &Asymmetric{
		Fwd: &Path{Delay: Fixed(5 * time.Millisecond)},
		Rev: &Path{Delay: Fixed(50 * time.Millisecond)},
	}
	rng := rand.New(rand.NewSource(7))
	// srcA (192.0.2.1) orders below dstB (198.51.100.7).
	if d := a.Latency(srcA, dstB, rng); d != 5*time.Millisecond {
		t.Errorf("forward latency = %v, want 5ms", d)
	}
	if d := a.Latency(dstB, srcA, rng); d != 50*time.Millisecond {
		t.Errorf("reverse latency = %v, want 50ms", d)
	}
}

// TestProfilesFreshAndDeterministic: every built-in profile builds, two
// instances share no state, and equal seeds replay equal per-packet
// decisions — the property campaign workers rely on.
func TestProfilesFreshAndDeterministic(t *testing.T) {
	for _, name := range ProfileNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			run := func() ([]float64, []bool) {
				m, err := Profile(name)
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(42))
				lat := make([]float64, 2000)
				drop := make([]bool, 2000)
				for i := range lat {
					drop[i] = m.Drop(srcA, dstB, rng)
					lat[i] = m.Latency(srcA, dstB, rng).Seconds()
				}
				return lat, drop
			}
			lat1, drop1 := run()
			lat2, drop2 := run()
			for i := range lat1 {
				if lat1[i] != lat2[i] || drop1[i] != drop2[i] {
					t.Fatalf("packet %d differs between identically seeded instances", i)
				}
			}
			if ProfileDescription(name) == "" {
				t.Errorf("profile %q has no description", name)
			}
		})
	}
	if _, err := Profile("dialup"); err == nil {
		t.Error("unknown profile accepted")
	}
}

// TestFromSpecOverrides: rtt= pins a fixed one-way rtt/2, loss= swaps in
// i.i.d. loss, and bad values are rejected.
func TestFromSpecOverrides(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m, err := FromSpec("wan", 200*time.Millisecond, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d := m.Latency(srcA, dstB, rng); d != 100*time.Millisecond {
		t.Errorf("rtt=200ms one-way latency = %v, want 100ms", d)
	}
	if !m.Drop(srcA, dstB, rng) {
		t.Error("loss=1 did not drop")
	}

	// loss=0 forces a lossless variant of a lossy profile.
	m, err = FromSpec("lossy-wifi", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if m.Drop(srcA, dstB, rng) {
			t.Fatal("loss=0 override dropped a packet")
		}
	}

	// Defaults: empty name is the lab profile, untouched overrides return
	// the profile as-is.
	m, err = FromSpec("", 0, NoLossOverride)
	if err != nil {
		t.Fatal(err)
	}
	if d := m.Latency(srcA, dstB, rng); d != DefaultLatency {
		t.Errorf("default spec latency = %v, want %v", d, DefaultLatency)
	}

	for _, bad := range []struct {
		name string
		rtt  time.Duration
		loss float64
	}{
		{"wan", -time.Second, NoLossOverride},
		{"wan", 0, 1.5},
		{"wan", 0, -0.2},
		{"dialup", 0, NoLossOverride},
	} {
		if _, err := FromSpec(bad.name, bad.rtt, bad.loss); err == nil {
			t.Errorf("FromSpec(%q, %v, %v) accepted", bad.name, bad.rtt, bad.loss)
		}
	}
}
