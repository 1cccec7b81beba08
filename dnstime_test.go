// Integration tests exercising the public facade end to end.
package dnstime_test

import (
	"context"
	"testing"
	"time"

	"dnstime"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	lab := dnstime.MustNewLab(dnstime.LabConfig{Seed: 100})
	if err := lab.PoisonResolver(86400); err != nil {
		t.Fatalf("PoisonResolver: %v", err)
	}
	client, err := lab.NewClient(dnstime.ProfileNTPd, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Start(); err != nil {
		t.Fatal(err)
	}
	lab.Clock.RunFor(30 * time.Minute)
	off := client.ClockOffset()
	if off > -400*time.Second || off < -600*time.Second {
		t.Errorf("offset = %v, want ≈ −500 s", off)
	}
}

func TestFacadeCampaign(t *testing.T) {
	agg, err := dnstime.NewEngine(
		dnstime.WithSeeds(4),
		dnstime.WithWorkers(4),
		dnstime.WithParam("client", "ntpd"),
	).Run(context.Background(), "boot")
	if err != nil {
		t.Fatal(err)
	}
	if agg.Runs != 4 || agg.Successes != 4 {
		t.Errorf("campaign = %d/%d shifted, want 4/4", agg.Successes, agg.Runs)
	}
	if agg.Scenario != "boot" {
		t.Errorf("scenario = %q", agg.Scenario)
	}
}

func TestFacadeTableIII(t *testing.T) {
	rows := dnstime.TableIII(dnstime.DefaultPRate)
	if len(rows) != 9 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].P1 < 37.9 || rows[0].P1 > 38.1 {
		t.Errorf("P1(1) = %.2f%%, want 38%%", rows[0].P1)
	}
}

func TestFacadeChronosBound(t *testing.T) {
	if got := dnstime.ChronosAttackBound(4, 89); got != 11 {
		t.Errorf("bound = %d, want 11", got)
	}
	if !dnstime.ChronosControlsPool(89, 133) {
		t.Error("2/3 control not recognised")
	}
}

func TestFacadeProfiles(t *testing.T) {
	profiles := dnstime.AllProfiles()
	if len(profiles) != 7 {
		t.Fatalf("profiles = %d, want 7", len(profiles))
	}
	names := map[string]bool{}
	for _, pu := range profiles {
		names[pu.Profile.Name] = true
	}
	for _, want := range []string{"NTPd", "chrony", "openntpd", "ntpdate", "Android", "ntpclient", "systemd-timesyncd"} {
		if !names[want] {
			t.Errorf("missing profile %q", want)
		}
	}
}

func TestFacadeDeterminism(t *testing.T) {
	run := func() time.Duration {
		res, err := dnstime.RunBootTimeAttack(dnstime.ProfileSystemd, dnstime.LabConfig{Seed: 77})
		if err != nil {
			t.Fatal(err)
		}
		return res.TimeToShift
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same seed produced different outcomes: %v vs %v", a, b)
	}
}

func TestFacadeMeasurementsSmoke(t *testing.T) {
	poolCfg := dnstime.DefaultPoolConfig()
	poolCfg.Servers = 60
	res, err := dnstime.RateLimitScan(dnstime.GeneratePool(poolCfg, 1), dnstime.DefaultScanConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Servers != 60 {
		t.Errorf("servers = %d", res.Servers)
	}
	orCfg := dnstime.DefaultOpenResolverConfig()
	orCfg.Total = 5000
	snoop := dnstime.CacheSnoop(dnstime.GenerateOpenResolvers(orCfg, 1))
	if len(snoop.Rows) != 6 {
		t.Errorf("snoop rows = %d, want 6", len(snoop.Rows))
	}
}
