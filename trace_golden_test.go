package dnstime_test

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"dnstime"
	"dnstime/internal/obs"
)

// tracedScenarios are the scenarios whose runs emit lab trace events.
var tracedScenarios = []string{"boot", "runtime", "table1", "table2", "chronos", "netsweep", "racemargin", "ratelimit"}

// tee hands every event and span to each of its tracers.
type tee []obs.Tracer

func (tee) Enabled() bool { return true }

func (t tee) Event(at time.Time, cat, name, detail string) {
	for _, tr := range t {
		tr.Event(at, cat, name, detail)
	}
}

func (t tee) Span(from, to time.Time, cat, name, detail string) {
	for _, tr := range t {
		tr.Span(from, to, cat, name, detail)
	}
}

// TestTraceGolden pins the work every traced scenario does at seed 1 with
// Fast: its event and span counts, its obs.Work counts and the SHA-256 of
// its whole trace (obs.Digest). A change that adds, drops, reorders or
// retimes one event, or schedules one more clock event, fails it even
// when every reproduced number stays the same. After an intended change
// of an event stream, regenerate the file from the repository root with
//
//	go test -count=1 -run '^TestTraceGolden$' . | sed -n 's/^ *golden| //p' > testdata/trace-seed1.golden
func TestTraceGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/trace-seed1.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := []string{"# scenario events spans clock_fires net_sends net_delivers net_reasm plant_rounds sha256"}
	for _, name := range tracedScenarios {
		var work obs.WorkCounter
		digest := obs.NewDigest()
		cfg := dnstime.ScenarioConfig{Fast: true, Tracer: tee{&work, digest}}
		if _, err := dnstime.RunScenario(context.Background(), name, 1, cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		w := work.Work
		got = append(got, fmt.Sprintf("%s %d %d %d %d %d %d %d %s", name, digest.Events, digest.Spans,
			w.ClockFires, w.NetSends, w.NetDelivers, w.NetReasm, w.PlantRounds, digest.Sum()))
	}
	if gotFile := strings.Join(got, "\n") + "\n"; gotFile != string(want) {
		t.Errorf("traces differ from testdata/trace-seed1.golden; the file for this build is\n%s",
			"golden| "+strings.Join(got, "\ngolden| "))
	}
}
