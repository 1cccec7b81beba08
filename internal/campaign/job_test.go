package campaign

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"dnstime/internal/scenario"
)

// key is a test helper: JobSpec.Key that fails the test on error.
func key(t *testing.T, spec JobSpec) string {
	t.Helper()
	k, err := spec.Key()
	if err != nil {
		t.Fatalf("Key(%+v): %v", spec, err)
	}
	return k
}

// TestJobSpecKeyCanonicalization is the cache-key satellite at the spec
// level: identical campaigns must share one content address no matter how
// the spec was written, and any field that changes campaign output must
// change it.
func TestJobSpecKeyCanonicalization(t *testing.T) {
	base := int64(DefaultBaseSeed)
	zero := int64(0)
	ref := key(t, JobSpec{Scenario: "boot"})

	hits := map[string]JobSpec{
		"explicit default seeds":     {Scenario: "boot", Seeds: DefaultSeeds},
		"explicit default base seed": {Scenario: "boot", BaseSeed: &base},
		"both defaults explicit":     {Scenario: "boot", Seeds: DefaultSeeds, BaseSeed: &base},
	}
	for name, spec := range hits {
		if got := key(t, spec); got != ref {
			t.Errorf("%s: key %s differs from default-spec key %s", name, got, ref)
		}
	}

	misses := map[string]JobSpec{
		"different scenario": {Scenario: "chronos"},
		"different seeds":    {Scenario: "boot", Seeds: DefaultSeeds + 1},
		"explicit seed zero": {Scenario: "boot", BaseSeed: &zero},
		"with param":         {Scenario: "boot", Params: scenario.Params{"client": "chrony"}},
	}
	for name, spec := range misses {
		if got := key(t, spec); got == ref {
			t.Errorf("%s: key collides with the default boot spec", name)
		}
	}
}

// TestDecodeJobSpecRefusesFast: every scenario runs at one size, so a
// submission asking for the fast flag names a field JobSpec does not
// have and is refused, naming it, instead of running at full size.
func TestDecodeJobSpecRefusesFast(t *testing.T) {
	_, err := DecodeJobSpec(strings.NewReader(`{"scenario":"boot","fast":true}`))
	if err == nil || !strings.Contains(err.Error(), `"fast"`) {
		t.Errorf("err = %v, want a refusal naming \"fast\"", err)
	}
}

// TestJobSpecKeyParamOrder: params are content, not order — maps built in
// different insertion orders (and specs decoded from differently-ordered
// JSON) share a key, while a changed param value does not.
func TestJobSpecKeyParamOrder(t *testing.T) {
	a := scenario.Params{}
	a["client"] = "chrony"
	a["offset"] = "-123s"
	b := scenario.Params{}
	b["offset"] = "-123s"
	b["client"] = "chrony"
	ka := key(t, JobSpec{Scenario: "boot", Params: a})
	if kb := key(t, JobSpec{Scenario: "boot", Params: b}); kb != ka {
		t.Errorf("param insertion order changed the key: %s vs %s", ka, kb)
	}

	var fromJSONAsc, fromJSONDesc JobSpec
	for doc, spec := range map[string]*JobSpec{
		`{"scenario":"boot","params":{"client":"chrony","offset":"-123s"}}`: &fromJSONAsc,
		`{"scenario":"boot","params":{"offset":"-123s","client":"chrony"}}`: &fromJSONDesc,
	} {
		if err := json.Unmarshal([]byte(doc), spec); err != nil {
			t.Fatal(err)
		}
	}
	if ja, jb := key(t, fromJSONAsc), key(t, fromJSONDesc); ja != jb || ja != ka {
		t.Errorf("JSON key order changed the key: %s vs %s (want %s)", ja, jb, ka)
	}

	changed := scenario.Params{"client": "ntpd", "offset": "-123s"}
	if kc := key(t, JobSpec{Scenario: "boot", Params: changed}); kc == ka {
		t.Error("changed param value did not change the key")
	}
}

// TestJobSpecNormalizeErrors: unknown scenarios, undeclared params and
// negative or oversized seed counts fail at normalisation, before any run
// could start.
func TestJobSpecNormalizeErrors(t *testing.T) {
	cases := map[string]struct {
		spec JobSpec
		want string
	}{
		"unknown scenario": {JobSpec{Scenario: "sundial"}, "unknown scenario"},
		"undeclared param": {JobSpec{Scenario: "table4", Params: scenario.Params{"client": "x"}}, "param"},
		"negative seeds":   {JobSpec{Scenario: "boot", Seeds: -2}, "negative"},
		"oversized seeds":  {JobSpec{Scenario: "boot", Seeds: MaxJobSeeds + 1}, "65536"},
	}
	for name, tc := range cases {
		if _, err := tc.spec.Normalize(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Normalize err = %v, want mention of %q", name, err, tc.want)
		}
		if _, err := tc.spec.Key(); err == nil {
			t.Errorf("%s: Key did not propagate the normalisation error", name)
		}
	}
}

// TestJobSpecNormalizeCopiesParams: normalisation snapshots the params so
// a caller mutating its map afterwards cannot change the job's identity.
func TestJobSpecNormalizeCopiesParams(t *testing.T) {
	p := scenario.Params{"client": "chrony"}
	n, err := JobSpec{Scenario: "boot", Params: p}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	p["client"] = "ntpd"
	if n.Params["client"] != "chrony" {
		t.Errorf("normalized params aliased the caller's map: %v", n.Params)
	}
	if n.Seeds != DefaultSeeds || n.BaseSeed == nil || *n.BaseSeed != DefaultBaseSeed {
		t.Errorf("defaults not materialised: %+v", n)
	}
}

// TestJobSpecOptionsMatchEngine: a spec lowered via Options drives the
// Engine to the same bytes as hand-built options — the wrapper adds no
// behaviour, only identity.
func TestJobSpecOptionsMatchEngine(t *testing.T) {
	spec := JobSpec{Scenario: "boot", Seeds: 3, Params: scenario.Params{"client": "chrony"}}
	viaSpec, err := NewEngine(spec.Options(WithWorkers(2))...).Run(context.Background(), "boot")
	if err != nil {
		t.Fatal(err)
	}
	direct, err := NewEngine(
		WithSeeds(3), WithParam("client", "chrony"), WithWorkers(1),
	).Run(context.Background(), "boot")
	if err != nil {
		t.Fatal(err)
	}
	a, _ := json.Marshal(viaSpec)
	b, _ := json.Marshal(direct)
	if string(a) != string(b) {
		t.Errorf("spec-driven aggregate differs from direct options:\n%s\nvs\n%s", a, b)
	}
}
