package campaign

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzJobSpec hammers serve's POST /jobs path — DecodeJobSpec, Normalize,
// Key — with valid, malformed and hostile bodies. The invariants: no
// panic; Key refuses exactly what Normalize refuses; an accepted spec has
// Seeds in [1, MaxJobSeeds] and a BaseSeed; and the raw spec, its
// normalised form and that form after a JSON round trip all address one
// campaign (the cache key never depends on how sparsely a submission was
// written).
func FuzzJobSpec(f *testing.F) {
	for _, body := range []string{
		`{"scenario":"boot"}`,
		`{"scenario":"boot","params":{"offset":"-300s","client":"chrony"},"seeds":8,"base_seed":0}`,
		`{"scenario":"boot","fast":true}`,
		`{"scenario":"racemargin","trace":true,"base_seed":-9223372036854775808}`,
		`{"scenario":"table4","seeds":65536}`,
		`{"scenario":"boot","seeds":65537}`,
		`{"scenario":"boot","seeds":-1}`,
		`{"scenario":"boot","seeds":1e3}`,
		`{"scenario":"nope"}`,
		`{"scenario":"boot","params":{"clinet":"x"}}`,
		`{"scenario":"table4","params":{"client":"x"}}`,
		`{"scenario":"boot","bogus":1}`,
		`{"scenario":"boot"}{"scenario":"chronos"}`,
		`{"scenario":"boot","params":null,"base_seed":null}`,
		`null`,
		`[]`,
		`{`,
		``,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := DecodeJobSpec(bytes.NewReader(body))
		if err != nil {
			return // a 400 from the service: fine, as long as it never panics
		}
		norm, err := spec.Normalize()
		if err != nil {
			if _, kerr := spec.Key(); kerr == nil {
				t.Errorf("Key accepts a spec Normalize refuses (%v): %s", err, body)
			}
			return
		}
		if norm.Seeds < 1 || norm.Seeds > MaxJobSeeds {
			t.Errorf("accepted spec runs %d seeds, outside [1, %d]", norm.Seeds, MaxJobSeeds)
		}
		if norm.BaseSeed == nil {
			t.Fatal("accepted spec has no base seed")
		}
		raw, err := spec.Key()
		if err != nil {
			t.Fatalf("Key refuses a spec Normalize accepts: %v", err)
		}
		normKey, err := norm.Key()
		if err != nil {
			t.Fatalf("Key refuses a normalised spec: %v", err)
		}
		wire, err := json.Marshal(norm)
		if err != nil {
			t.Fatalf("normalised spec does not marshal: %v", err)
		}
		back, err := DecodeJobSpec(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("normalised spec does not decode back (%v): %s", err, wire)
		}
		trip, err := back.Key()
		if err != nil {
			t.Fatalf("Key refuses the round-tripped spec (%v): %s", err, wire)
		}
		if raw != normKey || normKey != trip {
			t.Errorf("one campaign, three keys: raw %s, normalised %s, round-tripped %s (%s)", raw, normKey, trip, wire)
		}
	})
}
