package campaign

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dnstime/internal/scenario"
)

// fuzzCfg is the engine config every fuzzed load resumes into: the boot
// scenario over seeds 1–8.
var fuzzCfg = engineConfig{seeds: 8, baseSeed: 1}

// checkpointBytes renders a well-formed checkpoint for the fuzz corpus.
func checkpointBytes(hdr checkpointHeader, results ...scenario.Result) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(hdr); err != nil {
		panic(err)
	}
	for _, res := range results {
		if err := enc.Encode(res); err != nil {
			panic(err)
		}
	}
	return buf.Bytes()
}

// goodHeader is a header compatible with fuzzCfg.
func goodHeader() checkpointHeader {
	return checkpointHeader{V: checkpointVersion, Scenario: "boot", BaseSeed: 1, Seeds: 8}
}

// result builds one seed's recorded outcome.
func result(seed int64, success bool) scenario.Result {
	return scenario.Result{Seed: seed, Success: scenario.Bool(success),
		Metrics: map[string]float64{"tts_s": float64(seed) * 3}}
}

// FuzzLoadCheckpoint hammers the JSONL resume reader with torn tails,
// truncated headers, mixed-scenario lines and arbitrary corruption. The
// invariants: no panic; on success the valid prefix is newline-bounded
// within the file, every resumed seed is in the campaign range, and
// re-loading just the valid prefix reproduces the identical resume set
// (the idempotence the truncate-and-append checkpoint workflow relies
// on).
func FuzzLoadCheckpoint(f *testing.F) {
	full := checkpointBytes(goodHeader(), result(1, true), result(2, false), result(3, true))
	f.Add(full)                                     // happy path
	f.Add(full[:len(full)-7])                       // torn tail mid-record
	f.Add(full[:11])                                // truncated header, no newline
	f.Add([]byte("{\"v\":1,\"scenario\":\"boot\"")) // unterminated header
	f.Add(checkpointBytes(checkpointHeader{V: checkpointVersion, Scenario: "chronos", BaseSeed: 1, Seeds: 8},
		result(2, true))) // mixed-scenario checkpoint
	f.Add(checkpointBytes(checkpointHeader{V: 99, Scenario: "boot"}))                  // future version
	f.Add(checkpointBytes(goodHeader(), result(0, true), result(100, true)))           // out-of-range seeds
	f.Add([]byte{})                                                                    // empty file
	f.Add([]byte("\n\n\n"))                                                            // blank lines
	f.Add([]byte("not json at all\n"))                                                 // garbage header
	f.Add(append(append([]byte{}, full...), "{\"seed\":4,\"metrics\":{\"tts_s\":"...)) // torn append
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "ck.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		resumed, validLen, err := loadCheckpoint(path, fuzzCfg, "boot")
		if err != nil {
			return // rejected input: fine, as long as it never panics
		}
		if validLen < 0 || validLen > int64(len(data)) {
			t.Fatalf("validLen %d outside [0, %d]", validLen, len(data))
		}
		if validLen > 0 && data[validLen-1] != '\n' {
			t.Errorf("valid prefix does not end on a newline (len %d)", validLen)
		}
		for seed := range resumed {
			if seed < fuzzCfg.baseSeed || seed >= fuzzCfg.baseSeed+int64(fuzzCfg.seeds) {
				t.Errorf("resumed out-of-range seed %d", seed)
			}
		}
		// Idempotence: the valid prefix alone loads to the same state.
		prefixPath := filepath.Join(dir, "prefix.jsonl")
		if err := os.WriteFile(prefixPath, data[:validLen], 0o644); err != nil {
			t.Fatal(err)
		}
		resumed2, validLen2, err := loadCheckpoint(prefixPath, fuzzCfg, "boot")
		if err != nil {
			t.Fatalf("valid prefix no longer loads: %v", err)
		}
		if validLen2 != validLen || !reflect.DeepEqual(resumed, resumed2) {
			t.Errorf("valid prefix loads differently: len %d vs %d, %v vs %v",
				validLen, validLen2, resumed, resumed2)
		}
	})
}

// TestLoadCheckpointTornTail: a trailing fragment without its newline —
// the signature of a torn write — is ignored, not treated as corruption,
// and the measured valid prefix excludes it.
func TestLoadCheckpointTornTail(t *testing.T) {
	full := checkpointBytes(goodHeader(), result(1, true), result(2, false))
	torn := append(append([]byte{}, full...), `{"seed":3,"succ`...)
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	resumed, validLen, err := loadCheckpoint(path, fuzzCfg, "boot")
	if err != nil {
		t.Fatal(err)
	}
	if validLen != int64(len(full)) {
		t.Errorf("validLen = %d, want %d (the untorn prefix)", validLen, len(full))
	}
	if len(resumed) != 2 {
		t.Errorf("resumed %d seeds, want 2 (the torn record must not count)", len(resumed))
	}
}

// TestLoadCheckpointRejects: a truncated (never-terminated) header, a
// header for another scenario, mismatched params, a header field this
// build does not know and a malformed line inside the terminated prefix
// are hard errors — resuming would silently mix incompatible campaigns.
// A header written by an older build for a full-size campaign (checkpoint
// v1 with no fast field) still resumes every recorded seed as written.
func TestLoadCheckpointRejects(t *testing.T) {
	_, records, _ := bytes.Cut(checkpointBytes(goodHeader(), result(1, true), result(2, false)), []byte("\n"))
	wantResumed := map[int64]scenario.Result{1: result(1, true), 2: result(2, false)}
	cases := map[string]struct {
		data []byte
		want string // "" for a checkpoint that must load
	}{
		"empty file":       {[]byte{}, "empty checkpoint"},
		"truncated header": {[]byte(`{"v":1,"scenario":"boot"`), "empty checkpoint"},
		"garbage header":   {[]byte("not json\n"), "bad header"},
		"other scenario": {checkpointBytes(
			checkpointHeader{V: checkpointVersion, Scenario: "chronos", BaseSeed: 1, Seeds: 8}),
			`scenario "chronos"`},
		"future version": {checkpointBytes(
			checkpointHeader{V: 99, Scenario: "boot", BaseSeed: 1, Seeds: 8}),
			"version 99"},
		// Written by a build that could shrink a scenario's population:
		// its seeds come from another campaign, so the unknown field is
		// an error, not a silent resume at full size.
		"fast mismatch": {[]byte(`{"v":1,"scenario":"boot","base_seed":1,"seeds":8,"fast":true}` + "\n"),
			`"fast"`},
		"header trailing data": {[]byte(`{"v":1,"scenario":"boot","base_seed":1,"seeds":8} {}` + "\n"),
			"bad header"},
		"older full-size header": {append([]byte(`{"v":1,"scenario":"boot","base_seed":1,"seeds":8}`+"\n"), records...),
			""},
		"params mismatch": {checkpointBytes(
			checkpointHeader{V: checkpointVersion, Scenario: "boot", BaseSeed: 1, Seeds: 8,
				Params: scenario.Params{"client": "chrony"}}),
			"params"},
		"malformed record": {append(checkpointBytes(goodHeader()), "{oops}\n"...),
			"line 2"},
	}
	for name, tc := range cases {
		path := filepath.Join(t.TempDir(), "ck.jsonl")
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		resumed, validLen, err := loadCheckpoint(path, fuzzCfg, "boot")
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: refused: %v", name, err)
			} else if validLen != int64(len(tc.data)) || !reflect.DeepEqual(resumed, wantResumed) {
				t.Errorf("%s: resumed %d of %d bytes as %v, want %v", name, validLen, len(tc.data), resumed, wantResumed)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.want)
		}
	}
}

// TestLoadCheckpointSeedRange: only in-range seeds are resumed — the
// contract that lets one checkpoint extend a campaign to more seeds.
func TestLoadCheckpointSeedRange(t *testing.T) {
	data := checkpointBytes(goodHeader(),
		result(0, true), result(1, true), result(8, true), result(9, true))
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	resumed, _, err := loadCheckpoint(path, fuzzCfg, "boot")
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 2 {
		t.Errorf("resumed %d seeds, want 2 (seeds 1 and 8)", len(resumed))
	}
	for _, seed := range []int64{1, 8} {
		if _, ok := resumed[seed]; !ok {
			t.Errorf("in-range seed %d not resumed", seed)
		}
	}
}
