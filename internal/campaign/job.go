package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
	"strings"

	"dnstime/internal/scenario"
)

// Engine defaults, shared between the Engine's option resolution and
// JobSpec normalisation so a job that leaves a field unset addresses the
// same campaign as an Engine built without the matching option.
const (
	// DefaultSeeds is the seed count an Engine (and a JobSpec) runs when
	// none is requested.
	DefaultSeeds = 16
	// DefaultBaseSeed is the first seed when none is requested; run i uses
	// DefaultBaseSeed+i.
	DefaultBaseSeed = 1
	// MaxJobSeeds bounds a JobSpec's seed count. The dispatcher sizes its
	// result channel and reorder slots by the seed count, so an unbounded
	// request could exhaust memory and kill the whole process; at this
	// bound they take a few megabytes.
	MaxJobSeeds = 1 << 16
)

// jobKeyVersion is baked into every JobSpec.Key so the content address
// changes if the canonical layout ever does. Version 2 added the Trace
// flag to the key document, and version 3 dropped the fast flag.
const jobKeyVersion = 3

// JobSpec is the job-level wrapping of the Engine: the declarative
// identity of one campaign — which scenario, at which params, over which
// seed set. It deliberately excludes every execution knob that cannot
// change campaign output (workers, batch size, progress, checkpoint
// paths), so two specs with equal Key are guaranteed byte-identical
// campaigns and one cached aggregate can serve both. The zero values of
// Seeds and BaseSeed mean "engine default" (DefaultSeeds and
// DefaultBaseSeed); an explicit base seed 0 is expressed by pointing
// BaseSeed at 0, mirroring WithBaseSeed(0). JobSpec marshals to/from JSON
// as the submission body of the resident experiment service.
type JobSpec struct {
	// Scenario names the registered scenario to run.
	Scenario string `json:"scenario"`
	// Params overrides the scenario's defaults (validated against its
	// ParamKeys by Normalize).
	Params scenario.Params `json:"params,omitempty"`
	// Seeds is the number of independent seeds (0 = DefaultSeeds).
	Seeds int `json:"seeds,omitempty"`
	// BaseSeed is the first seed (nil = DefaultBaseSeed; an explicit 0
	// runs seeds 0, 1, …).
	BaseSeed *int64 `json:"base_seed,omitempty"`
	// Trace requests a per-seed execution trace alongside the aggregate.
	// Tracing never changes campaign output, but a traced job carries a
	// deliverable an untraced one lacks, so Trace is part of the job's
	// identity (Key) and traced jobs bypass the aggregate cache. The spec
	// does not carry the tracer itself — the execution layer supplies one
	// (WithTracerFactory).
	Trace bool `json:"trace,omitempty"`
}

// DecodeJobSpec reads one JSON job submission from r — the body of the
// resident service's POST /jobs — refusing unknown fields, so a
// misspelt field fails instead of silently running the default.
func DecodeJobSpec(r io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

// Normalize validates the spec against the scenario registry and resolves
// engine defaults: the scenario must exist, every param key must be
// declared by it, Seeds must lie in [0, MaxJobSeeds]. The returned spec is
// canonical — Seeds and BaseSeed are materialised, Params is a private
// copy (nil when empty) — so equal campaigns normalise to specs with
// equal Keys regardless of how sparsely they were written.
func (s JobSpec) Normalize() (JobSpec, error) {
	sc, ok := scenario.Lookup(s.Scenario)
	if !ok {
		return JobSpec{}, fmt.Errorf("campaign: unknown scenario %q (have: %s)",
			s.Scenario, strings.Join(scenario.Names(), ", "))
	}
	if err := sc.AcceptsParams(s.Params); err != nil {
		return JobSpec{}, fmt.Errorf("campaign: %w", err)
	}
	if s.Seeds < 0 {
		return JobSpec{}, fmt.Errorf("campaign: job seeds must not be negative (got %d)", s.Seeds)
	}
	if s.Seeds > MaxJobSeeds {
		return JobSpec{}, fmt.Errorf("campaign: job seeds must not exceed %d (got %d)", MaxJobSeeds, s.Seeds)
	}
	n := s
	if n.Seeds == 0 {
		n.Seeds = DefaultSeeds
	}
	if n.BaseSeed == nil {
		base := int64(DefaultBaseSeed)
		n.BaseSeed = &base
	} else {
		base := *n.BaseSeed
		n.BaseSeed = &base
	}
	if len(s.Params) == 0 {
		n.Params = nil
	} else {
		n.Params = make(scenario.Params, len(s.Params))
		for k, v := range s.Params {
			n.Params[k] = v
		}
	}
	return n, nil
}

// Key returns the campaign's canonical content address: a hex SHA-256
// over the normalised spec's stable JSON encoding (params marshal in
// sorted key order, so insertion order never matters; defaults are
// resolved first, so an explicit BaseSeed 1 or Seeds 16 addresses the
// same campaign as leaving them unset). Two specs share a Key exactly
// when the Engine is guaranteed to produce byte-identical aggregates for
// them at any worker count — the contract the serve-layer aggregate
// cache is built on.
func (s JobSpec) Key() (string, error) {
	n, err := s.Normalize()
	if err != nil {
		return "", err
	}
	doc := struct {
		V        int             `json:"v"`
		Scenario string          `json:"scenario"`
		BaseSeed int64           `json:"base_seed"`
		Seeds    int             `json:"seeds"`
		Trace    bool            `json:"trace"`
		Params   scenario.Params `json:"params,omitempty"`
	}{jobKeyVersion, n.Scenario, *n.BaseSeed, n.Seeds, n.Trace, n.Params}
	b, err := json.Marshal(doc)
	if err != nil {
		return "", fmt.Errorf("campaign: job key: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// CheckpointPath is where a state directory keeps the Engine checkpoint
// of the campaign with the given Key: <dir>/<key>.jsonl. The resident
// service and the search engine both persist campaigns through it, so a
// checkpoint either one writes warm-starts the same campaign in the
// other.
func CheckpointPath(dir, key string) string {
	return filepath.Join(dir, key+".jsonl")
}

// Options lowers the spec onto the Engine's option list, appending any
// execution-side extras (WithWorkers, WithProgress, WithCheckpoint, …) —
// the knobs a JobSpec deliberately does not carry because they cannot
// change campaign output.
func (s JobSpec) Options(extra ...Option) []Option {
	opts := []Option{
		WithSeeds(s.Seeds),
		WithParams(s.Params),
	}
	if s.BaseSeed != nil {
		opts = append(opts, WithBaseSeed(*s.BaseSeed))
	}
	return append(opts, extra...)
}
