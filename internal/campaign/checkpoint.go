package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"reflect"
	"sort"

	"dnstime/internal/obs"
	"dnstime/internal/scenario"
)

// checkpointVersion is bumped if the JSONL layout ever changes shape.
const checkpointVersion = 1

// buildRevision reports the VCS revision to stamp into checkpoint
// headers. It is a variable so tests can simulate resuming under a
// different build — obs.BuildInfo caches after the first call, and
// `go test` binaries carry no vcs.revision at all.
var buildRevision = func() string { return obs.BuildInfo().Revision }

// stampRevision returns the current build's VCS revision, or "" when the
// binary was not built from a VCS checkout ("unknown" is the BuildInfo
// placeholder, not an identity — stamping it would make every non-VCS
// build look like the same revision).
func stampRevision() string {
	if rev := buildRevision(); rev != "" && rev != "unknown" {
		return rev
	}
	return ""
}

// checkpointHeader is the first line of a checkpoint file: it pins the
// campaign identity so a checkpoint can never be resumed into a different
// experiment (or the same one at different fast/params settings), which
// would silently mix incompatible per-seed results.
type checkpointHeader struct {
	V        int             `json:"v"`
	Scenario string          `json:"scenario"`
	BaseSeed int64           `json:"base_seed"`
	Seeds    int             `json:"seeds"`
	Fast     bool            `json:"fast,omitempty"`
	Params   scenario.Params `json:"params,omitempty"`
	// Revision records the VCS revision of the binary that wrote the
	// checkpoint, when known. Per-seed results are only reproducible under
	// the same simulator code, so resuming under a different revision is
	// refused unless explicitly forced (WithResumeForce).
	Revision string `json:"revision,omitempty"`
}

// header builds the checkpoint header for one resolved engine config.
func header(cfg engineConfig, scenarioName string) checkpointHeader {
	return checkpointHeader{
		V:        checkpointVersion,
		Scenario: scenarioName,
		BaseSeed: cfg.baseSeed,
		Seeds:    cfg.seeds,
		Fast:     cfg.fast,
		Params:   cfg.params,
		Revision: stampRevision(),
	}
}

// compatible reports whether a checkpoint written under h can seed a
// campaign under the resolved config: same scenario, fast mode and
// params. The seed range may differ — the loader only reuses in-range
// seeds — so a checkpoint can also extend a campaign to more seeds.
func (h checkpointHeader) compatible(cfg engineConfig, scenarioName string) error {
	if h.V != checkpointVersion {
		return fmt.Errorf("campaign: checkpoint version %d, want %d", h.V, checkpointVersion)
	}
	if h.Scenario != scenarioName {
		return fmt.Errorf("campaign: checkpoint is for scenario %q, not %q", h.Scenario, scenarioName)
	}
	if h.Fast != cfg.fast {
		return fmt.Errorf("campaign: checkpoint fast=%t, engine fast=%t", h.Fast, cfg.fast)
	}
	if len(h.Params) != len(cfg.params) || (len(h.Params) > 0 && !reflect.DeepEqual(h.Params, cfg.params)) {
		return fmt.Errorf("campaign: checkpoint params (%s) differ from engine params (%s)",
			h.Params, cfg.params)
	}
	// The revision gate only fires when both sides are known: an old
	// checkpoint without the field, or a non-VCS build, has nothing to
	// compare — refusing there would break every `go test` resume.
	if cur := stampRevision(); h.Revision != "" && cur != "" && h.Revision != cur && !cfg.forceResume {
		return fmt.Errorf("campaign: checkpoint was written at revision %.12s, this build is %.12s — its seeds may not reproduce; pass -force (WithResumeForce) to resume anyway",
			h.Revision, cur)
	}
	return nil
}

// loadCheckpoint reads a checkpoint file and returns the recorded Results
// for seeds inside the campaign's range, keyed by seed, plus the byte
// length of the file's valid newline-terminated prefix. Results are
// reused exactly as recorded (scenario Results marshal byte-stably, so a
// resumed campaign's aggregate is byte-identical to an uninterrupted
// one).
//
// A trailing fragment with no terminating newline is the signature of a
// write torn by a hard kill or power loss — exactly the crashes
// checkpoints exist to survive — so it is ignored rather than treated as
// corruption (openCheckpoint truncates it away before appending). A
// malformed line inside the terminated prefix, or an incompatible
// header, is still an error, not a silent restart.
func loadCheckpoint(path string, cfg engineConfig, scenarioName string) (map[int64]scenario.Result, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, fmt.Errorf("campaign: resume: %w", err)
	}
	resumed := map[int64]scenario.Result{}
	var validLen int64
	lineNo := 0
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			break // torn trailing fragment: not part of the checkpoint
		}
		line := data[:nl]
		lineNo++
		if lineNo == 1 {
			var h checkpointHeader
			if err := json.Unmarshal(line, &h); err != nil {
				return nil, 0, fmt.Errorf("campaign: resume %s: bad header: %w", path, err)
			}
			if err := h.compatible(cfg, scenarioName); err != nil {
				return nil, 0, fmt.Errorf("%w (resume %s)", err, path)
			}
		} else {
			var res scenario.Result
			if err := json.Unmarshal(line, &res); err != nil {
				return nil, 0, fmt.Errorf("campaign: resume %s line %d: %w", path, lineNo, err)
			}
			if res.Seed >= cfg.baseSeed && res.Seed < cfg.baseSeed+int64(cfg.seeds) {
				resumed[res.Seed] = res
			}
		}
		validLen += int64(nl + 1)
		data = data[nl+1:]
	}
	if lineNo == 0 {
		return nil, 0, fmt.Errorf("campaign: resume %s: empty checkpoint", path)
	}
	return resumed, validLen, nil
}

// checkpointWriter appends one JSONL line per completed seed. Writes are
// serialised by the engine's fold mutex.
type checkpointWriter struct {
	f *os.File
}

// openCheckpoint prepares the checkpoint file. When the file is also the
// resume source (same path, readable, compatible header already present),
// it is truncated to its valid prefix (discarding any write torn by a
// crash) and opened for append so one file keeps growing across
// interrupted runs; otherwise it is created fresh with a header line
// followed by a replay of any resumed results, so the new checkpoint is
// complete on its own. A fresh checkpoint never replaces an existing
// file: rerunning a checkpointed campaign without resuming from it would
// otherwise wipe every seed it recorded.
func openCheckpoint(path string, cfg engineConfig, scenarioName string, resumed map[int64]scenario.Result, validLen int64) (*checkpointWriter, error) {
	if path == cfg.resume {
		if f, err := os.OpenFile(path, os.O_WRONLY, 0o644); err == nil {
			// loadCheckpoint already validated the header and measured the
			// newline-terminated prefix; drop anything torn beyond it.
			if err := f.Truncate(validLen); err != nil {
				f.Close()
				return nil, fmt.Errorf("campaign: checkpoint %s: %w", path, err)
			}
			if _, err := f.Seek(validLen, 0); err != nil {
				f.Close()
				return nil, fmt.Errorf("campaign: checkpoint %s: %w", path, err)
			}
			return &checkpointWriter{f: f}, nil
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if errors.Is(err, fs.ErrExist) {
		return nil, fmt.Errorf("campaign: checkpoint %s already exists; resume from the same path (WithResume, -resume) or remove the file", path)
	}
	if err != nil {
		return nil, fmt.Errorf("campaign: checkpoint: %w", err)
	}
	w := &checkpointWriter{f: f}
	hdr, err := json.Marshal(header(cfg, scenarioName))
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("campaign: checkpoint: %w", err)
	}
	if _, err := f.Write(append(hdr, '\n')); err != nil {
		f.Close()
		return nil, fmt.Errorf("campaign: checkpoint %s: %w", path, err)
	}
	// Replay resumed seeds in seed order so a cross-file resume still
	// yields a self-contained checkpoint.
	seeds := make([]int64, 0, len(resumed))
	for seed := range resumed {
		seeds = append(seeds, seed)
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	for _, seed := range seeds {
		if err := w.write(resumed[seed]); err != nil {
			f.Close()
			return nil, err
		}
	}
	return w, nil
}

// write appends one completed seed's Result as a JSONL line.
func (w *checkpointWriter) write(res scenario.Result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("campaign: checkpoint: %w", err)
	}
	if _, err := w.f.Write(append(b, '\n')); err != nil {
		return fmt.Errorf("campaign: checkpoint %s: %w", w.f.Name(), err)
	}
	return nil
}

// close flushes and closes the checkpoint file.
func (w *checkpointWriter) close() error {
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("campaign: checkpoint %s: %w", w.f.Name(), err)
	}
	return nil
}
