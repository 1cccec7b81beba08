package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"reflect"

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
	// the same simulator code, so a checkpoint from a different revision
	// is set aside rather than resumed unless explicitly forced
	// (WithResumeForce).
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

// errStaleRevision reports a checkpoint header that matches the campaign
// in every field but the revision of the build that wrote it.
var errStaleRevision = errors.New("campaign: checkpoint was written at another revision")

// compatible reports whether a checkpoint written under h can seed a
// campaign under the resolved config: same scenario, fast mode and
// params. The seed range may differ — the loader only reuses in-range
// seeds — so a checkpoint can also extend a campaign to more seeds. The
// revision is compared last, so errStaleRevision means every other field
// matched.
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
	// compare — gating there would discard every `go test` checkpoint.
	if cur := stampRevision(); h.Revision != "" && cur != "" && h.Revision != cur && !cfg.forceResume {
		return errStaleRevision
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
		return nil, 0, fmt.Errorf("campaign: checkpoint: %w", err)
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
				return nil, 0, fmt.Errorf("campaign: checkpoint %s: bad header: %w", path, err)
			}
			if err := h.compatible(cfg, scenarioName); err != nil {
				return nil, 0, fmt.Errorf("%w (checkpoint %s)", err, path)
			}
		} else {
			var res scenario.Result
			if err := json.Unmarshal(line, &res); err != nil {
				return nil, 0, fmt.Errorf("campaign: checkpoint %s line %d: %w", path, lineNo, err)
			}
			if res.Seed >= cfg.baseSeed && res.Seed < cfg.baseSeed+int64(cfg.seeds) {
				resumed[res.Seed] = res
			}
		}
		validLen += int64(nl + 1)
		data = data[nl+1:]
	}
	if lineNo == 0 {
		return nil, 0, fmt.Errorf("campaign: checkpoint %s: empty checkpoint", path)
	}
	return resumed, validLen, nil
}

// checkpointWriter appends one JSONL line per completed seed. Writes are
// serialised by the engine's fold mutex.
type checkpointWriter struct {
	f *os.File
}

// openCheckpoint opens the campaign's checkpoint for appending and
// returns the in-range seeds it already records. A missing file is
// created with the campaign's header. An existing one is loaded, so a
// header for another campaign is refused before a byte of the file
// changes; a compatible one is truncated to its newline-terminated
// prefix, dropping any write torn by a crash, and appended to, so one
// file keeps growing across interrupted runs. A header refused only for
// its revision is renamed to <path>.stale, replacing any earlier one, and
// the campaign starts afresh at path.
func openCheckpoint(path string, cfg engineConfig, scenarioName string) (map[int64]scenario.Result, *checkpointWriter, error) {
	resumed, validLen, err := loadCheckpoint(path, cfg, scenarioName)
	switch {
	case err == nil:
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err == nil {
			if err = f.Truncate(validLen); err != nil {
				f.Close()
			}
		}
		if err != nil {
			return nil, nil, fmt.Errorf("campaign: checkpoint: %w", err)
		}
		return resumed, &checkpointWriter{f: f}, nil
	case errors.Is(err, errStaleRevision):
		// The recorded seeds may not reproduce under this build: keep
		// them for inspection, out of the campaign's way.
		if err := os.Rename(path, path+".stale"); err != nil {
			return nil, nil, fmt.Errorf("campaign: checkpoint: %w", err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return nil, nil, err
	}
	hdr, err := json.Marshal(header(cfg, scenarioName))
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: checkpoint: %w", err)
	}
	// O_EXCL: a file that appeared since it was found missing is never
	// truncated.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("campaign: checkpoint: %w", err)
	}
	if _, err := f.Write(append(hdr, '\n')); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("campaign: checkpoint %s: %w", path, err)
	}
	return nil, &checkpointWriter{f: f}, nil
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
