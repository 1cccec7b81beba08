package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"dnstime/internal/campaign"
	"dnstime/internal/obs"
	"dnstime/internal/scenario"
)

// Job lifecycle states, as reported by the status and list endpoints.
const (
	stateQueued   = "queued"
	stateRunning  = "running"
	stateDone     = "done"
	stateFailed   = "failed"
	stateCanceled = "canceled"
)

// job is one submitted campaign moving through the queue. Its mutex
// guards every mutable field; cond broadcasts whenever results arrive or
// the state turns terminal, which is what stream handlers block on.
type job struct {
	id     string
	key    string
	spec   campaign.JobSpec // normalised
	cached bool             // served from the aggregate cache, no engine run

	mu      sync.Mutex
	cond    *sync.Cond
	state   string
	results []scenario.Result // stream replay buffer, arrival order
	agg     json.RawMessage   // aggregate (per-run stripped), set at done/canceled
	errMsg  string
	cancel  context.CancelFunc      // set while running
	traces  map[int64]*bytes.Buffer // per-seed Chrome trace buffers (trace:true jobs)
}

// newJob builds a queued job for a normalised spec.
func newJob(id, key string, spec campaign.JobSpec) *job {
	j := &job{id: id, key: key, spec: spec, state: stateQueued}
	j.cond = sync.NewCond(&j.mu)
	return j
}

// newCachedJob builds an already-done job backed by a cached aggregate:
// its replay buffer is the cached per-run results in seed order, and its
// aggregate bytes are exactly what a fresh campaign would have produced.
func newCachedJob(id, key string, spec campaign.JobSpec, agg campaign.ScenarioAggregate) (*job, error) {
	raw, err := marshalAggregate(agg)
	if err != nil {
		return nil, err
	}
	j := newJob(id, key, spec)
	j.cached = true
	j.state = stateDone
	j.results = append([]scenario.Result(nil), agg.PerRun...)
	j.agg = raw
	return j, nil
}

// marshalAggregate renders an aggregate with its per-run results
// stripped — the same shape `experiments campaigns -json` emits without
// -perrun, so served aggregates compare byte-for-byte against the CLI.
func marshalAggregate(agg campaign.ScenarioAggregate) (json.RawMessage, error) {
	agg.PerRun = nil
	raw, err := json.Marshal(agg)
	if err != nil {
		return nil, fmt.Errorf("serve: marshal aggregate: %w", err)
	}
	return raw, nil
}

// begin transitions queued → running, installing the run's cancel
// function. It reports false when the job was cancelled while queued, in
// which case the dispatcher skips it.
func (j *job) begin(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != stateQueued {
		return false
	}
	j.state = stateRunning
	j.cancel = cancel
	j.cond.Broadcast()
	return true
}

// push appends one per-seed result to the replay buffer and wakes every
// stream subscriber.
func (j *job) push(res scenario.Result) {
	j.mu.Lock()
	j.results = append(j.results, res)
	j.cond.Broadcast()
	j.mu.Unlock()
}

// finish moves the job to a terminal state. agg may be nil (failed, or
// cancelled before any aggregate existed); errMsg carries the failure or
// cancellation reason.
func (j *job) finish(state string, agg json.RawMessage, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if terminal(j.state) {
		return
	}
	j.state = state
	j.agg = agg
	j.errMsg = errMsg
	j.cancel = nil
	j.cond.Broadcast()
}

// terminal reports whether a state is final.
func terminal(state string) bool {
	return state == stateDone || state == stateFailed || state == stateCanceled
}

// requestCancel asks the job to stop: a queued job turns canceled on the
// spot (the dispatcher will skip it), a running job has its engine
// context cancelled (the run loop records the terminal state after the
// drain). It returns the state the job was in and whether anything was
// cancelled — false for jobs already terminal.
func (j *job) requestCancel(reason string) (before string, acted bool) {
	j.mu.Lock()
	before = j.state
	if j.state == stateQueued {
		j.state = stateCanceled
		j.errMsg = reason
		j.cond.Broadcast()
		j.mu.Unlock()
		return before, true
	}
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
		return before, true
	}
	return before, false
}

// addTrace registers one seed's Chrome trace buffer. Only the map is
// guarded by the job lock — each buffer is written by exactly one engine
// worker and read only after the job turns terminal.
func (j *job) addTrace(seed int64, buf *bytes.Buffer) {
	j.mu.Lock()
	if j.traces == nil {
		j.traces = map[int64]*bytes.Buffer{}
	}
	j.traces[seed] = buf
	j.mu.Unlock()
}

// mergedTrace combines the per-seed trace buffers into one Chrome
// trace_event array in ascending seed order. done reports whether the job
// is terminal — before that the buffers are still being written and the
// merge is refused.
func (j *job) mergedTrace() (merged []byte, done bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !terminal(j.state) {
		return nil, false
	}
	seeds := make([]int64, 0, len(j.traces))
	for seed := range j.traces {
		seeds = append(seeds, seed)
	}
	sort.Slice(seeds, func(a, b int) bool { return seeds[a] < seeds[b] })
	parts := make([][]byte, len(seeds))
	for i, seed := range seeds {
		parts[i] = j.traces[seed].Bytes()
	}
	return obs.MergeChrome(parts...), true
}

// wake re-broadcasts the condition; stream handlers register it as a
// context.AfterFunc so a disconnecting client unblocks its own wait.
func (j *job) wake() {
	j.mu.Lock()
	j.cond.Broadcast()
	j.mu.Unlock()
}

// jobView is the JSON rendering of a job for the submit, status and list
// endpoints.
type jobView struct {
	ID       string          `json:"id"`
	Key      string          `json:"key"`
	State    string          `json:"state"`
	Scenario string          `json:"scenario"`
	Params   scenario.Params `json:"params,omitempty"`
	Seeds    int             `json:"seeds"`
	BaseSeed int64           `json:"base_seed"`
	Trace    bool            `json:"trace,omitempty"`
	Cached   bool            `json:"cached,omitempty"`
	RunsDone int             `json:"runs_done"`
	Error    string          `json:"error,omitempty"`
	Agg      json.RawMessage `json:"aggregate,omitempty"`
}

// view snapshots the job for JSON rendering. withAgg includes the
// aggregate bytes (status endpoint); the list endpoint omits them to
// stay light.
func (j *job) view(withAgg bool) jobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := jobView{
		ID: j.id, Key: j.key, State: j.state,
		Scenario: j.spec.Scenario, Params: j.spec.Params,
		Seeds: j.spec.Seeds, Trace: j.spec.Trace,
		Cached: j.cached, RunsDone: len(j.results), Error: j.errMsg,
	}
	if j.spec.BaseSeed != nil {
		v.BaseSeed = *j.spec.BaseSeed
	}
	if withAgg {
		v.Agg = j.agg
	}
	return v
}
