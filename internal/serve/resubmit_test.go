package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestResubmitAfterEndIsFresh: a job that has turned terminal no longer
// holds its campaign key, so resubmitting its spec starts a fresh job
// (202) instead of coalescing onto the ended one. Each round resubmits
// in-process from a goroutine woken by the job's own state change, the
// fastest any client can react, so a window between the terminal state
// and the key's release shows within the rounds. A running job ends
// through the engine's cancellation and a queued one in the cancel
// handler; both are covered.
func TestResubmitAfterEndIsFresh(t *testing.T) {
	const rounds = 1000
	blocked, _ := stSet(1)
	s, _ := testServer(t, Config{Workers: 1, QueueCap: rounds + 2})
	do := func(method, path, body string) (int, jobView) {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		var v jobView
		_ = json.Unmarshal(rec.Body.Bytes(), &v)
		return rec.Code, v
	}
	// cancelAndResubmit cancels job id and returns what resubmitting body
	// answered the moment the job turned terminal.
	cancelAndResubmit := func(id, body string) (int, jobView) {
		j, ok := s.lookupJob(id)
		if !ok {
			t.Fatalf("job %s unknown", id)
		}
		type reply struct {
			code int
			v    jobView
		}
		got := make(chan reply, 1)
		go func() {
			j.mu.Lock()
			for !terminal(j.state) {
				j.cond.Wait()
			}
			j.mu.Unlock()
			code, v := do(http.MethodPost, "/jobs", body)
			got <- reply{code, v}
		}()
		if code, _ := do(http.MethodPost, "/jobs/"+id+"/cancel", ""); code != http.StatusOK {
			t.Fatalf("cancel %s: status %d", id, code)
		}
		r := <-got
		return r.code, r.v
	}
	submitFresh := func(body string) jobView {
		code, v := do(http.MethodPost, "/jobs", body)
		if code != http.StatusAccepted {
			t.Fatalf("submit: status %d, want 202", code)
		}
		return v
	}

	running := `{"scenario":"servetest","seeds":1,"params":{"tag":"running"}}`
	cur := submitFresh(running)
	for round := 0; round < rounds; round++ {
		recvSeed(t, blocked)
		code, next := cancelAndResubmit(cur.ID, running)
		if code != http.StatusAccepted {
			t.Fatalf("round %d: resubmitting a cancelled running job: status %d (state %q), want a fresh 202",
				round, code, next.State)
		}
		cur = next
	}

	// cur parks at the gate and holds the dispatcher, so these jobs queue.
	recvSeed(t, blocked)
	queued := `{"scenario":"servetest","seeds":1,"params":{"tag":"queued"}}`
	q := submitFresh(queued)
	for round := 0; round < rounds; round++ {
		code, next := cancelAndResubmit(q.ID, queued)
		if code != http.StatusAccepted {
			t.Fatalf("round %d: resubmitting a cancelled queued job: status %d (state %q), want a fresh 202",
				round, code, next.State)
		}
		q = next
	}
}
