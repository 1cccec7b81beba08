package measure

import (
	"context"
	"encoding/json"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"dnstime/internal/population"
	"dnstime/internal/scenario"
)

// snoopMemoBudget is the committed bound on the heap the snoop memo keeps
// live when full.
const snoopMemoBudget = 128 << 10

// resetSnoopMemo empties the snoop memo, so a test sees first draws as
// misses.
func resetSnoopMemo() {
	snoops.mu.Lock()
	defer snoops.mu.Unlock()
	snoops.entries = nil
}

// snoopRun is a table4 or fig6 run as a campaign and the single-seed
// sections see it: its metrics as JSON, and its Detail.
type snoopRun struct {
	metrics string
	detail  SnoopResult
}

func runSnoop(name string, seed int64) (snoopRun, error) {
	res, err := scenario.Run(context.Background(), name, seed, scenario.Config{})
	if err != nil {
		return snoopRun{}, err
	}
	b, err := json.Marshal(res.Metrics)
	return snoopRun{string(b), res.Detail.(SnoopResult)}, err
}

func mustRunSnoop(t *testing.T, name string, seed int64) snoopRun {
	t.Helper()
	r, err := runSnoop(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestSnoopMemoHitEqualsMiss: table4 and fig6 each give the same metrics
// and Detail whether their draw missed the snoop memo or hit the other
// scenario's, whichever runs first. The second scenario at a seed is one
// hit and no draw.
func TestSnoopMemoHitEqualsMiss(t *testing.T) {
	const seed = 3
	alone := map[string]snoopRun{}
	for _, name := range []string{"table4", "fig6"} {
		resetSnoopMemo()
		alone[name] = mustRunSnoop(t, name, seed)
	}
	for _, order := range [][2]string{{"table4", "fig6"}, {"fig6", "table4"}} {
		resetSnoopMemo()
		hits, misses := snoopMemoHits.Value(), snoopMemoMisses.Value()
		for _, name := range order {
			if got := mustRunSnoop(t, name, seed); !reflect.DeepEqual(got, alone[name]) {
				t.Errorf("%s then %s: %s differs from its run on an empty memo", order[0], order[1], name)
			}
		}
		if h, m := snoopMemoHits.Value()-hits, snoopMemoMisses.Value()-misses; h != 1 || m != 1 {
			t.Errorf("%s then %s: %d hits and %d misses, want 1 and 1", order[0], order[1], h, m)
		}
	}
}

// TestSnoopMemoEviction: the memo holds the snoopMemoCap most recently
// used results, a lookup making its entry the most recent, and counts a
// hit or a miss per lookup; and fig6 gets the snoop table4 drew, by a hit
// while the memo holds it and by a fresh draw once it is evicted. The
// eviction order does not depend on the draw, so it is driven with
// synthetic results, one per key, and only the last part draws.
func TestSnoopMemoEviction(t *testing.T) {
	defer resetSnoopMemo()
	resetSnoopMemo()
	synthetic := func(key int64) SnoopResult { return SnoopResult{Probed: int(key), TTLCounts: []int{int(key)}} }
	lookup := func(key int64) (hit bool) {
		t.Helper()
		got, ok := snoops.get(key)
		if ok && !reflect.DeepEqual(got, synthetic(key)) {
			t.Errorf("key %d: memo returned %+v, stored %+v", key, got, synthetic(key))
		}
		return ok
	}
	const evicted = 8
	n := int64(snoopMemoCap + evicted)
	for key := range n {
		snoops.put(-1-key, synthetic(-1-key))
	}
	// Keys −1 to −8 are evicted. The oldest held key, looked up,
	// outlives the next put, which evicts the key put after it instead.
	oldest := int64(-1 - evicted)
	if !lookup(oldest) {
		t.Fatalf("key %d evicted, want held", oldest)
	}
	snoops.put(-1-n, synthetic(-1-n))
	hits, misses := snoopMemoHits.Value(), snoopMemoMisses.Value()
	for key := -1 - n; key < 0; key++ {
		if want := key <= oldest && key != oldest-1; lookup(key) != want {
			t.Errorf("key %d: held %v, want %v", key, !want, want)
		}
	}
	if h, m := snoopMemoHits.Value()-hits, snoopMemoMisses.Value()-misses; h != int64(snoopMemoCap) || m != evicted+1 {
		t.Errorf("lookups: %d hits and %d misses, want %d and %d", h, m, snoopMemoCap, evicted+1)
	}

	resetSnoopMemo()
	table4 := mustRunSnoop(t, "table4", 1).detail
	for _, want := range []struct {
		pass         string
		hits, misses int64
	}{{"held", 1, 0}, {"evicted", 0, 1}} {
		if want.pass == "evicted" {
			for key := range int64(snoopMemoCap) {
				snoops.put(-1-key, synthetic(-1-key))
			}
		}
		hits, misses := snoopMemoHits.Value(), snoopMemoMisses.Value()
		if got := mustRunSnoop(t, "fig6", 1).detail; !reflect.DeepEqual(got, table4) {
			t.Errorf("%s: fig6 snoop differs from table4's", want.pass)
		}
		if h, m := snoopMemoHits.Value()-hits, snoopMemoMisses.Value()-misses; h != want.hits || m != want.misses {
			t.Errorf("%s: fig6 cost %d hits and %d misses, want %d and %d", want.pass, h, m, want.hits, want.misses)
		}
	}
}

// TestSnoopMemoConcurrent: GOMAXPROCS goroutines run table4 and fig6 over
// shared seeds at once, each writing to what it gets back; every run sees
// the seed's own draw. Under -race this also checks the memo's locking
// and that no two runs share a slice.
func TestSnoopMemoConcurrent(t *testing.T) {
	const seeds = 4
	want := make([]SnoopResult, seeds)
	for i := range want {
		want[i] = SnoopOpenResolvers(population.DefaultOpenResolverConfig(), int64(i+1)+11)
	}
	resetSnoopMemo()
	var wg sync.WaitGroup
	for g := range max(runtime.GOMAXPROCS(0), 2) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range 2 * seeds {
				i := (g + k) % seeds
				name := [2]string{"table4", "fig6"}[(g+k/seeds)%2]
				r, err := runSnoop(name, int64(i+1))
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(r.detail, want[i]) {
					t.Errorf("goroutine %d: %s seed %d differs from its draw", g, name, i+1)
				}
				r.detail.Rows[0].Cached++
				r.detail.TTLCounts[0]++
			}
		}()
	}
	wg.Wait()
}

// TestSnoopMemoReturnsCopies: writing to the Rows or TTLCounts of a
// snoop, whether it came from a miss or a hit, changes no later hit.
func TestSnoopMemoReturnsCopies(t *testing.T) {
	want := SnoopOpenResolvers(population.DefaultOpenResolverConfig(), 5+11)
	resetSnoopMemo()
	for i := range 3 {
		got := snoopPopulation(5)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d: snoop differs from its draw", i)
		}
		got.Rows[1].Cached = -1
		got.TTLCounts[3] = -1
	}
}

// TestSnoopMemoMemoryBound: however many draws pass through it, the snoop
// memo holds snoopMemoCap entries and keeps less than snoopMemoBudget of
// heap live, with each entry the size of a default draw's (151 TTL
// counts).
func TestSnoopMemoMemoryBound(t *testing.T) {
	cfg := population.DefaultOpenResolverConfig()
	cfg.Total = 20000
	res := SnoopOpenResolvers(cfg, 12)
	if n := len(res.TTLCounts); n != cfg.RecordTTL+1 {
		t.Fatalf("%d TTL counts, want %d", n, cfg.RecordTTL+1)
	}
	defer resetSnoopMemo()
	resetSnoopMemo()
	before := liveHeap()
	for seed := range int64(200) {
		snoops.put(seed, res)
	}
	got := liveHeap() - before
	if n := len(snoops.entries); n != snoopMemoCap {
		t.Errorf("memo holds %d entries, want %d", n, snoopMemoCap)
	}
	if got > snoopMemoBudget {
		t.Errorf("full memo keeps %d bytes live, budget %d", got, snoopMemoBudget)
	}
	t.Logf("%d entries: %d bytes live, budget %d", len(snoops.entries), got, snoopMemoBudget)
}

// liveHeap returns the bytes of heap objects still reachable. It collects
// twice: sync.Pool caches survive one collection as victims.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}
