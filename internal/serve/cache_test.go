package serve

import (
	"encoding/json"
	"net/http"
	"testing"

	"dnstime/internal/campaign"
	"dnstime/internal/scenario"
)

// TestCacheKeyCanonicalizationOverHTTP exercises the canonical cache key
// end to end: submissions that differ only in JSON param order or in
// spelling out engine defaults hit the cache; submissions that change any
// output-affecting field miss it.
func TestCacheKeyCanonicalizationOverHTTP(t *testing.T) {
	stSet(0)
	_, ts := testServer(t, Config{Workers: 2})

	seed := `{"scenario":"servetest","seeds":3,"params":{"tag":"ck","mode":"m"}}`
	status, v := submit(t, ts.URL, seed)
	if status != http.StatusAccepted {
		t.Fatalf("seed submission status %d", status)
	}
	waitDone(t, ts.URL, v.ID)

	hits := []struct{ name, body string }{
		{"identical", seed},
		{"shuffled param order", `{"scenario":"servetest","seeds":3,"params":{"mode":"m","tag":"ck"}}`},
		{"explicit default base seed", `{"scenario":"servetest","seeds":3,"base_seed":1,"params":{"tag":"ck","mode":"m"}}`},
		{"reordered fields", `{"params":{"tag":"ck","mode":"m"},"seeds":3,"scenario":"servetest"}`},
	}
	for _, tc := range hits {
		status, got := submit(t, ts.URL, tc.body)
		if status != http.StatusOK || !got.Cached {
			t.Errorf("%s: status %d cached %t, want a cache hit", tc.name, status, got.Cached)
		}
		if got.Key != v.Key {
			t.Errorf("%s: key %s != original %s", tc.name, got.Key, v.Key)
		}
	}

	misses := []struct{ name, body string }{
		{"different seed count", `{"scenario":"servetest","seeds":4,"params":{"tag":"ck","mode":"m"}}`},
		{"explicit base seed 0", `{"scenario":"servetest","seeds":3,"base_seed":0,"params":{"tag":"ck","mode":"m"}}`},
		{"changed param value", `{"scenario":"servetest","seeds":3,"params":{"tag":"ck","mode":"n"}}`},
		{"dropped param", `{"scenario":"servetest","seeds":3,"params":{"tag":"ck"}}`},
	}
	for _, tc := range misses {
		status, got := submit(t, ts.URL, tc.body)
		if status != http.StatusAccepted || got.Cached {
			t.Errorf("%s: status %d cached %t, want a fresh 202 job", tc.name, status, got.Cached)
		}
		if got.Key == v.Key {
			t.Errorf("%s: key collided with original spec", tc.name)
		}
		waitDone(t, ts.URL, got.ID)
	}

	var m metricsSnapshot
	getJSON(t, ts.URL+"/metrics", &m)
	if want := int64(len(hits)); m.Cache.Hits != want {
		t.Errorf("cache hits = %d, want %d", m.Cache.Hits, want)
	}
	if want := int64(1 + len(misses)); m.Cache.Misses != want {
		t.Errorf("cache misses = %d, want %d", m.Cache.Misses, want)
	}
}

// TestCacheOnlyCompleteAggregates: a cancelled (partial) campaign must
// not populate the cache — resubmitting its spec runs a fresh campaign.
func TestCacheOnlyCompleteAggregates(t *testing.T) {
	blocked, _ := stSet(1)
	_, ts := testServer(t, Config{Workers: 1})
	body := `{"scenario":"servetest","seeds":2,"params":{"tag":"partial"}}`
	_, v := submit(t, ts.URL, body)
	recvSeed(t, blocked)
	resp, err := http.Post(ts.URL+"/jobs/"+v.ID+"/cancel", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitDone(t, ts.URL, v.ID)

	stSet(0)
	status, again := submit(t, ts.URL, body)
	if status != http.StatusAccepted || again.Cached {
		t.Errorf("resubmission after partial: status %d cached %t, want fresh 202", status, again.Cached)
	}
	waitDone(t, ts.URL, again.ID)
}

// TestCacheFIFOEviction drives the cache unit directly: beyond capacity
// the oldest entry leaves first, and re-putting a key never duplicates.
func TestCacheFIFOEviction(t *testing.T) {
	c := newCache(2)
	agg := func(name string) campaign.ScenarioAggregate {
		return campaign.ScenarioAggregate{Scenario: name, Runs: 1}
	}
	c.put("a", agg("a"))
	c.put("b", agg("b"))
	c.put("a", agg("a-again")) // no-op: first complete aggregate wins
	if got, _ := c.get("a"); got.Scenario != "a" {
		t.Errorf("re-put replaced entry: %+v", got)
	}
	c.put("c", agg("c"))
	if _, ok := c.get("a"); ok {
		t.Error("oldest entry survived eviction")
	}
	for _, key := range []string{"b", "c"} {
		if _, ok := c.get(key); !ok {
			t.Errorf("entry %q evicted prematurely", key)
		}
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
}

// TestCachedReplayIsSeedOrdered: a cache-hit job replays per-run results
// in seed order regardless of the completion order the original campaign
// produced under parallel workers.
func TestCachedReplayIsSeedOrdered(t *testing.T) {
	stSet(0)
	_, ts := testServer(t, Config{Workers: 4})
	body := `{"scenario":"servetest","seeds":6,"params":{"tag":"order"}}`
	_, v := submit(t, ts.URL, body)
	waitDone(t, ts.URL, v.ID)

	_, hit := submit(t, ts.URL, body)
	lines := streamJob(t, ts.URL, hit.ID)
	var prev int64
	for _, line := range lines[:len(lines)-1] {
		var res scenario.Result
		if err := json.Unmarshal(line.Result, &res); err != nil {
			t.Fatal(err)
		}
		if res.Seed <= prev {
			t.Fatalf("cached replay out of seed order: seed %d after %d", res.Seed, prev)
		}
		prev = res.Seed
	}
}
