package server

import (
	"encoding/json"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"csrgraph/internal/csr"
	"csrgraph/internal/edgelist"
	"csrgraph/internal/shard"
)

// shardedPair builds the same random graph behind an unsharded handler and
// a k-shard router-backed handler, for differential endpoint checks.
func shardedPair(t *testing.T, n, m, k int, opts ...Option) (single, sharded *Handler) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	l := make(edgelist.List, m)
	for i := range l {
		l[i] = edgelist.Edge{U: rng.Uint32() % uint32(n), V: rng.Uint32() % uint32(n)}
	}
	return handlerPair(t, l, n, k, opts...)
}

// handlerPair is shardedPair over the given edges, in any order.
func handlerPair(t *testing.T, l edgelist.List, n, k int, opts ...Option) (single, sharded *Handler) {
	t.Helper()
	l.SortByUV(1)
	pk := csr.BuildPacked(l.Dedup(), n, 2)
	part, pks, err := shard.PartitionSource(pk, k, 2)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([][]*shard.Engine, k)
	for s, spk := range pks {
		engines[s] = shard.NewReplicas(s, 1, spk, shard.EngineConfig{CacheBytes: 1 << 18})
	}
	rt, err := shard.NewRouter(part, engines, shard.RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return New(pk, 2, opts...), NewSharded(rt, 2, opts...)
}

// TestShardedEndpointsDifferential compares every query endpoint's body
// between the unsharded and sharded handlers.
func TestShardedEndpointsDifferential(t *testing.T) {
	single, sharded := shardedPair(t, 60, 600, 4)
	var nodes []string
	for u := 0; u < 60; u += 7 {
		nodes = append(nodes, strconv.Itoa(u))
	}
	urls := []string{
		"/neighbors?nodes=" + strings.Join(nodes, ","),
		"/degree?nodes=" + strings.Join(nodes, ","),
		"/exists?edges=0:1,5:9,12:3,59:0,33:33",
		"/bfs?src=0",
	}
	for _, url := range urls {
		rec1, body1 := get(t, single, url)
		rec2, body2 := get(t, sharded, url)
		if rec1.Code != 200 || rec2.Code != 200 {
			t.Fatalf("%s: status %d vs %d", url, rec1.Code, rec2.Code)
		}
		if url == "/bfs?src=0" {
			// The sharded traversal has no sparse/dense phase breakdown;
			// compare the shared fields.
			var a, b map[string]any
			if err := json.Unmarshal([]byte(body1), &a); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal([]byte(body2), &b); err != nil {
				t.Fatal(err)
			}
			for _, key := range []string{"src", "reached", "distances"} {
				aj, err := json.Marshal(a[key])
				if err != nil {
					t.Fatal(err)
				}
				bj, err := json.Marshal(b[key])
				if err != nil {
					t.Fatal(err)
				}
				if string(aj) != string(bj) {
					t.Fatalf("%s: field %s differs: %s vs %s", url, key, aj, bj)
				}
			}
			continue
		}
		if body1 != body2 {
			t.Fatalf("%s: bodies differ:\n%s\nvs\n%s", url, body1, body2)
		}
	}
}

// TestShardedStatsTopology checks /stats exposes the shard layout with
// per-replica cache counters.
func TestShardedStatsTopology(t *testing.T) {
	_, sharded := shardedPair(t, 60, 600, 4)
	// Warm the caches so hit/miss counters are nonzero.
	get(t, sharded, "/neighbors?nodes=0,1,2,3,4,5,6,7,8,9")
	get(t, sharded, "/neighbors?nodes=0,1,2,3,4,5,6,7,8,9")
	rec, body := get(t, sharded, "/stats")
	if rec.Code != 200 {
		t.Fatal(body)
	}
	var out struct {
		Nodes    int    `json:"nodes"`
		Strategy string `json:"strategy"`
		Shards   []struct {
			Shard      int `json:"shard"`
			Lo         int `json:"lo"`
			Hi         int `json:"hi"`
			Nodes      int `json:"nodes"`
			QueueDepth int `json:"queue_depth"`
			Replicas   []struct {
				Inflight int `json:"inflight"`
				Cache    *struct {
					Hits   int64 `json:"Hits"`
					Misses int64 `json:"Misses"`
				} `json:"cache"`
			} `json:"replicas"`
		} `json:"shards"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("%v in %s", err, body)
	}
	if out.Nodes != 60 || out.Strategy != "range" || len(out.Shards) != 4 {
		t.Fatalf("stats = %s", body)
	}
	totalNodes, cachedHits := 0, int64(0)
	for _, s := range out.Shards {
		totalNodes += s.Nodes
		for _, r := range s.Replicas {
			if r.Cache == nil {
				t.Fatalf("shard %d missing per-replica cache stats: %s", s.Shard, body)
			}
			cachedHits += r.Cache.Hits
		}
	}
	if totalNodes != 60 {
		t.Fatalf("shard nodes sum to %d: %s", totalNodes, body)
	}
	if cachedHits == 0 {
		t.Fatalf("warm pass produced no cache hits: %s", body)
	}
}

// TestShardedMetrics checks /metrics carries the shard series and the
// labeled per-shard row-cache lines.
func TestShardedMetrics(t *testing.T) {
	_, sharded := shardedPair(t, 60, 600, 2, WithMetrics())
	get(t, sharded, "/neighbors?nodes=0,1,2,3,4,5")
	rec, body := get(t, sharded, "/metrics")
	if rec.Code != 200 {
		t.Fatal(body)
	}
	for _, want := range []string{
		"csrgraph_shard_fanout_legs",
		`csrgraph_shard_leg_seconds_count{shard="0"}`,
		`csrgraph_rowcache_misses_total{shard="0",replica="0"}`,
		`csrgraph_rowcache_misses_total{shard="1",replica="0"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestShardedBadRequests pins the 400 contract through the sharded path.
func TestShardedBadRequests(t *testing.T) {
	_, sharded := shardedPair(t, 60, 600, 2)
	for _, url := range []string{
		"/neighbors?nodes=999",
		"/exists?edges=0:999",
		"/bfs?src=999",
	} {
		if rec, _ := get(t, sharded, url); rec.Code != 400 {
			t.Fatalf("%s: status %d, want 400", url, rec.Code)
		}
	}
}
