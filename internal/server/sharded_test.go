package server

import (
	"encoding/json"
	"maps"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"csrgraph/internal/csr"
	"csrgraph/internal/edgelist"
	"csrgraph/internal/shard"
)

// shardedPair builds the same random graph behind New and behind
// NewSharded over a k-shard router, for differential endpoint checks.
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

// TestShardedEndpointsDifferential is the whole-handler differential: New
// over a graph and NewSharded over one- and four-shard routers of it, on a
// directed graph and on its symmetric closure, answer every query endpoint
// with the same body and /stats with the same keys.
func TestShardedEndpointsDifferential(t *testing.T) {
	const n = 60
	rng := rand.New(rand.NewSource(42))
	directed := make(edgelist.List, 600)
	for i := range directed {
		directed[i] = edgelist.Edge{U: rng.Uint32() % n, V: rng.Uint32() % n}
	}
	symmetric := slices.Clone(directed)
	for _, e := range directed {
		symmetric = append(symmetric, edgelist.Edge{U: e.V, V: e.U})
	}
	var nodes []string
	for u := 0; u < n; u += 7 {
		nodes = append(nodes, strconv.Itoa(u))
	}
	urls := []string{
		"/neighbors?nodes=" + strings.Join(nodes, ","),
		"/degree?nodes=" + strings.Join(nodes, ","),
		"/exists?edges=0:1,5:9,12:3,59:0,33:33",
		"/bfs?src=0",
		"/bfs?src=41",
		"/analytics/bfs?src=0&src=7,59",
	}
	for name, l := range map[string]edgelist.List{"directed": directed, "symmetric": symmetric} {
		single, one := handlerPair(t, slices.Clone(l), n, 1)
		_, four := handlerPair(t, slices.Clone(l), n, 4)
		for _, url := range urls {
			rec, want := get(t, single, url)
			if rec.Code != 200 {
				t.Fatalf("%s %s: status %d: %s", name, url, rec.Code, want)
			}
			for k, h := range map[int]*Handler{1: one, 4: four} {
				if _, got := get(t, h, url); got != want {
					t.Fatalf("%s %s: K=%d body differs from New:\n%s\nvs\n%s", name, url, k, got, want)
				}
			}
		}
		want := statsKeys(t, single)
		for k, h := range map[int]*Handler{1: one, 4: four} {
			if got := statsKeys(t, h); !slices.Equal(got, want) {
				t.Fatalf("%s: K=%d /stats keys %v, New has %v", name, k, got, want)
			}
		}
	}
}

// statsKeys returns the sorted top-level keys of h's /stats payload.
func statsKeys(t *testing.T, h *Handler) []string {
	t.Helper()
	var out map[string]any
	if _, body := get(t, h, "/stats"); json.Unmarshal([]byte(body), &out) != nil {
		t.Fatalf("/stats is not a JSON object: %s", body)
	}
	keys := slices.Collect(maps.Keys(out))
	slices.Sort(keys)
	return keys
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
