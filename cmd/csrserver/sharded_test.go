package main

import (
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"csrgraph/internal/csr"
	"csrgraph/internal/edgelist"
	"csrgraph/internal/mgraph"
	"csrgraph/internal/shard"
)

// writeShardedGraph builds one random graph and writes it to dir twice: a
// plain packed container, and a 4-shard manifest plus per-shard containers.
func writeShardedGraph(t *testing.T, dir string, n, m, k int) (plain, manifest string) {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	l := make(edgelist.List, m)
	for i := range l {
		l[i] = edgelist.Edge{U: rng.Uint32() % uint32(n), V: rng.Uint32() % uint32(n)}
	}
	l.SortByUV(1)
	l = l.Dedup()
	plain = filepath.Join(dir, "g.csrc")
	if err := mgraph.WritePackedFile(plain, csr.BuildPacked(l, n, 2)); err != nil {
		t.Fatal(err)
	}
	mx := csr.Build(l, n, 2)
	part, err := shard.CutByEdges(mx.RowOffsets, k)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := shard.Split(mx, part, 2)
	if err != nil {
		t.Fatal(err)
	}
	manifest = filepath.Join(dir, "g.shards.json")
	if _, err := shard.WriteShards(manifest, shards, part, 2); err != nil {
		t.Fatal(err)
	}
	return plain, manifest
}

// TestBuildHandlerSharded cuts a plain graph in process with -shards and
// checks the handler serves the sharded stats topology.
func TestBuildHandlerSharded(t *testing.T) {
	plain, _ := writeShardedGraph(t, t.TempDir(), 50, 400, 4)
	h, desc, err := buildHandler(serveConfig{graphPath: plain, procs: 2, cacheMB: 4, shards: 4, replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(desc, "4 shards x 2 replicas") {
		t.Fatalf("desc = %q", desc)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	if rec.Code != 200 {
		t.Fatalf("stats = %d: %s", rec.Code, rec.Body.String())
	}
	var out struct {
		Nodes    int    `json:"nodes"`
		Strategy string `json:"strategy"`
		Shards   []struct {
			Replicas []struct{} `json:"replicas"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Nodes != 50 || out.Strategy != "range" || len(out.Shards) != 4 {
		t.Fatalf("stats = %s", rec.Body.String())
	}
	for s, sh := range out.Shards {
		if len(sh.Replicas) != 2 {
			t.Fatalf("shard %d has %d replicas, want 2", s, len(sh.Replicas))
		}
	}
}

// TestBuildHandlerManifest serves from an offline cut and checks the
// sharded answers match the unsharded handler over the same graph.
func TestBuildHandlerManifest(t *testing.T) {
	plain, manifest := writeShardedGraph(t, t.TempDir(), 50, 400, 4)
	single, _, err := buildHandler(serveConfig{graphPath: plain, procs: 2, cacheMB: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, verify := range []bool{false, true} {
		sharded, desc, err := buildHandler(serveConfig{graphPath: manifest, procs: 2, cacheMB: 4, verify: verify})
		if err != nil {
			t.Fatalf("verify=%v: %v", verify, err)
		}
		if !strings.Contains(desc, "4 shards") || !strings.Contains(desc, "range cut") {
			t.Fatalf("desc = %q", desc)
		}
		for _, url := range []string{
			"/neighbors?nodes=0,7,14,21,28,35,42,49",
			"/degree?nodes=0,1,2,3,4",
			"/exists?edges=0:1,10:20,49:0",
		} {
			rec1 := httptest.NewRecorder()
			single.ServeHTTP(rec1, httptest.NewRequest("GET", url, nil))
			rec2 := httptest.NewRecorder()
			sharded.ServeHTTP(rec2, httptest.NewRequest("GET", url, nil))
			if rec1.Code != 200 || rec2.Code != 200 {
				t.Fatalf("%s: status %d vs %d", url, rec1.Code, rec2.Code)
			}
			if rec1.Body.String() != rec2.Body.String() {
				t.Fatalf("%s: bodies differ:\n%s\nvs\n%s", url, rec1.Body, rec2.Body)
			}
		}
	}
}

// TestBuildHandlerShardErrors pins the flag-conflict contract around the
// sharded tier.
func TestBuildHandlerShardErrors(t *testing.T) {
	plain, manifest := writeShardedGraph(t, t.TempDir(), 50, 400, 4)
	if _, _, err := buildHandler(serveConfig{temporalPath: "t.csrc", procs: 2, shards: 2}); err == nil {
		t.Fatal("want error for -temporal with -shards")
	}
	// -shards matching the manifest's count is allowed; a mismatch is not.
	if _, _, err := buildHandler(serveConfig{graphPath: manifest, procs: 2, shards: 4}); err != nil {
		t.Fatalf("matching -shards rejected: %v", err)
	}
	if _, _, err := buildHandler(serveConfig{graphPath: manifest, procs: 2, shards: 8}); err == nil ||
		!strings.Contains(err.Error(), "conflicts") {
		t.Fatalf("mismatched -shards = %v, want conflict error", err)
	}
	if _, _, err := buildHandler(serveConfig{graphPath: "/nonexistent.csrc", procs: 2, shards: 2}); err == nil {
		t.Fatal("want error for missing graph with -shards")
	}
	// More shards than nodes is legal: the cut yields empty shards the
	// router never routes to.
	if _, _, err := buildHandler(serveConfig{graphPath: plain, procs: 2, shards: 51}); err != nil {
		t.Fatalf("51-shard cut of a 50-node graph rejected: %v", err)
	}
}
