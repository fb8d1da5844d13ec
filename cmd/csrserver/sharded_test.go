package main

import (
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csrgraph/internal/csr"
	"csrgraph/internal/edgelist"
	"csrgraph/internal/mgraph"
	"csrgraph/internal/shard"
)

// writeShardedGraph builds one random graph and writes it to dir twice: a
// plain packed container, and, cut the way csrconvert -partition k cuts it,
// a k-shard manifest plus per-shard containers.
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
	shards, err := shard.Split(mx, part)
	if err != nil {
		t.Fatal(err)
	}
	manifest = filepath.Join(dir, "g.shards.json")
	if _, err := shard.WriteShards(manifest, shards, part, 2); err != nil {
		t.Fatal(err)
	}
	return plain, manifest
}

// TestBuildHandlerSharded serves a 4-shard manifest with 2 replicas per
// shard: /stats shows the topology, and every query endpoint answers with
// the bytes of the same graph served whole, read into memory or mapped.
func TestBuildHandlerSharded(t *testing.T) {
	plain, manifest := writeShardedGraph(t, t.TempDir(), 50, 400, 4)
	h, desc, err := buildHandler(serveConfig{graphPath: manifest, procs: 2, cacheMB: 4, replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(desc, "4 shards x 2 replicas") {
		t.Fatalf("desc = %q", desc)
	}
	status, body := serve(h, "/stats")
	if status != 200 {
		t.Fatalf("stats = %d: %s", status, body)
	}
	var out struct {
		Nodes  int `json:"nodes"`
		Shards []struct {
			Replicas []struct{} `json:"replicas"`
		} `json:"shards"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out.Nodes != 50 || len(out.Shards) != 4 {
		t.Fatalf("stats = %s", body)
	}
	for s, sh := range out.Shards {
		if len(sh.Replicas) != 2 {
			t.Fatalf("shard %d has %d replicas, want 2", s, len(sh.Replicas))
		}
	}
	urls := []string{
		"/neighbors?nodes=0,7,14,21,28,35,42,49",
		"/degree?nodes=0,1,2,3,4,49",
		"/exists?edges=0:1,10:20,49:0,13:13",
		"/bfs?src=0",
		"/bfs?src=37",
		"/analytics/bfs?src=0&src=11,49",
	}
	for _, mmapOn := range []bool{false, true} {
		whole, _, err := buildHandler(serveConfig{graphPath: plain, procs: 2, cacheMB: 4, mmapOn: mmapOn})
		if err != nil {
			t.Fatal(err)
		}
		for _, url := range urls {
			wantStatus, want := serve(whole, url)
			gotStatus, got := serve(h, url)
			if wantStatus != 200 || gotStatus != 200 {
				t.Fatalf("mmap=%v %s: status %d whole, %d sharded", mmapOn, url, wantStatus, gotStatus)
			}
			if got != want {
				t.Fatalf("mmap=%v %s: bodies differ:\n%s\nvs whole\n%s", mmapOn, url, got, want)
			}
		}
	}
}

// serve runs one GET through h and returns its status and body.
func serve(h http.Handler, url string) (int, string) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	return rec.Code, rec.Body.String()
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

// TestBuildHandlerShardErrors pins the manifest contract: a manifest whose
// shard file is gone fails before serving, and a cut into more shards than
// nodes serves, its empty shards never routed to.
func TestBuildHandlerShardErrors(t *testing.T) {
	dir := t.TempDir()
	_, manifest := writeShardedGraph(t, dir, 50, 400, 4)
	if err := os.Remove(filepath.Join(dir, "g.shards.s3.csrc")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := buildHandler(serveConfig{graphPath: manifest, procs: 2}); err == nil || !strings.Contains(err.Error(), "shard 3") {
		t.Fatalf("manifest missing a shard file = %v, want an error naming shard 3", err)
	}
	_, wide := writeShardedGraph(t, t.TempDir(), 50, 400, 51)
	h, _, err := buildHandler(serveConfig{graphPath: wide, procs: 2, cacheMB: 4})
	if err != nil {
		t.Fatalf("51-shard cut of a 50-node graph rejected: %v", err)
	}
	if status, body := serve(h, "/neighbors?nodes=0,25,49"); status != 200 {
		t.Fatalf("51-shard cut: neighbors = %d: %s", status, body)
	}
}
