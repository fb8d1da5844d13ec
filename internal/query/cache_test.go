package query

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"csrgraph/internal/csr"
	"csrgraph/internal/edgelist"
)

func TestRowCacheHitMissAndStats(t *testing.T) {
	c := NewRowCache(1 << 20)
	if _, ok := c.Get(7); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(7, []uint32{1, 2, 3})
	row, ok := c.Get(7)
	if !ok || !reflect.DeepEqual(row, []uint32{1, 2, 3}) {
		t.Fatalf("Get(7) = %v, %v", row, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Bytes != 3*4+cacheEntryOverhead {
		t.Fatalf("bytes = %d", st.Bytes)
	}
}

func TestRowCacheEvictsLRUByBytes(t *testing.T) {
	// One shard so the LRU order is globally observable.
	rowBytes := int64(100*4 + cacheEntryOverhead)
	c := NewRowCacheShards(3*rowBytes, 1)
	row := make([]uint32, 100)
	for u := uint32(0); u < 3; u++ {
		c.Put(u, row)
	}
	if st := c.Stats(); st.Entries != 3 {
		t.Fatalf("entries = %d, want 3", st.Entries)
	}
	// Touch 0 so 1 becomes least-recently-used, then insert 3.
	c.Get(0)
	c.Put(3, row)
	if _, ok := c.Get(1); ok {
		t.Fatal("LRU entry 1 survived eviction")
	}
	for _, u := range []uint32{0, 2, 3} {
		if _, ok := c.Get(u); !ok {
			t.Fatalf("entry %d evicted unexpectedly", u)
		}
	}
	if st := c.Stats(); st.Bytes > 3*rowBytes {
		t.Fatalf("bytes %d above budget %d", st.Bytes, 3*rowBytes)
	}
}

func TestRowCacheRejectsRowsLargerThanShard(t *testing.T) {
	c := NewRowCacheShards(1024, 1)
	huge := make([]uint32, 10_000) // 40KB >> 1KB budget
	c.Put(1, huge)
	if _, ok := c.Get(1); ok {
		t.Fatal("oversized row was cached")
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("stats after oversized put = %+v", st)
	}
}

func TestNewRowCacheDisabled(t *testing.T) {
	if c := NewRowCache(0); c != nil {
		t.Fatal("maxBytes=0 should disable the cache")
	}
	var nilCache *RowCache
	if st := nilCache.Stats(); st != (CacheStats{}) {
		t.Fatalf("nil cache stats = %+v", st)
	}
	src := &csr.Matrix{RowOffsets: []uint32{0, 0}, Cols: nil}
	if got := Cached(src, nil); got != Source(src) {
		t.Fatal("Cached with nil cache should return src unchanged")
	}
}

// TestCachedSourceServesCorrectRows checks the wrapper against the raw
// source under repeated (duplicate) queries, including a hub node larger
// than the entire cache capacity, which must pass through uncached but
// still correct.
func TestCachedSourceServesCorrectRows(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const numNodes = 64
	var l edgelist.List
	// Hub node 0: 2000 neighbors over a wide id space is larger than the
	// 1KB-per-shard cache below; other nodes stay small.
	hubSpace := uint32(100_000)
	seen := map[edgelist.Edge]bool{}
	for i := 0; i < 2500; i++ {
		e := edgelist.Edge{U: 0, V: rng.Uint32() % hubSpace}
		if !seen[e] {
			seen[e] = true
			l = append(l, e)
		}
	}
	for u := uint32(1); u < numNodes; u++ {
		for j := 0; j < int(u%7); j++ {
			e := edgelist.Edge{U: u, V: rng.Uint32() % hubSpace}
			if !seen[e] {
				seen[e] = true
				l = append(l, e)
			}
		}
	}
	l.SortByUV(1)
	m := csr.Build(l, 100_000, 1)
	pk := csr.PackMatrix(m, 1)
	c := NewRowCacheShards(8<<10, 8) // 1KB per shard: hub row (8KB) cannot fit
	cs := Cached(pk, c)
	for pass := 0; pass < 3; pass++ {
		for _, u := range []uint32{0, 1, 5, 1, 0, 63, 0, 5} {
			got := cs.Row(nil, u)
			want := m.Neighbors(u)
			if len(got) != len(want) {
				t.Fatalf("pass %d node %d: %d neighbors, want %d", pass, u, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("pass %d node %d: row mismatch at %d", pass, u, i)
				}
			}
		}
	}
	st := c.Stats()
	if st.Hits == 0 {
		t.Fatal("repeated small-row lookups produced no hits")
	}
	// The hub row must never have been cached.
	if _, ok := c.Get(0); ok {
		t.Fatal("hub row larger than shard budget was cached")
	}
}

// TestCachedSourceNeverWritesThroughDst pins the aliasing contract: batch
// loops recycle returned rows as the next call's dst, and the wrapper must
// ignore dst entirely or cached rows would be decoded over.
func TestCachedSourceNeverWritesThroughDst(t *testing.T) {
	l := edgelist.List{{U: 0, V: 1}, {U: 0, V: 3}, {U: 1, V: 0}, {U: 1, V: 2}, {U: 2, V: 4}}
	m := csr.Build(l, 5, 1)
	pk := csr.PackMatrix(m, 1)
	cs := Cached(pk, NewRowCache(1<<16))
	row0 := cs.Row(nil, 0) // cached now
	// Recycling row0 as dst for another node must not overwrite it.
	_ = cs.Row(row0, 1)
	if !reflect.DeepEqual(row0, []uint32{1, 3}) {
		t.Fatalf("cached row mutated through dst recycling: %v", row0)
	}
	again, _ := cs.(*CachedSource).cache.Get(0)
	if !reflect.DeepEqual(again, []uint32{1, 3}) {
		t.Fatalf("cache entry corrupted: %v", again)
	}
}

// TestRowCacheConcurrentMixedBatches hammers one cache from concurrent
// NeighborsBatch and EdgesExistBatchSearch calls; correctness is checked
// per call and the race detector (make test-race) checks the sharded
// locking.
func TestRowCacheConcurrentMixedBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var l edgelist.List
	for i := 0; i < 20_000; i++ {
		l = append(l, edgelist.Edge{U: rng.Uint32() % 500, V: rng.Uint32() % 500})
	}
	l.SortByUV(1)
	l = l.Dedup()
	m := csr.Build(l, 500, 2)
	pk := csr.PackMatrix(m, 2)
	cs := Cached(pk, NewRowCacheShards(32<<10, 4)) // small: constant churn
	nodes := make([]edgelist.NodeID, 256)
	probes := make([]edgelist.Edge, 256)
	for i := range nodes {
		nodes[i] = rng.Uint32() % 500
		probes[i] = edgelist.Edge{U: rng.Uint32() % 500, V: rng.Uint32() % 500}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				rows := NeighborsBatch(cs, nodes, 4)
				for i, u := range nodes {
					want := m.Neighbors(u)
					if len(rows[i]) != len(want) {
						t.Errorf("node %d: %d neighbors, want %d", u, len(rows[i]), len(want))
						return
					}
				}
				exist := EdgesExistBatchSearch(cs, probes, 4)
				for i, e := range probes {
					if exist[i] != m.HasEdge(e.U, e.V) {
						t.Errorf("probe %v wrong", e)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// hintedFake is a Source carrying a precomputed average-degree hint.
type hintedFake struct {
	Source
	avg int
}

func (h hintedFake) AvgDegreeHint() int { return h.avg }

// TestAvgDegreeHint pins the grain-probe hoist: sources with a hint are
// never re-probed, the cached wrapper snapshots the estimate at wrap time,
// and unhinted sources keep the NumEdges/NumNodes probe.
func TestAvgDegreeHint(t *testing.T) {
	_, m, pk := buildTestGraphs(5000, 200, 3)
	probe := pk.NumEdges()/pk.NumNodes() + 1
	if got := avgDegreeOf(pk); got != probe {
		t.Fatalf("avgDegreeOf(packed) = %d, want probe %d", got, probe)
	}
	if got := avgDegreeOf(hintedFake{Source: m, avg: 77}); got != 77 {
		t.Fatalf("avgDegreeOf(hinted) = %d, want 77", got)
	}
	// A non-positive hint is ignored (the fake exposes no edge count, so
	// the flat default applies).
	if got := avgDegreeOf(hintedFake{Source: m, avg: 0}); got != 8 {
		t.Fatalf("avgDegreeOf(zero hint) = %d, want default 8", got)
	}
	cs := Cached(pk, NewRowCache(1<<16)).(*CachedSource)
	if got := cs.AvgDegreeHint(); got != probe {
		t.Fatalf("CachedSource hint = %d, want %d", got, probe)
	}
	// dynamicGrain through the hinted wrapper matches the direct source.
	if gw, gd := dynamicGrain(cs, 4096, 4), dynamicGrain(pk, 4096, 4); gw != gd {
		t.Fatalf("dynamicGrain hinted %d != probed %d", gw, gd)
	}
	// Sources with neither hint nor edge count use the flat default.
	if got := avgDegreeOf(plainSource{m}); got != 8 {
		t.Fatalf("avgDegreeOf(plain) = %d, want default 8", got)
	}
}

// TestCachedSourceSearchBatch pins the batched search through the cache
// wrapper: forwarded to a source that searches in place, answered from
// (cached) decoded rows otherwise, and through the engine's dispatch.
func TestCachedSourceSearchBatch(t *testing.T) {
	l, m, pk := buildTestGraphs(4000, 300, 5)
	rng := rand.New(rand.NewSource(6))
	queries := make([]edgelist.Edge, 0, 600)
	for i := 0; i < 300; i++ {
		queries = append(queries, l[rng.Intn(len(l))])
		queries = append(queries, edgelist.Edge{U: rng.Uint32() % 300, V: rng.Uint32() % 300})
	}
	want := EdgesExistBatch(m, queries, 1)
	for name, src := range map[string]Source{"packed": pk, "plain": plainSource{m}} {
		cs := Cached(src, NewRowCache(1<<20)).(*CachedSource)
		got := make([]bool, len(queries))
		cs.SearchBatch(queries, got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: CachedSource.SearchBatch disagrees with baseline", name)
		}
		if got := EdgesExistBatchSearch(cs, queries, 2); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: EdgesExistBatchSearch through the cache disagrees with baseline", name)
		}
	}
}
