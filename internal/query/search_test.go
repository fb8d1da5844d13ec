package query

import (
	"math/rand"
	"reflect"
	"testing"

	"csrgraph/internal/csr"
	"csrgraph/internal/edgelist"
)

// TestEdgesExistBatchSearchDifferential checks the zero-decode engine
// against the decode-and-scan baseline on packed, plain, delta and
// cache-fronted sources, across processor counts: on a uniform graph, and
// on one whose hub row is past a cache line of packed bits, hammered by a
// third of the probes so that work-stealing grabs mix it with short rows.
func TestEdgesExistBatchSearchDifferential(t *testing.T) {
	l, m, pk := buildTestGraphs(6000, 250, 31)
	rng := rand.New(rand.NewSource(32))
	queries := make([]edgelist.Edge, 0, 600)
	for i := 0; i < 300; i++ {
		queries = append(queries, l[rng.Intn(len(l))])
		queries = append(queries, edgelist.Edge{U: rng.Uint32() % 250, V: rng.Uint32() % 250})
	}
	checkExistsDifferential(t, "uniform", m, pk, queries)

	const numNodes = 400
	hl := edgelist.List{}
	for v := uint32(0); v < 300; v += 2 {
		hl = append(hl, edgelist.Edge{U: 9, V: v})
	}
	for i := 0; i < 3000; i++ {
		hl = append(hl, edgelist.Edge{U: rng.Uint32() % numNodes, V: rng.Uint32() % numNodes})
	}
	hl.SortByUV(1)
	hl = hl.Dedup()
	hm := csr.Build(hl, numNodes, 2)
	queries = queries[:0]
	for i := 0; i < 300; i++ {
		queries = append(queries, hl[rng.Intn(len(hl))])
		queries = append(queries, edgelist.Edge{U: 9, V: rng.Uint32() % 320})
		queries = append(queries, edgelist.Edge{U: rng.Uint32() % numNodes, V: rng.Uint32() % numNodes})
	}
	checkExistsDifferential(t, "hub", hm, csr.PackMatrix(hm, 2), queries)
}

func checkExistsDifferential(t *testing.T, graph string, m *csr.Matrix, pk *csr.Packed, queries []edgelist.Edge) {
	t.Helper()
	want := EdgesExistBatch(m, queries, 1)
	sources := map[string]Source{
		"matrix": m, "packed": pk, "delta": csr.PackDelta(m, 2),
		"cached": Cached(pk, NewRowCache(1<<20)),
		"plain":  plainSource{m}, // the decoded fallback path
	}
	for _, p := range []int{1, 2, 4, 16, 64} {
		for name, g := range sources {
			if got := EdgesExistBatchSearch(g, queries, p); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s p=%d %s: search engine disagrees with linear baseline", graph, p, name)
			}
		}
	}
}

// plainSource hides a Matrix's search methods so only the Source interface
// is visible, forcing the engine's decode fallback.
type plainSource struct{ m *csr.Matrix }

func (p plainSource) NumNodes() int                                { return p.m.NumNodes() }
func (p plainSource) Degree(u edgelist.NodeID) int                 { return p.m.Degree(u) }
func (p plainSource) Row(dst []uint32, u edgelist.NodeID) []uint32 { return p.m.Row(dst, u) }

// TestSearchEngineEdgeCases pins the boundary behaviour the engine must
// get right: empty rows, probes below the first and above the last
// neighbor, duplicate query nodes in one batch, and out-of-row targets.
func TestSearchEngineEdgeCases(t *testing.T) {
	l := edgelist.List{
		{U: 1, V: 10}, {U: 1, V: 20}, {U: 1, V: 30},
		{U: 3, V: 5},
	}
	m := csr.Build(l, 40, 1)
	pk := csr.PackMatrix(m, 1)
	queries := []edgelist.Edge{
		{U: 0, V: 0},   // empty row
		{U: 0, V: 39},  // empty row, high target
		{U: 1, V: 5},   // below first neighbor
		{U: 1, V: 10},  // first neighbor
		{U: 1, V: 30},  // last neighbor
		{U: 1, V: 35},  // above last neighbor
		{U: 1, V: 15},  // gap between neighbors
		{U: 1, V: 10},  // duplicate query
		{U: 1, V: 10},  // duplicate query
		{U: 3, V: 5},   // single-element row hit
		{U: 3, V: 4},   // single-element row miss below
		{U: 3, V: 6},   // single-element row miss above
		{U: 39, V: 39}, // last node, empty row
	}
	want := []bool{false, false, false, true, true, false, false, true, true, true, false, false, false}
	for _, p := range []int{1, 4} {
		for name, g := range map[string]Source{"matrix": m, "packed": pk} {
			if got := EdgesExistBatchSearch(g, queries, p); !reflect.DeepEqual(got, want) {
				t.Fatalf("p=%d %s: got %v want %v", p, name, got, want)
			}
			if got := EdgesExistBatch(g, queries, p); !reflect.DeepEqual(got, want) {
				t.Fatalf("p=%d %s baseline: got %v want %v", p, name, got, want)
			}
		}
		for i, q := range queries {
			if got := EdgeExistsSplitSearch(pk, q.U, q.V, p); got != want[i] {
				t.Fatalf("p=%d: EdgeExistsSplitSearch(%d,%d) = %v want %v", p, q.U, q.V, got, want[i])
			}
			if got := EdgeExistsSplit(pk, q.U, q.V, p); got != want[i] {
				t.Fatalf("p=%d: EdgeExistsSplit(%d,%d) = %v want %v", p, q.U, q.V, got, want[i])
			}
		}
	}
}

// TestEdgeExistsSplitSearchHubRow splits a row long enough that every
// processor really receives a subrange, and checks targets in every
// region plus absent values.
func TestEdgeExistsSplitSearchHubRow(t *testing.T) {
	var l edgelist.List
	for v := uint32(0); v < 5000; v += 2 { // even neighbors only
		l = append(l, edgelist.Edge{U: 0, V: v})
	}
	m := csr.Build(l, 5000, 1)
	pk := csr.PackMatrix(m, 1)
	for _, p := range []int{1, 2, 8, 32} {
		for _, v := range []uint32{0, 2, 2498, 4998, 1, 2499, 4999} {
			want := v%2 == 0 && v < 5000
			if got := EdgeExistsSplitSearch(pk, 0, v, p); got != want {
				t.Fatalf("p=%d v=%d: got %v want %v", p, v, got, want)
			}
		}
	}
}

// TestNeighborsBatchDuplicateAndSkewed drives the work-stealing scheduler
// with a hub-heavy batch full of duplicate nodes — the workload static
// chunking collapses on — and checks results element-wise.
func TestNeighborsBatchDuplicateAndSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	var l edgelist.List
	for v := uint32(1); v <= 3000; v++ { // hub 0 with 3000 neighbors
		l = append(l, edgelist.Edge{U: 0, V: v})
	}
	for i := 0; i < 2000; i++ {
		l = append(l, edgelist.Edge{U: 1 + rng.Uint32()%3100, V: rng.Uint32() % 3101})
	}
	l.SortByUV(1)
	l = l.Dedup()
	m := csr.Build(l, 3101, 2)
	pk := csr.PackMatrix(m, 2)
	batch := make([]edgelist.NodeID, 500)
	for i := range batch {
		if i%3 == 0 {
			batch[i] = 0 // duplicate hub queries
		} else {
			batch[i] = rng.Uint32() % 3101
		}
	}
	for _, p := range []int{1, 2, 8} {
		for name, g := range map[string]Source{"matrix": m, "packed": pk, "cached": Cached(pk, NewRowCache(1<<20))} {
			got := NeighborsBatch(g, batch, p)
			for i, u := range batch {
				want := m.Neighbors(u)
				if len(got[i]) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got[i], want) {
					t.Fatalf("p=%d %s: result %d (node %d) wrong", p, name, i, u)
				}
			}
			// Results must be independent copies even when served from cache.
			if len(got[0]) > 0 {
				got[0][0] = 0xdead
				if got[3][0] == 0xdead {
					t.Fatalf("p=%d %s: duplicate-node results alias", p, name)
				}
			}
		}
	}
}
