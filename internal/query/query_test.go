package query

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"

	"csrgraph/internal/csr"
	"csrgraph/internal/edgelist"
)

func buildTestGraphs(n int, numNodes uint32, seed int64) (edgelist.List, *csr.Matrix, *csr.Packed) {
	rng := rand.New(rand.NewSource(seed))
	l := make(edgelist.List, n)
	for i := range l {
		l[i] = edgelist.Edge{U: rng.Uint32() % numNodes, V: rng.Uint32() % numNodes}
	}
	l.SortByUV(1)
	l = l.Dedup()
	m := csr.Build(l, int(numNodes), 2)
	return l, m, csr.PackMatrix(m, 2)
}

func TestNeighborsBatch(t *testing.T) {
	_, m, pk := buildTestGraphs(5000, 200, 1)
	queries := make([]edgelist.NodeID, 300)
	rng := rand.New(rand.NewSource(2))
	for i := range queries {
		queries[i] = rng.Uint32() % 200
	}
	for _, p := range []int{1, 2, 4, 16} {
		for _, g := range []Source{m, pk} {
			got := NeighborsBatch(g, queries, p)
			if len(got) != len(queries) {
				t.Fatalf("p=%d: %d results", p, len(got))
			}
			for i, u := range queries {
				want := m.Neighbors(u)
				if len(got[i]) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got[i], want) {
					t.Fatalf("p=%d: result %d (node %d) = %v, want %v", p, i, u, got[i], want)
				}
			}
		}
	}
}

func TestNeighborsBatchResultsAreIndependentCopies(t *testing.T) {
	_, _, pk := buildTestGraphs(2000, 100, 3)
	queries := []edgelist.NodeID{1, 1, 2}
	got := NeighborsBatch(pk, queries, 1)
	if len(got[0]) > 0 {
		got[0][0] = 0xFFFF
		if got[1][0] == 0xFFFF {
			t.Fatal("batch results alias each other")
		}
	}
}

// TestNeighborsBatchRowsAreCallerOwned pins the ownership contract of the
// slab-per-grab layout on a decoding source (packed CSR) and on one whose
// Row hands out shared memory (plain CSR): rows of one call never overlap
// and are clipped to their length, so appending to or overwriting row i
// leaves row i+1, the source and a second call's answer intact, and a
// zero-degree row is empty rather than nil.
func TestNeighborsBatchRowsAreCallerOwned(t *testing.T) {
	_, m, pk := buildTestGraphs(400, 150, 11) // sparse: some nodes have no out-edges
	queries := make([]edgelist.NodeID, 0, 400)
	rng := rand.New(rand.NewSource(12))
	for u := uint32(0); u < 150; u++ {
		queries = append(queries, u)
	}
	for len(queries) < cap(queries) {
		queries = append(queries, rng.Uint32()%150) // repeats
	}
	for _, p := range []int{1, 2, 8} {
		for name, g := range map[string]Source{"matrix": m, "packed": pk} {
			rows := NeighborsBatch(g, queries, p)
			again := NeighborsBatch(g, queries, p)
			type span struct{ lo, hi uintptr }
			var spans []span
			empty := 0
			for i, row := range rows {
				if row == nil {
					t.Fatalf("p=%d %s: row %d (node %d) is nil", p, name, i, queries[i])
				}
				if cap(row) != len(row) {
					t.Fatalf("p=%d %s: row %d has cap %d, len %d", p, name, i, cap(row), len(row))
				}
				if len(row) == 0 {
					empty++
					continue
				}
				lo := uintptr(unsafe.Pointer(&row[0]))
				spans = append(spans, span{lo, lo + 4*uintptr(len(row))})
			}
			if empty == 0 {
				t.Fatal("test graph has no zero-degree node")
			}
			sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
			for i := 1; i < len(spans); i++ {
				if spans[i].lo < spans[i-1].hi {
					t.Fatalf("p=%d %s: two rows of one call overlap", p, name)
				}
			}
			// Scribble over and grow every even row; every odd row, the
			// source and the second call must not notice.
			for i := 0; i < len(rows); i += 2 {
				for j := range rows[i] {
					rows[i][j] = 0xFFFFFFFF
				}
				rows[i] = append(rows[i], 0xFFFFFFFF, 0xFFFFFFFF)
			}
			for i, u := range queries {
				want := m.Neighbors(u)
				if i%2 == 1 && !slices.Equal(rows[i], want) {
					t.Fatalf("p=%d %s: row %d changed when its neighbour was written", p, name, i)
				}
				if !slices.Equal(again[i], want) {
					t.Fatalf("p=%d %s: second call's row %d changed", p, name, i)
				}
			}
		}
	}
}

// stableMatrix is a plain CSR declaring its rows stable, as the shard
// engines' row table does.
type stableMatrix struct{ *csr.Matrix }

func (stableMatrix) StableRows() bool { return true }

// TestNeighborsBatchStableRowsAreNotCopied checks the StableRower contract
// from the batch side: the rows handed up are the source's own slices.
func TestNeighborsBatchStableRowsAreNotCopied(t *testing.T) {
	_, m, _ := buildTestGraphs(2000, 100, 3)
	queries := []edgelist.NodeID{1, 1, 2, 99, 0}
	for _, p := range []int{1, 4} {
		got := NeighborsBatch(stableMatrix{m}, queries, p)
		for i, u := range queries {
			want := m.Neighbors(u)
			if len(got[i]) != len(want) || (len(want) > 0 && &got[i][0] != &want[0]) {
				t.Fatalf("p=%d: row %d (node %d) is not the source's own slice", p, i, u)
			}
		}
	}
}

func TestEdgesExistBatch(t *testing.T) {
	l, m, pk := buildTestGraphs(4000, 150, 4)
	rng := rand.New(rand.NewSource(5))
	// Half real edges, half random probes.
	queries := make([]edgelist.Edge, 0, 400)
	for i := 0; i < 200; i++ {
		queries = append(queries, l[rng.Intn(len(l))])
		queries = append(queries, edgelist.Edge{U: rng.Uint32() % 150, V: rng.Uint32() % 150})
	}
	want := make([]bool, len(queries))
	for i, e := range queries {
		want[i] = m.HasEdge(e.U, e.V)
	}
	for _, p := range []int{1, 3, 8, 64} {
		for name, g := range map[string]Source{"matrix": m, "packed": pk} {
			if got := EdgesExistBatch(g, queries, p); !reflect.DeepEqual(got, want) {
				t.Fatalf("p=%d %s: linear batch existence wrong", p, name)
			}
			if got := EdgesExistBatchBinary(g, queries, p); !reflect.DeepEqual(got, want) {
				t.Fatalf("p=%d %s: binary batch existence wrong", p, name)
			}
		}
	}
}

func TestEdgeExistsSplit(t *testing.T) {
	l, m, pk := buildTestGraphs(4000, 100, 6)
	rng := rand.New(rand.NewSource(7))
	for _, p := range []int{1, 2, 4, 16} {
		for i := 0; i < 200; i++ {
			var u, v edgelist.NodeID
			if i%2 == 0 && len(l) > 0 {
				e := l[rng.Intn(len(l))]
				u, v = e.U, e.V
			} else {
				u, v = rng.Uint32()%100, rng.Uint32()%100
			}
			want := m.HasEdge(u, v)
			if got := EdgeExistsSplit(pk, u, v, p); got != want {
				t.Fatalf("p=%d: EdgeExistsSplit(%d,%d) = %v, want %v", p, u, v, got, want)
			}
		}
	}
}

func TestEdgeExistsSplitIsolatedNode(t *testing.T) {
	// Node with empty row.
	l := edgelist.List{{U: 0, V: 1}}
	m := csr.Build(l, 3, 1)
	if EdgeExistsSplit(m, 2, 0, 4) {
		t.Fatal("isolated node should have no edges")
	}
}

func TestCountBatch(t *testing.T) {
	_, m, pk := buildTestGraphs(3000, 80, 8)
	queries := make([]edgelist.NodeID, 80)
	for i := range queries {
		queries[i] = uint32(i)
	}
	want := make([]int, len(queries))
	for i, u := range queries {
		want[i] = m.Degree(u)
	}
	for _, p := range []int{1, 4, 32} {
		if got := CountBatch(pk, queries, p); !reflect.DeepEqual(got, want) {
			t.Fatalf("p=%d: CountBatch wrong", p)
		}
	}
}

func TestEmptyBatches(t *testing.T) {
	_, _, pk := buildTestGraphs(100, 20, 9)
	if got := NeighborsBatch(pk, nil, 4); len(got) != 0 {
		t.Fatal("empty neighbor batch")
	}
	if got := EdgesExistBatch(pk, nil, 4); len(got) != 0 {
		t.Fatal("empty existence batch")
	}
	if got := CountBatch(pk, nil, 4); len(got) != 0 {
		t.Fatal("empty count batch")
	}
}

// Property: batched existence over the packed CSR agrees with set
// membership of the input list, for arbitrary graphs and p.
func TestQuickExistenceAgainstSet(t *testing.T) {
	f := func(pairs []uint16, probes []uint16, p uint8) bool {
		const nn = 48
		l := make(edgelist.List, 0, len(pairs)/2)
		for i := 0; i+1 < len(pairs); i += 2 {
			l = append(l, edgelist.Edge{U: uint32(pairs[i]) % nn, V: uint32(pairs[i+1]) % nn})
		}
		l.SortByUV(1)
		l = l.Dedup()
		pk := csr.BuildPacked(l, nn, 2)
		set := make(map[edgelist.Edge]bool, len(l))
		for _, e := range l {
			set[e] = true
		}
		qs := make([]edgelist.Edge, 0, len(probes)/2)
		for i := 0; i+1 < len(probes); i += 2 {
			qs = append(qs, edgelist.Edge{U: uint32(probes[i]) % nn, V: uint32(probes[i+1]) % nn})
		}
		got := EdgesExistBatch(pk, qs, int(p))
		gotBin := EdgesExistBatchBinary(pk, qs, int(p))
		for i, q := range qs {
			if got[i] != set[q] || gotBin[i] != set[q] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
