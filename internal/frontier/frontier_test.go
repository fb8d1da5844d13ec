package frontier

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"csrgraph/internal/csr"
	"csrgraph/internal/edgelist"
)

// testGraph builds a CSR (Graph + IndexedRows + NumEdges) from explicit
// edges, optionally symmetrized.
func testGraph(edges []edgelist.Edge, numNodes int, sym bool) *csr.Matrix {
	l := edgelist.List(edges)
	if sym {
		l = l.Symmetrize()
	} else {
		l = l.Clone()
	}
	l.SortByUV(1)
	l = l.Dedup()
	return csr.Build(l, numNodes, 1)
}

func randomTestGraph(n, m int, seed int64, sym bool) *csr.Matrix {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]edgelist.Edge, m)
	for i := range edges {
		edges[i] = edgelist.Edge{U: rng.Uint32() % uint32(n), V: rng.Uint32() % uint32(n)}
	}
	return testGraph(edges, n, sym)
}

// rowOnly strips the optional interfaces off a matrix, exercising the
// decoded-row dense fallback and the no-edge-count policy path.
type rowOnly struct{ m *csr.Matrix }

func (g rowOnly) NumNodes() int                       { return g.m.NumNodes() }
func (g rowOnly) Degree(u uint32) int                 { return g.m.Degree(u) }
func (g rowOnly) Row(dst []uint32, u uint32) []uint32 { return g.m.Row(dst, u) }

func sortedIDs(vs *VertexSubset) []uint32 {
	ids := append([]uint32(nil), vs.IDs(1)...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func TestVertexSubsetRepresentations(t *testing.T) {
	const n = 150
	ids := []uint32{3, 77, 149, 64, 63, 0}
	vs := NewSparse(n, append([]uint32(nil), ids...))
	if vs.Len() != len(ids) || vs.N() != n || vs.IsEmpty() || vs.IsDense() {
		t.Fatal("sparse subset basic accessors wrong")
	}
	for _, v := range ids {
		if !vs.Contains(v) {
			t.Fatalf("missing %d", v)
		}
	}
	if vs.Contains(5) {
		t.Fatal("phantom member")
	}
	vs.toDense(2)
	if !vs.IsDense() || vs.Len() != len(ids) {
		t.Fatal("toDense lost state")
	}
	for _, v := range ids {
		if !vs.Contains(v) {
			t.Fatalf("dense missing %d", v)
		}
	}
	got := vs.IDs(2) // converts back to sparse, sorted
	want := append([]uint32(nil), ids...)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round-trip ids = %v, want %v", got, want)
	}
}

// predicateSubset serially builds the dense subset of [0, n) satisfying
// pred.
func predicateSubset(n int, pred func(v uint32) bool) *VertexSubset {
	bits := make([]uint64, denseWords(n))
	count := 0
	for v := 0; v < n; v++ {
		if pred(uint32(v)) {
			bits[v>>6] |= 1 << (v & 63)
			count++
		}
	}
	return NewDense(n, bits, count)
}

func TestVertexSubsetAllEmptySingle(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		all := predicateSubset(n, func(uint32) bool { return true })
		if all.Len() != n {
			t.Fatalf("all(%d).Len() = %d", n, all.Len())
		}
		for v := 0; v < n; v++ {
			if !all.Contains(uint32(v)) {
				t.Fatalf("all(%d) missing %d", n, v)
			}
		}
		if ids := all.IDs(3); len(ids) != n {
			t.Fatalf("all(%d) ids len %d", n, len(ids))
		}
		if !Empty(n).IsEmpty() {
			t.Fatal("Empty not empty")
		}
	}
	s := Single(10, 7)
	if s.Len() != 1 || !s.Contains(7) {
		t.Fatal("Single wrong")
	}
}

// TestFilterMatchesSerial checks a dense subset built from a predicate
// against serial enumeration after the p-way parallel dense→sparse pack.
func TestFilterMatchesSerial(t *testing.T) {
	for _, n := range []int{0, 1, 64, 100, 1000} {
		for _, p := range []int{1, 3, 8} {
			pred := func(v uint32) bool { return v%7 == 2 }
			vs := predicateSubset(n, pred)
			var want []uint32
			for v := 0; v < n; v++ {
				if pred(uint32(v)) {
					want = append(want, uint32(v))
				}
			}
			got := vs.IDs(p)
			if vs.Len() != len(want) || len(got) != len(want) {
				t.Fatalf("n=%d p=%d: Len = %d, ids %d, want %d", n, p, vs.Len(), len(got), len(want))
			}
			if len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d p=%d: got %v, want %v", n, p, got, want)
			}
		}
	}
}

func TestNewDenseLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewDense accepted a short bitmap")
		}
	}()
	NewDense(100, make([]uint64, 1), 0)
}
