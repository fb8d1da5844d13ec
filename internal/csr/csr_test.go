package csr

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"csrgraph/internal/edgelist"
)

// paperGraph returns the 10-node graph of the paper's Table I as a sorted
// edge list.
func paperGraph() edgelist.List {
	l := edgelist.List{
		{U: 0, V: 5}, {U: 1, V: 6}, {U: 1, V: 7}, {U: 2, V: 7}, {U: 3, V: 8},
		{U: 3, V: 9}, {U: 4, V: 9}, {U: 5, V: 0}, {U: 6, V: 1}, {U: 7, V: 1},
		{U: 7, V: 2}, {U: 8, V: 2}, {U: 8, V: 3}, {U: 9, V: 3},
	}
	return l
}

func randomSortedList(n int, maxNode uint32, seed int64) edgelist.List {
	rng := rand.New(rand.NewSource(seed))
	l := make(edgelist.List, n)
	for i := range l {
		l[i] = edgelist.Edge{U: rng.Uint32() % maxNode, V: rng.Uint32() % maxNode}
	}
	l.SortByUV(1)
	return l.Dedup()
}

func TestBuildPaperTableI(t *testing.T) {
	m := BuildSequential(paperGraph(), 10)
	wantOff := []uint32{0, 1, 3, 4, 6, 7, 8, 9, 11, 13, 14}
	wantCols := []uint32{5, 6, 7, 7, 8, 9, 9, 0, 1, 1, 2, 2, 3, 3}
	if !reflect.DeepEqual(m.RowOffsets, wantOff) {
		t.Fatalf("RowOffsets = %v, want %v", m.RowOffsets, wantOff)
	}
	if !reflect.DeepEqual(m.Cols, wantCols) {
		t.Fatalf("Cols = %v, want %v", m.Cols, wantCols)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.NumNodes() != 10 || m.NumEdges() != 14 {
		t.Fatalf("n=%d m=%d", m.NumNodes(), m.NumEdges())
	}
}

func TestParallelBuildMatchesSequential(t *testing.T) {
	for _, n := range []int{0, 1, 2, 100, 5000} {
		l := randomSortedList(n, 200, int64(n))
		want := BuildSequential(l, 200)
		for _, p := range []int{1, 2, 3, 4, 16, 64} {
			got := Build(l, 200, p)
			if !got.Equal(want) {
				t.Fatalf("n=%d p=%d: parallel build diverges", n, p)
			}
		}
	}
}

func TestFromEdgeListUnsorted(t *testing.T) {
	l := edgelist.List{{U: 3, V: 1}, {U: 0, V: 2}, {U: 3, V: 1}, {U: 1, V: 0}}
	m := FromEdgeList(l, 2)
	if m.NumNodes() != 4 || m.NumEdges() != 3 {
		t.Fatalf("n=%d m=%d, want 4, 3", m.NumNodes(), m.NumEdges())
	}
	if !m.HasEdge(3, 1) || !m.HasEdge(0, 2) || !m.HasEdge(1, 0) || m.HasEdge(1, 2) {
		t.Fatal("edge membership wrong after FromEdgeList")
	}
	// Input must not have been reordered in place.
	if l[0] != (edgelist.Edge{U: 3, V: 1}) {
		t.Fatal("FromEdgeList mutated its input")
	}
}

// TestBuildRefusesUnsortedRow: Build and BuildPacked copy the destination
// column in list order, so a list sorted by u but not by v would give an
// unsorted row that HasEdgeBinary misses; both refuse it at every p.
func TestBuildRefusesUnsortedRow(t *testing.T) {
	l := edgelist.List{{U: 0, V: 1}, {U: 0, V: 3}, {U: 1, V: 2}, {U: 1, V: 0}, {U: 2, V: 1}}
	for _, p := range []int{1, 2, 4} {
		for name, build := range map[string]func(){
			"Build":       func() { Build(l, 3, p) },
			"BuildPacked": func() { BuildPacked(l, 3, p) },
		} {
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.Contains(msg, "not sorted by (u, v) at index 3") {
						t.Fatalf("%s p=%d: panic %q, want one naming index 3", name, p, msg)
					}
				}()
				build()
			}()
		}
	}
}

func TestNeighborsAndDegree(t *testing.T) {
	m := BuildSequential(paperGraph(), 10)
	if got := m.Neighbors(7); !reflect.DeepEqual(got, []uint32{1, 2}) {
		t.Fatalf("Neighbors(7) = %v", got)
	}
	if m.Degree(7) != 2 || m.Degree(0) != 1 {
		t.Fatalf("degrees wrong: %d, %d", m.Degree(7), m.Degree(0))
	}
	if len(m.Neighbors(4)) != 1 {
		t.Fatalf("Neighbors(4) = %v", m.Neighbors(4))
	}
}

func TestHasEdgeVariantsAgree(t *testing.T) {
	l := randomSortedList(3000, 150, 9)
	m := Build(l, 150, 4)
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 2000; i++ {
		u, v := rng.Uint32()%150, rng.Uint32()%150
		lin := m.HasEdge(u, v)
		bin := m.HasEdgeBinary(u, v)
		if lin != bin {
			t.Fatalf("HasEdge(%d,%d)=%v but HasEdgeBinary=%v", u, v, lin, bin)
		}
	}
	// Every input edge must exist.
	for _, e := range l {
		if !m.HasEdge(e.U, e.V) || !m.HasEdgeBinary(e.U, e.V) {
			t.Fatalf("input edge (%d,%d) missing", e.U, e.V)
		}
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	l := randomSortedList(500, 64, 11)
	m := Build(l, 64, 3)
	if !reflect.DeepEqual(m.Edges(), l) {
		t.Fatal("Edges() does not reproduce the input list")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	good := BuildSequential(paperGraph(), 10)
	cases := map[string]func(m *Matrix){
		"nonzero first offset": func(m *Matrix) { m.RowOffsets[0] = 1 },
		"decreasing offsets":   func(m *Matrix) { m.RowOffsets[5] = 0 },
		"wrong total":          func(m *Matrix) { m.RowOffsets[10] = 99 },
		"col out of range":     func(m *Matrix) { m.Cols[0] = 10 },
	}
	for name, corrupt := range cases {
		m := &Matrix{
			RowOffsets: append([]uint32{}, good.RowOffsets...),
			Cols:       append([]uint32{}, good.Cols...),
		}
		corrupt(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted corrupt matrix", name)
		}
	}
	empty := &Matrix{}
	if err := empty.Validate(); err != nil {
		t.Errorf("empty matrix should validate: %v", err)
	}
}

func TestSizeBytes(t *testing.T) {
	m := BuildSequential(paperGraph(), 10)
	if got := m.SizeBytes(); got != int64(11*4+14*4) {
		t.Fatalf("SizeBytes = %d", got)
	}
}

// Property: building from any sorted dedup'd list preserves exact adjacency
// for every node, for any p.
func TestQuickBuildAdjacency(t *testing.T) {
	f := func(pairs []uint16, p uint8) bool {
		l := make(edgelist.List, 0, len(pairs)/2)
		for i := 0; i+1 < len(pairs); i += 2 {
			l = append(l, edgelist.Edge{U: uint32(pairs[i]) % 32, V: uint32(pairs[i+1]) % 32})
		}
		l.SortByUV(1)
		l = l.Dedup()
		m := Build(l, 32, int(p))
		if m.Validate() != nil {
			return false
		}
		adj := make(map[edgelist.Edge]bool, len(l))
		for _, e := range l {
			adj[e] = true
		}
		if m.NumEdges() != len(adj) {
			return false
		}
		for u := uint32(0); u < 32; u++ {
			for _, v := range m.Neighbors(u) {
				if !adj[edgelist.Edge{U: u, V: v}] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
