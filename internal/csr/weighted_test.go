package csr

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"csrgraph/internal/prefixsum"
)

func weightedFixture() []WeightedEdge {
	return []WeightedEdge{
		{U: 0, V: 1, W: 5}, {U: 0, V: 2, W: 3}, {U: 1, V: 2, W: 1},
		{U: 2, V: 3, W: 7}, {U: 3, V: 0, W: 2},
	}
}

func TestBuildWeightedBasic(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		m, err := BuildWeighted(weightedFixture(), 0, p)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
		if m.NumNodes() != 4 || m.NumEdges() != 5 {
			t.Fatalf("p=%d: n=%d m=%d", p, m.NumNodes(), m.NumEdges())
		}
		if w, ok := m.Weight(0, 2); !ok || w != 3 {
			t.Fatalf("Weight(0,2) = %d, %v", w, ok)
		}
		if _, ok := m.Weight(2, 0); ok {
			t.Fatal("nonexistent edge reported a weight")
		}
		cols, vals := m.NeighborWeights(0)
		if !reflect.DeepEqual(cols, []uint32{1, 2}) || !reflect.DeepEqual(vals, []uint32{5, 3}) {
			t.Fatalf("NeighborWeights(0) = %v, %v", cols, vals)
		}
	}
}

func TestBuildWeightedLastWinsOnDuplicates(t *testing.T) {
	edges := []WeightedEdge{
		{U: 0, V: 1, W: 5},
		{U: 0, V: 1, W: 9}, // later entry overrides
	}
	m, err := BuildWeighted(edges, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumEdges() != 1 {
		t.Fatalf("m = %d, want 1", m.NumEdges())
	}
	if w, _ := m.Weight(0, 1); w != 9 {
		t.Fatalf("weight = %d, want 9 (last wins)", w)
	}
}

func TestBuildWeightedNumNodesValidation(t *testing.T) {
	if _, err := BuildWeighted(weightedFixture(), 2, 1); err == nil {
		t.Fatal("want error for numNodes below max id")
	}
	m, err := BuildWeighted(weightedFixture(), 10, 1)
	if err != nil || m.NumNodes() != 10 {
		t.Fatalf("explicit numNodes: %v, n=%d", err, m.NumNodes())
	}
	empty, err := BuildWeighted(nil, 0, 2)
	if err != nil || empty.NumEdges() != 0 {
		t.Fatal("empty build failed")
	}
}

func TestBuildWeightedZeroWeight(t *testing.T) {
	m, err := BuildWeighted([]WeightedEdge{{U: 0, V: 1, W: 0}}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w, ok := m.Weight(0, 1); !ok || w != 0 {
		t.Fatal("zero weight must be distinguishable from missing edge")
	}
}

func TestWeightedSizeAndValidate(t *testing.T) {
	m, _ := BuildWeighted(weightedFixture(), 0, 1)
	if m.SizeBytes() != m.Matrix.SizeBytes()+int64(len(m.Vals))*4 {
		t.Fatal("SizeBytes accounting wrong")
	}
	m.Vals = m.Vals[:2]
	if err := m.Validate(); err == nil {
		t.Fatal("want vA length error")
	}
}

func TestPackWeightedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	edges := make([]WeightedEdge, 3000)
	for i := range edges {
		edges[i] = WeightedEdge{
			U: rng.Uint32() % 300, V: rng.Uint32() % 300, W: rng.Uint32() % 1000,
		}
	}
	m, err := BuildWeighted(edges, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 8} {
		pk := PackWeighted(m, p)
		back := pk.UnpackWeighted()
		if !back.Matrix.Equal(&m.Matrix) || !reflect.DeepEqual(back.Vals, m.Vals) {
			t.Fatalf("p=%d: weighted round trip mismatch", p)
		}
		// Spot-check packed weight queries.
		for i := 0; i < 200; i++ {
			u, v := rng.Uint32()%300, rng.Uint32()%300
			w1, ok1 := m.Weight(u, v)
			w2, ok2 := pk.Weight(u, v)
			if ok1 != ok2 || w1 != w2 {
				t.Fatalf("p=%d: packed Weight(%d,%d) = (%d,%v), want (%d,%v)", p, u, v, w2, ok2, w1, ok1)
			}
		}
		if pk.SizeBytes() >= m.SizeBytes() {
			t.Fatalf("p=%d: packed weighted not smaller", p)
		}
	}
}

func TestPackedWeightedRowWeights(t *testing.T) {
	m, _ := BuildWeighted(weightedFixture(), 0, 1)
	pk := PackWeighted(m, 1)
	got := pk.RowWeights(nil, 0)
	if !reflect.DeepEqual(got, []uint32{5, 3}) {
		t.Fatalf("RowWeights(0) = %v", got)
	}
}

// Property: weighted build preserves the weight of every input edge (last
// occurrence wins), independent of p.
func TestQuickWeightedBuild(t *testing.T) {
	f := func(raw []uint16, p uint8) bool {
		const n = 24
		edges := make([]WeightedEdge, 0, len(raw)/3)
		for i := 0; i+2 < len(raw); i += 3 {
			edges = append(edges, WeightedEdge{
				U: uint32(raw[i]) % n, V: uint32(raw[i+1]) % n, W: uint32(raw[i+2]),
			})
		}
		m, err := BuildWeighted(edges, n, int(p))
		if err != nil || m.Validate() != nil {
			return false
		}
		// Last weight per (u,v) from the input.
		want := map[[2]uint32]uint32{}
		for _, e := range edges {
			want[[2]uint32{e.U, e.V}] = e.W
		}
		if m.NumEdges() != len(want) {
			return false
		}
		for k, w := range want {
			got, ok := m.Weight(k[0], k[1])
			if !ok || got != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// buildWeightedReference is the pre-radix BuildWeighted pipeline
// (sort.SliceStable + last-wins dedup over a copied edge slice), kept as
// the differential reference for the fused SortKV path.
func buildWeightedReference(edges []WeightedEdge, numNodes int) (*WeightedMatrix, error) {
	sorted := make([]WeightedEdge, len(edges))
	copy(sorted, edges)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.U != b.U {
			return a.U < b.U
		}
		return a.V < b.V
	})
	out := sorted[:0]
	for i, e := range sorted {
		if i > 0 && e.U == out[len(out)-1].U && e.V == out[len(out)-1].V {
			out[len(out)-1] = e
			continue
		}
		out = append(out, e)
	}
	sorted = out
	maxNode := 0
	for _, e := range sorted {
		if int(e.U) >= maxNode {
			maxNode = int(e.U) + 1
		}
		if int(e.V) >= maxNode {
			maxNode = int(e.V) + 1
		}
	}
	if numNodes == 0 {
		numNodes = maxNode
	}
	deg := make([]uint32, numNodes)
	for _, e := range sorted {
		deg[e.U]++
	}
	off := prefixsum.Offsets(deg, 1)
	cols := make([]uint32, len(sorted))
	vals := make([]uint32, len(sorted))
	for i, e := range sorted {
		cols[i] = e.V
		vals[i] = e.W
	}
	return &WeightedMatrix{Matrix: Matrix{RowOffsets: off, Cols: cols}, Vals: vals}, nil
}

// TestBuildWeightedMatchesStableReference differentially tests the radix
// SortKV build against the retained comparison-sort reference, with heavy
// duplicate (u, v) runs so "last weight wins" is genuinely exercised.
func TestBuildWeightedMatchesStableReference(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, n := range []int{0, 1, 100, 5000} {
		edges := make([]WeightedEdge, n)
		for i := range edges {
			edges[i] = WeightedEdge{
				U: uint32(rng.Intn(40)),
				V: uint32(rng.Intn(40)),
				W: uint32(rng.Intn(1000)),
			}
		}
		want, err := buildWeightedReference(edges, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 4} {
			got, err := BuildWeighted(edges, 0, p)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("n=%d p=%d: BuildWeighted disagrees with stable-sort reference", n, p)
			}
		}
	}
}
