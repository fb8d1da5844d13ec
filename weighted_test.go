package csrgraph

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestWeightedGraphPublic(t *testing.T) {
	g, err := BuildWeighted([]WeightedEdge{
		{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3}, {U: 0, V: 2, W: 10},
	}, WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 || g.Degree(0) != 2 {
		t.Fatalf("shape wrong: n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if w, ok := g.Weight(0, 1); !ok || w != 2 {
		t.Fatalf("Weight(0,1) = %d, %v", w, ok)
	}
	dist := g.ShortestDistances(0)
	if !reflect.DeepEqual(dist, []uint64{0, 2, 5}) {
		t.Fatalf("dist = %v", dist)
	}
	path, cost := g.ShortestPath(0, 2)
	if cost != 5 || !reflect.DeepEqual(path, []uint32{0, 1, 2}) {
		t.Fatalf("path = %v cost %d", path, cost)
	}
}

func TestCompressedWeightedGraphPublic(t *testing.T) {
	edges := make([]WeightedEdge, 0, 2000)
	state := uint64(3)
	next := func() uint32 {
		state = state*6364136223846793005 + 1442695040888963407
		return uint32(state >> 33)
	}
	for i := 0; i < 2000; i++ {
		edges = append(edges, WeightedEdge{U: next() % 150, V: next() % 150, W: next() % 100})
	}
	g, err := BuildWeighted(edges)
	if err != nil {
		t.Fatal(err)
	}
	cg := g.Compress()
	if cg.SizeBytes() >= g.SizeBytes() {
		t.Fatalf("compressed %d >= plain %d", cg.SizeBytes(), g.SizeBytes())
	}
	if cg.NumEdges() != g.NumEdges() || cg.NumNodes() != g.NumNodes() {
		t.Fatal("metadata mismatch")
	}
	for u := NodeID(0); u < 150; u += 11 {
		if !reflect.DeepEqual(cg.Neighbors(u), g.Neighbors(u)) &&
			!(len(cg.Neighbors(u)) == 0 && len(g.Neighbors(u)) == 0) {
			t.Fatalf("Neighbors(%d) differ", u)
		}
		for v := NodeID(0); v < 150; v += 13 {
			w1, ok1 := g.Weight(u, v)
			w2, ok2 := cg.Weight(u, v)
			if ok1 != ok2 || w1 != w2 {
				t.Fatalf("Weight(%d,%d) differ", u, v)
			}
		}
	}
	back := cg.Decompress()
	if back.NumEdges() != g.NumEdges() {
		t.Fatal("decompress mismatch")
	}
}

func TestShortestDistancesParallelPublic(t *testing.T) {
	g, err := BuildWeighted([]WeightedEdge{
		{U: 0, V: 1, W: 2}, {U: 1, V: 2, W: 3}, {U: 0, V: 2, W: 10},
	}, WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.ShortestDistancesParallel(0, 0, 2), g.ShortestDistances(0)) {
		t.Fatal("delta-stepping diverges from Dijkstra via public API")
	}
}

func TestMSTPublic(t *testing.T) {
	// Square with a heavy diagonal: MST picks three of the four sides.
	edges := []WeightedEdge{
		{U: 0, V: 1, W: 1}, {U: 1, V: 0, W: 1},
		{U: 1, V: 2, W: 2}, {U: 2, V: 1, W: 2},
		{U: 2, V: 3, W: 3}, {U: 3, V: 2, W: 3},
		{U: 3, V: 0, W: 4}, {U: 0, V: 3, W: 4},
		{U: 0, V: 2, W: 9}, {U: 2, V: 0, W: 9},
	}
	g, err := BuildWeighted(edges, WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	forest, total := g.MinimumSpanningForest(2)
	if total != 6 || len(forest) != 3 {
		t.Fatalf("forest = %v total %d", forest, total)
	}
}

func TestReadWeightedEdgeListPublic(t *testing.T) {
	got, err := ReadWeightedEdgeList(strings.NewReader("0 1 7\n# c\n2 3 1\n"))
	if err != nil || len(got) != 2 || got[0].W != 7 {
		t.Fatalf("got %v, %v", got, err)
	}
	if _, err := ReadWeightedEdgeList(strings.NewReader("0 1\n")); err == nil {
		t.Fatal("want error")
	}
}

func TestCompressedWeightedSerializationPublic(t *testing.T) {
	g, err := BuildWeighted([]WeightedEdge{{U: 0, V: 1, W: 7}, {U: 1, V: 2, W: 3}})
	if err != nil {
		t.Fatal(err)
	}
	cg := g.Compress()
	path := filepath.Join(t.TempDir(), "w.csrc")
	if err := cg.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCompressedWeightedFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if w, ok := got.Weight(0, 1); !ok || w != 7 {
		t.Fatalf("weight after round trip = %d, %v", w, ok)
	}
}

func TestSCCPublic(t *testing.T) {
	g, _ := Build([]Edge{
		{U: 0, V: 1}, {U: 1, V: 0}, // cycle {0,1}
		{U: 1, V: 2}, // 2 is its own SCC
	})
	labels := g.StronglyConnectedComponents(2)
	if !reflect.DeepEqual(labels, []uint32{0, 0, 2}) {
		t.Fatalf("SCC labels = %v", labels)
	}
}

func TestBuildWeightedNumNodesOption(t *testing.T) {
	g, err := BuildWeighted([]WeightedEdge{{U: 0, V: 1, W: 1}}, WithNumNodes(5))
	if err != nil || g.NumNodes() != 5 {
		t.Fatalf("n = %d, err %v", g.NumNodes(), err)
	}
	if _, err := BuildWeighted([]WeightedEdge{{U: 9, V: 1, W: 1}}, WithNumNodes(5)); err == nil {
		t.Fatal("want error for node space below max id")
	}
}
