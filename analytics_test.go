package csrgraph

import (
	"math"
	"reflect"
	"runtime"
	"testing"
)

func analyticsFixture(t *testing.T) (*Graph, *CompressedGraph) {
	t.Helper()
	raw, err := GenerateRMAT(10, 6000, 77, 2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(raw, WithSymmetrize(), WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	return g, g.Compress()
}

func TestBFSPlainAndCompressedAgree(t *testing.T) {
	g, cg := analyticsFixture(t)
	d1 := g.BFS(0, 1)
	d4 := g.BFS(0, 4)
	dc := cg.BFS(0, 4)
	if !reflect.DeepEqual(d1, d4) || !reflect.DeepEqual(d1, dc) {
		t.Fatal("BFS results differ across p or representation")
	}
	if d1[0] != 0 {
		t.Fatal("source distance must be 0")
	}
}

func TestBFSHybridPublic(t *testing.T) {
	g, _ := analyticsFixture(t)
	if !reflect.DeepEqual(g.BFSHybrid(0, 2), g.BFS(0, 2)) {
		t.Fatal("hybrid BFS diverges from plain BFS")
	}
	// Directed case: hybrid must pull over the true transpose.
	dg, err := Build([]Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dg.BFSHybrid(0, 2), dg.BFS(0, 2)) {
		t.Fatal("directed hybrid BFS diverges")
	}
}

// allocatedBytes reports the heap bytes f allocates.
func allocatedBytes(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSymmetrizedGraphIsItsOwnTranspose pins the promise on BFSHybrid: a
// graph built WithSymmetrize answers the four transpose-using analytics
// exactly as the same edge set built without the option (which transposes
// on every call), and allocates nothing the size of the edge array doing
// it. Derived graphs never carry the flag.
func TestSymmetrizedGraphIsItsOwnTranspose(t *testing.T) {
	raw, err := GenerateRMAT(8, 30000, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	sym, err := Build(raw, WithSymmetrize())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Build(sym.Edges()) // the same matrix, no promise recorded
	if err != nil {
		t.Fatal(err)
	}
	if !sym.symmetric || plain.symmetric {
		t.Fatalf("symmetric flag: WithSymmetrize %v, plain %v", sym.symmetric, plain.symmetric)
	}
	sub, _, err := sym.Subgraph([]NodeID{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*Graph{
		"Reverse": sym.Reverse(1), "Union": sym.Union(plain), "Subgraph": sub, "Decompress": sym.Compress().Decompress(),
	} {
		if g.symmetric {
			t.Errorf("%s of a symmetrized graph carries the symmetric flag", name)
		}
	}

	edgeArray := uint64(4 * sym.NumEdges()) // the transpose's Cols alone
	if edgeArray < 16*uint64(8*sym.NumNodes()) {
		t.Fatalf("fixture too sparse to tell an O(m) array from O(n) state: n=%d m=%d", sym.NumNodes(), sym.NumEdges())
	}
	type call struct {
		name string
		run  func(g *Graph) any
	}
	for _, c := range []call{
		{"BFSHybrid", func(g *Graph) any { return g.BFSHybrid(0, 1) }},
		{"ConnectedComponents", func(g *Graph) any { return g.ConnectedComponents(1) }},
		{"StronglyConnectedComponents", func(g *Graph) any { return g.StronglyConnectedComponents(1) }},
		{"HITS", func(g *Graph) any { h, a := g.HITS(5, 0, 1); return [][]float64{h, a} }},
	} {
		var got, want any
		symBytes := allocatedBytes(func() { got = c.run(sym) })
		plainBytes := allocatedBytes(func() { want = c.run(plain) })
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: symmetrized graph disagrees with the transposed path", c.name)
		}
		if plainBytes < edgeArray {
			t.Errorf("%s: transposed path allocated %d B, expected at least the %d B edge array", c.name, plainBytes, edgeArray)
		}
		if symBytes >= edgeArray {
			t.Errorf("%s: symmetrized call allocated %d B, an edge array is %d B", c.name, symBytes, edgeArray)
		}
	}
}

func TestConnectedComponentsPublic(t *testing.T) {
	g, err := Build([]Edge{{U: 0, V: 1}, {U: 2, V: 3}}, WithSymmetrize())
	if err != nil {
		t.Fatal(err)
	}
	labels := g.ConnectedComponents(2)
	if !reflect.DeepEqual(labels, []uint32{0, 0, 2, 2}) {
		t.Fatalf("labels = %v", labels)
	}
	cg := g.Compress()
	if !reflect.DeepEqual(cg.ConnectedComponents(2), labels) {
		t.Fatal("compressed CC disagrees")
	}
}

func TestPageRankPublic(t *testing.T) {
	g, cg := analyticsFixture(t)
	r := g.PageRank(0.85, 30, 1e-9, 2)
	rc := cg.PageRank(0.85, 30, 1e-9, 2)
	var sum float64
	for i := range r {
		sum += r[i]
		if math.Abs(r[i]-rc[i]) > 1e-12 {
			t.Fatal("compressed PageRank disagrees")
		}
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("ranks sum to %g", sum)
	}
}

func TestTrianglesAndStatsPublic(t *testing.T) {
	g, cg := analyticsFixture(t)
	if g.CountTriangles(2) != cg.CountTriangles(2) {
		t.Fatal("triangle counts differ")
	}
	st, stc := g.DegreeStats(2), cg.DegreeStats(2)
	if st.Max != stc.Max || st.Mean != stc.Mean || st.Isolated != stc.Isolated {
		t.Fatal("degree stats differ")
	}
	if st.Max <= 0 {
		t.Fatal("max degree should be positive")
	}
}

func TestTwoHopPublicConsistency(t *testing.T) {
	g, cg := analyticsFixture(t)
	// TwoHopNeighbors must agree with the SpGEMM-based TwoHopGraph plus
	// the one-hop set.
	u := NodeID(1)
	fromAlgo := g.TwoHopNeighbors(u, 2)
	if !reflect.DeepEqual(fromAlgo, cg.TwoHopNeighbors(u, 2)) {
		t.Fatal("compressed two-hop disagrees")
	}
	sq := g.TwoHopGraph(2)
	set := map[uint32]bool{}
	for _, w := range g.Neighbors(u) {
		set[w] = true
	}
	for _, w := range sq.Neighbors(u) {
		set[w] = true
	}
	delete(set, u)
	if len(set) != len(fromAlgo) {
		t.Fatalf("two-hop size %d vs union size %d", len(fromAlgo), len(set))
	}
	for _, w := range fromAlgo {
		if !set[w] {
			t.Fatalf("node %d missing from SpGEMM union", w)
		}
	}
}

func TestClosenessAndColoringPublic(t *testing.T) {
	g, _ := analyticsFixture(t)
	cc := g.Closeness(2)
	if len(cc) != g.NumNodes() {
		t.Fatal("closeness length wrong")
	}
	sample := g.ClosenessOf([]NodeID{0, 1}, 2)
	if math.Abs(sample[0]-cc[0]) > 1e-12 || math.Abs(sample[1]-cc[1]) > 1e-12 {
		t.Fatal("sampled closeness disagrees with full sweep")
	}
	colors, used := g.ColorGraph(2)
	if used < 1 || len(colors) != g.NumNodes() {
		t.Fatalf("coloring: %d colors over %d nodes", used, len(colors))
	}
	for u := 0; u < g.NumNodes(); u++ {
		for _, w := range g.Neighbors(uint32(u)) {
			if int(w) != u && colors[u] == colors[w] {
				t.Fatalf("improper coloring at edge (%d,%d)", u, w)
			}
		}
	}
}

func TestCommunitiesAndDiameterPublic(t *testing.T) {
	g, _ := analyticsFixture(t)
	labels := g.Communities(10, 2)
	if len(labels) != g.NumNodes() {
		t.Fatal("label length wrong")
	}
	sizes := CommunitySizes(labels)
	if len(sizes) == 0 {
		t.Fatal("no communities")
	}
	q := g.Modularity(labels, 2)
	if q < -1 || q > 1 {
		t.Fatalf("modularity %g out of range", q)
	}
	if d := g.EstimateDiameter(0, 2); d < 1 {
		t.Fatalf("diameter estimate %d implausible", d)
	}
}

func TestCoreAndClusteringPublic(t *testing.T) {
	g, cg := analyticsFixture(t)
	if !reflect.DeepEqual(g.CoreNumbers(2), cg.CoreNumbers(2)) {
		t.Fatal("core numbers differ between plain and compressed")
	}
	lc, lcc := g.LocalClustering(2), cg.LocalClustering(2)
	for i := range lc {
		if math.Abs(lc[i]-lcc[i]) > 1e-12 {
			t.Fatal("local clustering differs")
		}
	}
	avg, count := g.GlobalClustering(2)
	avgC, countC := cg.GlobalClustering(2)
	if count != countC || math.Abs(avg-avgC) > 1e-12 {
		t.Fatal("global clustering differs")
	}
	if count == 0 || avg <= 0 || avg > 1 {
		t.Fatalf("implausible clustering: %g over %d nodes", avg, count)
	}
}

func TestReversePublic(t *testing.T) {
	g, err := Build([]Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	r := g.Reverse(2)
	if !r.HasEdge(1, 0) || !r.HasEdge(2, 1) || r.HasEdge(0, 1) {
		t.Fatalf("reverse edges wrong: %v", r.Edges())
	}
	if r.NumEdges() != g.NumEdges() {
		t.Fatal("edge count changed")
	}
}

func TestSpMVPublic(t *testing.T) {
	g, err := Build([]Edge{{U: 0, V: 1}, {U: 0, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	y, err := g.SpMV([]float64{0, 1, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(y, []float64{3, 0, 0}) {
		t.Fatalf("y = %v", y)
	}
	if _, err := g.SpMV([]float64{1}, 2); err == nil {
		t.Fatal("want dimension error")
	}
}
