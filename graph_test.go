package csrgraph

import (
	"bytes"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func triangle() []Edge {
	return []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}}
}

func TestBuildBasic(t *testing.T) {
	g, err := Build(triangle(), WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if !g.HasEdge(0, 1) || g.HasEdge(1, 0) {
		t.Fatal("directed edges wrong")
	}
	if got := g.Neighbors(1); !reflect.DeepEqual(got, []uint32{2}) {
		t.Fatalf("Neighbors(1) = %v", got)
	}
}

func TestBuildDoesNotMutateInput(t *testing.T) {
	in := []Edge{{U: 5, V: 0}, {U: 0, V: 5}}
	if _, err := Build(in); err != nil {
		t.Fatal(err)
	}
	if in[0] != (Edge{U: 5, V: 0}) {
		t.Fatal("Build reordered caller's slice")
	}
}

func TestBuildSymmetrize(t *testing.T) {
	g, err := Build(triangle(), WithSymmetrize())
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 6 {
		t.Fatalf("m = %d, want 6", g.NumEdges())
	}
	if !g.HasEdge(1, 0) {
		t.Fatal("reverse edge missing")
	}
}

func TestBuildWithNumNodes(t *testing.T) {
	g, err := Build(triangle(), WithNumNodes(10))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 10 || g.Degree(9) != 0 {
		t.Fatal("isolated nodes missing")
	}
	if _, err := Build(triangle(), WithNumNodes(2)); err == nil {
		t.Fatal("want error for too-small node space")
	}
}

func TestBuildDedupsAndSorts(t *testing.T) {
	g, err := Build([]Edge{{U: 2, V: 0}, {U: 0, V: 1}, {U: 2, V: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("m = %d, want 2 after dedup", g.NumEdges())
	}
}

func TestBuildEmpty(t *testing.T) {
	g, err := Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatal("empty graph wrong")
	}
}

func TestReadEdgeList(t *testing.T) {
	g, err := ReadEdgeList(strings.NewReader("# comment\n0 1\n1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("m = %d", g.NumEdges())
	}
	if _, err := ReadEdgeList(strings.NewReader("bogus\n")); err == nil {
		t.Fatal("want parse error")
	}
}

func TestReadMETISPublic(t *testing.T) {
	const in = "5 2\n2\n1 3\n2\n\n\n" // nodes 4 and 5 isolated
	g, err := ReadMETIS(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 5 || g.NumEdges() != 4 {
		t.Fatalf("n=%d m=%d", g.NumNodes(), g.NumEdges())
	}
	if !g.HasEdge(1, 2) || g.HasEdge(0, 2) {
		t.Fatal("edges wrong")
	}
	if _, err := ReadMETIS(strings.NewReader("garbage")); err == nil {
		t.Fatal("want parse error")
	}
}

func TestCompressRoundTrip(t *testing.T) {
	raw, err := GenerateRMAT(10, 8000, 42, 2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(raw, WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	cg := g.Compress()
	if cg.SizeBytes() >= g.SizeBytes() {
		t.Fatalf("compressed %d >= plain %d", cg.SizeBytes(), g.SizeBytes())
	}
	back := cg.Decompress()
	if back.NumNodes() != g.NumNodes() || back.NumEdges() != g.NumEdges() {
		t.Fatal("decompress changed the graph")
	}
	for u := uint32(0); int(u) < g.NumNodes(); u += 37 {
		want := g.Neighbors(u)
		got := cg.Neighbors(u)
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Neighbors(%d) differ", u)
		}
	}
	if cg.NumBits() < 1 || cg.NumBits() > 32 {
		t.Fatalf("NumBits = %d", cg.NumBits())
	}
}

func TestBatchQueriesPublicAPI(t *testing.T) {
	raw, _ := GenerateUniform(100, 3000, 7, 2)
	g, err := Build(raw)
	if err != nil {
		t.Fatal(err)
	}
	cg, dg := g.Compress(), g.CompressDelta()
	nodes := []NodeID{0, 10, 50, 99, 0, 10}
	gn := g.NeighborsBatch(nodes, 2)
	cn := cg.NeighborsBatch(nodes, 2)
	dn := dg.NeighborsBatch(nodes, 2)
	for i := range nodes {
		if !reflect.DeepEqual(gn[i], cn[i]) && !(len(gn[i]) == 0 && len(cn[i]) == 0) {
			t.Fatalf("batch result %d differs between plain and compressed", i)
		}
		if !reflect.DeepEqual(gn[i], dn[i]) && !(len(gn[i]) == 0 && len(dn[i]) == 0) {
			t.Fatalf("batch result %d differs between plain and delta", i)
		}
	}
	// Neighbors results are caller-owned in every form.
	for _, neighbors := range []func(NodeID) []uint32{cg.Neighbors, dg.Neighbors} {
		if row := neighbors(0); len(row) > 0 {
			row[0] = 0xdead
			if again := neighbors(0); again[0] == 0xdead {
				t.Fatal("Neighbors result aliases the graph")
			}
		}
	}
	queries := []Edge{{U: 0, V: 1}, {U: 99, V: 0}, {U: 0, V: gn[0][0]}}
	ge := g.EdgesExistBatch(queries, 0) // 0 => default procs
	ce := cg.EdgesExistBatch(queries, 0)
	if !reflect.DeepEqual(ge, ce) || !reflect.DeepEqual(ge, dg.EdgesExistBatch(queries, 2)) {
		t.Fatal("existence batches disagree")
	}
	for i, q := range queries {
		if ge[i] != g.HasEdge(q.U, q.V) {
			t.Fatal("batch disagrees with single query")
		}
	}
	if cg.HasEdgeParallel(0, 1, 4) != cg.HasEdge(0, 1) {
		t.Fatal("HasEdgeParallel disagrees")
	}
}

func TestCompressedSerialization(t *testing.T) {
	raw, _ := GeneratePowerLaw(200, 2000, 2.3, 9, 2)
	g, err := Build(raw)
	if err != nil {
		t.Fatal(err)
	}
	cg := g.Compress()
	path := filepath.Join(t.TempDir(), "g.csrc")
	if err := cg.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCompressedFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEdges() != cg.NumEdges() || got.NumNodes() != cg.NumNodes() || got.NumBits() != cg.NumBits() {
		t.Fatal("round trip metadata mismatch")
	}
	for u := 0; u < cg.NumNodes(); u++ {
		if !reflect.DeepEqual(got.Neighbors(uint32(u)), cg.Neighbors(uint32(u))) {
			t.Fatalf("row %d differs after the file round trip", u)
		}
	}
	// A container of another form is an error, not a misread graph.
	wg, err := BuildWeighted([]WeightedEdge{{U: 0, V: 1, W: 7}})
	if err != nil {
		t.Fatal(err)
	}
	wpath := filepath.Join(t.TempDir(), "w.csrc")
	if err := wg.Compress().SaveFile(wpath); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCompressedFile(wpath); err == nil {
		t.Fatal("LoadCompressedFile accepted a weighted container")
	}
	if _, err := LoadCompressedFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("want error for a missing file")
	}
}

func TestRelabelAndDeltaCompressPublic(t *testing.T) {
	raw, err := GenerateRMAT(11, 10000, 55, 2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(raw, WithSymmetrize(), WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	byDeg, mapping, err := g.RelabelByDegree()
	if err != nil {
		t.Fatal(err)
	}
	if byDeg.NumEdges() != g.NumEdges() || len(mapping) != g.NumNodes() {
		t.Fatal("relabel changed the graph shape")
	}
	// New node 0 must be the max-degree node of the original.
	maxDeg := 0
	for u := 0; u < g.NumNodes(); u++ {
		if d := g.Degree(uint32(u)); d > maxDeg {
			maxDeg = d
		}
	}
	if byDeg.Degree(0) != maxDeg {
		t.Fatalf("new node 0 degree = %d, want max %d", byDeg.Degree(0), maxDeg)
	}
	// Structure preserved through the mapping: new edge (0, w) must exist
	// in the original as (mapping[0], mapping[w]).
	for _, w := range byDeg.Neighbors(0)[:min(5, byDeg.Degree(0))] {
		if !g.HasEdge(mapping[0], mapping[w]) {
			t.Fatal("relabeled edge missing in original")
		}
	}

	byBFS, _, err := g.RelabelByBFS(0)
	if err != nil {
		t.Fatal(err)
	}
	dg := byBFS.CompressDelta()
	if dg.NumEdges() != g.NumEdges() {
		t.Fatal("delta form lost edges")
	}
	back := dg.Decompress()
	if back.NumEdges() != g.NumEdges() {
		t.Fatal("delta decompress mismatch")
	}
	if !dg.HasEdge(0, dg.Neighbors(0)[0]) {
		t.Fatal("delta HasEdge broken")
	}
	if dg.Degree(0) != len(dg.Neighbors(0)) {
		t.Fatal("delta Degree broken")
	}
	if dg.SizeBytes() <= 0 || dg.NumNodes() != g.NumNodes() {
		t.Fatal("delta metadata broken")
	}
}

func TestSubgraphPublic(t *testing.T) {
	g, err := Build([]Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 0, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	sub, mapping, err := g.Subgraph([]NodeID{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumNodes() != 3 || sub.NumEdges() != 2 {
		t.Fatalf("n=%d m=%d", sub.NumNodes(), sub.NumEdges())
	}
	if mapping[2] != 2 {
		t.Fatalf("mapping = %v", mapping)
	}
	if _, _, err := g.Subgraph([]NodeID{0, 0}); err == nil {
		t.Fatal("want duplicate error")
	}
	// Betweenness on the public graph for coverage of the facade.
	bc := g.Betweenness(2)
	if len(bc) != 4 {
		t.Fatalf("betweenness len %d", len(bc))
	}
	nodes, _ := TopKBetweenness(bc, 1)
	if len(nodes) != 1 {
		t.Fatal("TopK wrong")
	}
	if s := g.BetweennessSample(2, 2); len(s) != 4 {
		t.Fatal("sampled betweenness wrong length")
	}
}

func TestWriteFormatsPublic(t *testing.T) {
	g, err := Build([]Edge{{U: 0, V: 1}, {U: 1, V: 0}, {U: 1, V: 2}, {U: 2, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var txt bytes.Buffer
	if err := g.WriteEdgeList(&txt); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&txt)
	if err != nil || back.NumEdges() != g.NumEdges() {
		t.Fatalf("edge list round trip: %v, m=%d", err, back.NumEdges())
	}
	var metis bytes.Buffer
	if err := g.WriteMETIS(&metis); err != nil {
		t.Fatal(err)
	}
	back2, err := ReadMETIS(&metis)
	if err != nil || back2.NumEdges() != g.NumEdges() {
		t.Fatalf("metis round trip: %v", err)
	}
	// Asymmetric graphs are rejected by the METIS writer.
	asym, _ := Build([]Edge{{U: 0, V: 1}})
	if err := asym.WriteMETIS(&bytes.Buffer{}); err == nil {
		t.Fatal("want symmetry error")
	}
}

func TestSetOpsPublic(t *testing.T) {
	a, _ := Build([]Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	b, _ := Build([]Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	u := a.Union(b)
	if u.NumEdges() != 3 || !u.HasEdge(2, 3) {
		t.Fatalf("union = %v", u.Edges())
	}
	i := a.Intersect(b)
	if i.NumEdges() != 1 || !i.HasEdge(0, 1) {
		t.Fatalf("intersect = %v", i.Edges())
	}
	d := a.Difference(b)
	if d.NumEdges() != 1 || !d.HasEdge(1, 2) {
		t.Fatalf("difference = %v", d.Edges())
	}
}

func TestHITSPublic(t *testing.T) {
	g, _ := Build([]Edge{{U: 0, V: 2}, {U: 1, V: 2}})
	hubs, auths := g.HITS(30, 1e-10, 2)
	if auths[2] <= auths[0] || hubs[0] <= hubs[2] {
		t.Fatalf("hubs=%v auths=%v", hubs, auths)
	}
}

func TestWeightedPageRankPublic(t *testing.T) {
	g, err := BuildWeighted([]WeightedEdge{
		{U: 0, V: 1, W: 9}, {U: 0, V: 2, W: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	rank := g.PageRank(0.85, 30, 1e-10, 2)
	if rank[1] <= rank[2] {
		t.Fatalf("rank = %v", rank)
	}
}

func TestEdgesAccessor(t *testing.T) {
	g, _ := Build(triangle())
	if got := g.Edges(); len(got) != 3 || got[0] != (Edge{U: 0, V: 1}) {
		t.Fatalf("Edges = %v", got)
	}
}
