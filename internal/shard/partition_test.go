package shard

import (
	"math/rand"
	"os"
	"reflect"
	"testing"

	"csrgraph/internal/csr"
	"csrgraph/internal/edgelist"
)

// testMatrix builds a CSR from random edges with a mild power-law skew: a
// few hub rows plus uniform noise, so edge-balanced cuts differ visibly
// from vertex-balanced ones.
func testMatrix(t testing.TB, n, m int, seed int64) *csr.Matrix {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := make([]edgelist.Edge, 0, m)
	hubs := 1 + n/50
	for i := 0; i < m; i++ {
		u := rng.Uint32() % uint32(n)
		if i%3 == 0 {
			u = rng.Uint32() % uint32(hubs) // skew a third of edges onto hubs
		}
		edges = append(edges, edgelist.Edge{U: u, V: rng.Uint32() % uint32(n)})
	}
	l := edgelist.List(edges)
	l.SortByUV(1)
	return csr.Build(l.Dedup(), n, 1)
}

func checkRoundTrip(t *testing.T, p *Partition) {
	t.Helper()
	total := 0
	for s := 0; s < p.NumShards(); s++ {
		total += p.ShardNodes(s)
	}
	if total != p.NumNodes() {
		t.Fatalf("ShardNodes sums to %d, want %d", total, p.NumNodes())
	}
	for u := uint32(0); u < uint32(p.NumNodes()); u++ {
		s, l := p.ToLocal(u)
		if s != p.ShardOf(u) {
			t.Fatalf("ToLocal(%d) shard %d != ShardOf %d", u, s, p.ShardOf(u))
		}
		if int(l) >= p.ShardNodes(s) {
			t.Fatalf("ToLocal(%d) local %d out of shard %d's %d rows", u, l, s, p.ShardNodes(s))
		}
		if g := p.ToGlobal(s, l); g != u {
			t.Fatalf("ToGlobal(ToLocal(%d)) = %d", u, g)
		}
	}
}

func TestModPartition(t *testing.T) {
	for _, k := range []int{1, 2, 3, 8} {
		p, err := Mod(103, k)
		if err != nil {
			t.Fatal(err)
		}
		checkRoundTrip(t, p)
	}
	if _, err := Mod(10, 0); err == nil {
		t.Fatal("Mod(10, 0) should fail")
	}
}

func TestRangePartition(t *testing.T) {
	p, err := Range([]uint32{0, 4, 4, 10}) // middle shard empty
	if err != nil {
		t.Fatal(err)
	}
	checkRoundTrip(t, p)
	if n := p.ShardNodes(1); n != 0 {
		t.Fatalf("empty shard has %d nodes", n)
	}
	if s := p.ShardOf(4); s != 2 {
		t.Fatalf("ShardOf(4) = %d, want 2 (shard 1 is empty)", s)
	}
	for _, bad := range [][]uint32{{}, {0}, {1, 5}, {0, 5, 3}} {
		if _, err := Range(bad); err == nil {
			t.Fatalf("Range(%v) should fail", bad)
		}
	}
}

func TestCutByEdges(t *testing.T) {
	m := testMatrix(t, 500, 6000, 1)
	for _, k := range []int{1, 2, 4, 8} {
		p, err := CutByEdges(m.RowOffsets, k)
		if err != nil {
			t.Fatal(err)
		}
		checkRoundTrip(t, p)
		// Every shard's edge load should be within 2x of the even split
		// (power-law hubs make a perfect split impossible; this guards
		// against the vertex-balanced failure mode where one shard owns
		// nearly all edges).
		even := m.NumEdges() / k
		for s := 0; s < k; s++ {
			lo, hi := p.Bounds(s)
			load := int(m.RowOffsets[hi] - m.RowOffsets[lo])
			if k > 1 && load > 2*even+int(maxDegree(m)) {
				t.Errorf("k=%d shard %d holds %d edges, even split is %d", k, s, load, even)
			}
		}
	}
	// One vertex owning every edge: all cut points clamp around it.
	if _, err := CutByEdges([]uint32{0, 100, 100, 100}, 4); err != nil {
		t.Fatal(err)
	}
}

func maxDegree(m *csr.Matrix) uint32 {
	var max uint32
	for u := 0; u < m.NumNodes(); u++ {
		if d := uint32(m.Degree(uint32(u))); d > max {
			max = d
		}
	}
	return max
}

func TestParseStrategy(t *testing.T) {
	for _, st := range []Strategy{StrategyRange, StrategyMod} {
		got, err := ParseStrategy(st.String())
		if err != nil || got != st {
			t.Fatalf("ParseStrategy(%q) = %v, %v", st.String(), got, err)
		}
	}
	if _, err := ParseStrategy("nope"); err == nil {
		t.Fatal("ParseStrategy(nope) should fail")
	}
}

// TestSplit checks both strategies rebuild the exact rows under local ids.
func TestSplit(t *testing.T) {
	m := testMatrix(t, 300, 4000, 2)
	for _, k := range []int{1, 2, 4, 8} {
		parts := map[string]*Partition{}
		if p, err := CutByEdges(m.RowOffsets, k); err == nil {
			parts["range"] = p
		} else {
			t.Fatal(err)
		}
		if p, err := Mod(m.NumNodes(), k); err == nil {
			parts["mod"] = p
		} else {
			t.Fatal(err)
		}
		for name, part := range parts {
			shards, err := Split(m, part, 2)
			if err != nil {
				t.Fatal(err)
			}
			for u := uint32(0); u < uint32(m.NumNodes()); u++ {
				s, l := part.ToLocal(u)
				got := shards[s].Neighbors(l)
				want := m.Neighbors(u)
				if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
					t.Fatalf("k=%d %s: shard row for %d differs", k, name, u)
				}
			}
		}
	}
}

// TestSplitSource checks the packed-input path agrees with the matrix path.
func TestSplitSource(t *testing.T) {
	m := testMatrix(t, 200, 3000, 3)
	pk := csr.PackMatrix(m, 1)
	part, err := CutSourceByEdges(pk, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	fromMatrix, err := Split(m, part, 1)
	if err != nil {
		t.Fatal(err)
	}
	fromSource, err := SplitSource(pk, part, 2)
	if err != nil {
		t.Fatal(err)
	}
	for s := range fromMatrix {
		if !reflect.DeepEqual(fromMatrix[s].RowOffsets, fromSource[s].RowOffsets) ||
			!reflect.DeepEqual(fromMatrix[s].Cols, fromSource[s].Cols) {
			t.Fatalf("shard %d differs between Split and SplitSource", s)
		}
	}
}

func TestSplitSizeMismatch(t *testing.T) {
	m := testMatrix(t, 50, 200, 4)
	part, err := Mod(51, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Split(m, part, 1); err == nil {
		t.Fatal("Split with mismatched node count should fail")
	}
	if _, err := SplitSource(csr.PackMatrix(m, 1), part, 1); err == nil {
		t.Fatal("SplitSource with mismatched node count should fail")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := testMatrix(t, 200, 2500, 5)
	part, err := CutByEdges(m.RowOffsets, 4)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := Split(m, part, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := dir + "/graph.shards.json"
	mf, err := WriteShards(path, shards, part, 1)
	if err != nil {
		t.Fatal(err)
	}
	if mf.Nodes != m.NumNodes() || mf.Edges != m.NumEdges() {
		t.Fatalf("manifest totals %d/%d, want %d/%d", mf.Nodes, mf.Edges, m.NumNodes(), m.NumEdges())
	}
	if !IsManifestPath(path) {
		t.Fatal("manifest not sniffed as manifest")
	}

	loaded, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := loaded.Partition()
	if err != nil {
		t.Fatal(err)
	}
	maps, err := OpenShards(path, loaded, true)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, mp := range maps {
			mp.Close() //csr:errok test cleanup
		}
	}()
	if IsManifestPath(dir + "/" + loaded.Shards[0].File) {
		t.Fatal("binary shard container sniffed as manifest")
	}
	for u := uint32(0); u < uint32(m.NumNodes()); u++ {
		s, l := p2.ToLocal(u)
		var buf []uint32
		got := maps[s].Packed().Row(buf, l)
		if want := m.Neighbors(u); len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("mapped shard row for %d differs", u)
		}
	}
}

func TestLoadManifestRejectsBadInput(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := dir + "/" + name
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := LoadManifest(write("garbage.json", "not json")); err == nil {
		t.Fatal("garbage manifest should fail")
	}
	if _, err := LoadManifest(write("vers.json", `{"version": 99, "shards": [{"file":"x"}]}`)); err == nil {
		t.Fatal("wrong version should fail")
	}
	if _, err := LoadManifest(write("empty.json", `{"version": 1, "strategy": "range", "shards": []}`)); err == nil {
		t.Fatal("no shards should fail")
	}
	if _, err := LoadManifest(write("gap.json",
		`{"version":1,"strategy":"range","nodes":10,"shards":[{"file":"a","lo":0,"hi":4},{"file":"b","lo":5,"hi":10}]}`)); err == nil {
		t.Fatal("non-contiguous ranges should fail")
	}
}
