package algo

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"csrgraph/internal/csr"
	"csrgraph/internal/edgelist"
	"csrgraph/internal/query"
)

// buildGraph makes a CSR from explicit edges (symmetrized when sym).
func buildGraph(edges []edgelist.Edge, numNodes int, sym bool) *csr.Matrix {
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

func randomGraph(n, m int, seed int64, sym bool) *csr.Matrix {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]edgelist.Edge, m)
	for i := range edges {
		edges[i] = edgelist.Edge{U: rng.Uint32() % uint32(n), V: rng.Uint32() % uint32(n)}
	}
	return buildGraph(edges, n, sym)
}

// bfsReference is a serial queue BFS for validation.
func bfsReference(m *csr.Matrix, src uint32) []int32 {
	dist := make([]int32, m.NumNodes())
	for i := range dist {
		dist[i] = Unreached
	}
	if int(src) >= m.NumNodes() {
		return dist
	}
	dist[src] = 0
	queue := []uint32{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range m.Neighbors(u) {
			if dist[w] == Unreached {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

func TestBFSPathGraph(t *testing.T) {
	// 0-1-2-3-4 path.
	edges := []edgelist.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}}
	m := buildGraph(edges, 6, true) // node 5 isolated
	for _, p := range []int{1, 2, 4} {
		dist := BFSFrontier(m, nil, 0, p)
		want := []int32{0, 1, 2, 3, 4, Unreached}
		if !reflect.DeepEqual(dist, want) || !reflect.DeepEqual(bfsReference(m, 0), want) {
			t.Fatalf("p=%d: dist = %v, want %v", p, dist, want)
		}
	}
}

func TestBFSMatchesReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		m := randomGraph(300, 1200, seed, true)
		want := bfsReference(m, 0)
		for _, p := range []int{1, 3, 8} {
			got := BFSFrontier(m, nil, 0, p)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed=%d p=%d: BFS diverges from reference", seed, p)
			}
		}
	}
}

func TestBFSOnPackedCSR(t *testing.T) {
	m := randomGraph(200, 800, 4, true)
	pk := csr.PackMatrix(m, 2)
	want := bfsReference(m, 7)
	if got := BFSFrontier(pk, nil, 7, 4); !reflect.DeepEqual(got, want) {
		t.Fatal("BFS over packed CSR diverges")
	}
}

func TestBFSSourceOutOfRange(t *testing.T) {
	m := buildGraph([]edgelist.Edge{{U: 0, V: 1}}, 2, false)
	dist := BFSFrontier(m, nil, 99, 2)
	if !reflect.DeepEqual(dist, bfsReference(m, 99)) {
		t.Fatalf("out-of-range source: %v", dist)
	}
	for _, d := range dist {
		if d != Unreached {
			t.Fatal("out-of-range source must reach nothing")
		}
	}
}

func TestConnectedComponents(t *testing.T) {
	// Components {0,1,2}, {3,4}, {5}.
	edges := []edgelist.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}}
	m := buildGraph(edges, 6, true)
	for _, p := range []int{1, 2, 8} {
		labels := ConnectedComponents(m, p)
		want := []uint32{0, 0, 0, 3, 3, 5}
		if !reflect.DeepEqual(labels, want) {
			t.Fatalf("p=%d: labels = %v, want %v", p, labels, want)
		}
	}
}

func TestConnectedComponentsDirectedWeak(t *testing.T) {
	// Directed chain 0->1->2: weakly one component even without reverse
	// edges, because labels propagate both ways across each edge.
	m := buildGraph([]edgelist.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, 3, false)
	labels := ConnectedComponents(m, 2)
	if labels[0] != 0 || labels[1] != 0 || labels[2] != 0 {
		t.Fatalf("labels = %v", labels)
	}
}

// ccReference computes weak components with union-find.
func ccReference(m *csr.Matrix) []uint32 {
	parent := make([]uint32, m.NumNodes())
	for i := range parent {
		parent[i] = uint32(i)
	}
	var find func(x uint32) uint32
	find = func(x uint32) uint32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for u := 0; u < m.NumNodes(); u++ {
		for _, w := range m.Neighbors(uint32(u)) {
			ru, rw := find(uint32(u)), find(w)
			if ru != rw {
				if ru < rw {
					parent[rw] = ru
				} else {
					parent[ru] = rw
				}
			}
		}
	}
	out := make([]uint32, m.NumNodes())
	for i := range out {
		out[i] = find(uint32(i))
	}
	return out
}

func TestConnectedComponentsMatchesUnionFind(t *testing.T) {
	for _, seed := range []int64{5, 6} {
		m := randomGraph(400, 500, seed, true) // sparse: many components
		want := ccReference(m)
		for _, p := range []int{1, 4} {
			got := ConnectedComponents(m, p)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed=%d p=%d: CC diverges from union-find", seed, p)
			}
		}
	}
}

func TestPageRankUniformOnRing(t *testing.T) {
	// A directed ring is perfectly symmetric: every rank must equal 1/n.
	n := 50
	edges := make([]edgelist.Edge, n)
	for i := range edges {
		edges[i] = edgelist.Edge{U: uint32(i), V: uint32((i + 1) % n)}
	}
	m := buildGraph(edges, n, false)
	for _, p := range []int{1, 4} {
		rank := PageRank(m, 0.85, 50, 1e-12, p)
		for i, r := range rank {
			if math.Abs(r-1.0/float64(n)) > 1e-9 {
				t.Fatalf("p=%d: rank[%d] = %g, want %g", p, i, r, 1.0/float64(n))
			}
		}
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	m := randomGraph(300, 1500, 7, false) // includes dangling nodes
	rank := PageRank(m, 0.85, 100, 1e-10, 4)
	var sum float64
	for _, r := range rank {
		sum += r
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("ranks sum to %g, want 1", sum)
	}
	// Determinism across p.
	r1 := PageRank(m, 0.85, 20, 0, 1)
	r4 := PageRank(m, 0.85, 20, 0, 4)
	for i := range r1 {
		if math.Abs(r1[i]-r4[i]) > 1e-12 {
			t.Fatalf("rank[%d] differs across p: %g vs %g", i, r1[i], r4[i])
		}
	}
}

func TestPageRankHubGetsMoreRank(t *testing.T) {
	// Star: everyone points at node 0.
	var edges []edgelist.Edge
	for i := 1; i < 20; i++ {
		edges = append(edges, edgelist.Edge{U: uint32(i), V: 0})
	}
	m := buildGraph(edges, 20, false)
	rank := PageRank(m, 0.85, 50, 1e-12, 2)
	for i := 1; i < 20; i++ {
		if rank[0] <= rank[i] {
			t.Fatalf("hub rank %g not above leaf rank %g", rank[0], rank[i])
		}
	}
}

func TestPageRankEmpty(t *testing.T) {
	if got := PageRank(&csr.Matrix{}, 0.85, 10, 0, 2); got != nil {
		t.Fatal("empty graph should return nil")
	}
}

func TestCountTriangles(t *testing.T) {
	// K4 has 4 triangles.
	var edges []edgelist.Edge
	for u := uint32(0); u < 4; u++ {
		for v := uint32(0); v < 4; v++ {
			if u != v {
				edges = append(edges, edgelist.Edge{U: u, V: v})
			}
		}
	}
	m := buildGraph(edges, 4, false)
	for _, p := range []int{1, 2, 4} {
		if got := CountTriangles(m, p); got != 4 {
			t.Fatalf("p=%d: K4 triangles = %d, want 4", p, got)
		}
	}
	// A triangle plus a pendant edge: exactly 1.
	m2 := buildGraph([]edgelist.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 2, V: 3}}, 4, true)
	if got := CountTriangles(m2, 2); got != 1 {
		t.Fatalf("triangle+pendant = %d, want 1", got)
	}
}

// trianglesReference brute-forces all triples.
func trianglesReference(m *csr.Matrix) int64 {
	var sum int64
	for _, t := range triangleCountsReference(m) {
		sum += t
	}
	return sum / 3
}

// triangleCountsReference brute-forces all triples of distinct nodes, so
// self-loops never count, and returns the triangles through each node.
func triangleCountsReference(m *csr.Matrix) []int64 {
	n := m.NumNodes()
	tri := make([]int64, n)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if !m.HasEdgeBinary(uint32(a), uint32(b)) {
				continue
			}
			for c := b + 1; c < n; c++ {
				if m.HasEdgeBinary(uint32(b), uint32(c)) && m.HasEdgeBinary(uint32(a), uint32(c)) {
					tri[a]++
					tri[b]++
					tri[c]++
				}
			}
		}
	}
	return tri
}

// clusteringReference derives the local coefficients and their average
// from triangleCountsReference and each node's loop-free degree.
func clusteringReference(m *csr.Matrix) ([]float64, float64, int) {
	tri := triangleCountsReference(m)
	cc := make([]float64, len(tri))
	var sum float64
	count := 0
	for u := range tri {
		d := 0
		for _, w := range m.Neighbors(uint32(u)) {
			if w != uint32(u) {
				d++
			}
		}
		if d >= 2 {
			cc[u] = float64(2*tri[u]) / float64(d*(d-1))
			sum += cc[u]
			count++
		}
	}
	if count == 0 {
		return cc, 0, 0
	}
	return cc, sum / float64(count), count
}

func TestCountTrianglesMatchesBruteForce(t *testing.T) {
	m := randomGraph(60, 400, 8, true)
	want := trianglesReference(m)
	for _, p := range []int{1, 4} {
		if got := CountTriangles(m, p); got != want {
			t.Fatalf("p=%d: triangles = %d, want %d", p, got, want)
		}
	}
}

// FuzzTriangles checks CountTriangles, LocalClustering and
// GlobalClustering against the brute-force oracle on random symmetrized
// graphs of up to 256 nodes with self-loops, empty rows and an isolated
// tail of ids, plain and packed, at p = 1, 2 and 4.
func FuzzTriangles(f *testing.F) {
	f.Add(uint64(1), uint8(40), uint16(300), uint8(5))
	f.Add(uint64(2), uint8(255), uint16(3000), uint8(0))
	f.Add(uint64(3), uint8(6), uint16(30), uint8(9))
	f.Add(uint64(4), uint8(120), uint16(100), uint8(40))
	f.Fuzz(func(t *testing.T, seed uint64, nodes uint8, edges uint16, loops uint8) {
		n := 1 + int(nodes)
		live := 1 + int(seed%uint64(n)) // ids >= live form the isolated tail
		rng := rand.New(rand.NewSource(int64(seed)))
		var es []edgelist.Edge
		for i := 0; i < int(edges%4096); i++ {
			es = append(es, edgelist.Edge{U: uint32(rng.Intn(live)), V: uint32(rng.Intn(live))})
		}
		for i := 0; i < int(loops); i++ {
			u := uint32(rng.Intn(live))
			es = append(es, edgelist.Edge{U: u, V: u})
		}
		m := buildGraph(es, n, true)
		total := trianglesReference(m)
		cc, avg, count := clusteringReference(m)
		for form, src := range map[string]query.Source{"plain": m, "packed": csr.PackMatrix(m, 2)} {
			for _, p := range []int{1, 2, 4} {
				if got := CountTriangles(src, p); got != total {
					t.Fatalf("%s p=%d: triangles = %d, want %d", form, p, got, total)
				}
				if got := LocalClustering(src, p); !reflect.DeepEqual(got, cc) {
					t.Fatalf("%s p=%d: local clustering diverges from the reference", form, p)
				}
				if gotAvg, gotCount := GlobalClustering(src, p); gotAvg != avg || gotCount != count {
					t.Fatalf("%s p=%d: global clustering = %g over %d, want %g over %d",
						form, p, gotAvg, gotCount, avg, count)
				}
			}
		}
	})
}

func TestDegrees(t *testing.T) {
	edges := []edgelist.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}}
	m := buildGraph(edges, 4, false) // node 3 isolated
	for _, p := range []int{1, 3} {
		st := Degrees(m, p)
		if st.Min != 0 || st.Max != 2 || st.Isolated != 2 {
			t.Fatalf("p=%d: stats = %+v", p, st)
		}
		if math.Abs(st.Mean-0.75) > 1e-12 {
			t.Fatalf("mean = %g", st.Mean)
		}
		if st.Histogram[0] != 2 || st.Histogram[1] != 1 || st.Histogram[2] != 1 {
			t.Fatalf("histogram = %v", st.Histogram[:3])
		}
	}
	empty := Degrees(&csr.Matrix{}, 2)
	if empty.Max != 0 || empty.Mean != 0 {
		t.Fatal("empty stats wrong")
	}
}

func TestTwoHopNeighbors(t *testing.T) {
	// 0->1->2, 0->3, 3->4; two-hop from 0 = {1,2,3,4}.
	edges := []edgelist.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 3}, {U: 3, V: 4}}
	m := buildGraph(edges, 5, false)
	for _, p := range []int{1, 2, 8} {
		got := TwoHopNeighbors(m, 0, p)
		if !reflect.DeepEqual(got, []uint32{1, 2, 3, 4}) {
			t.Fatalf("p=%d: two-hop = %v", p, got)
		}
	}
	// Self-exclusion: a triangle's two-hop must not include the start.
	tri := buildGraph([]edgelist.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}}, 3, true)
	got := TwoHopNeighbors(tri, 0, 2)
	if !reflect.DeepEqual(got, []uint32{1, 2}) {
		t.Fatalf("triangle two-hop = %v", got)
	}
}

func TestSortUint32(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{0, 1, 2, 3, 17, 100, 1023} {
		xs := make([]uint32, n)
		for i := range xs {
			xs[i] = rng.Uint32() % 64
		}
		sortUint32(xs)
		for i := 1; i < n; i++ {
			if xs[i] < xs[i-1] {
				t.Fatalf("n=%d unsorted at %d", n, i)
			}
		}
	}
}

// Property: BFS distances satisfy the triangle property — every edge (u,w)
// with u reached implies dist[w] <= dist[u]+1 — and parallel equals serial.
func TestQuickBFSInvariant(t *testing.T) {
	f := func(pairs []uint16, p uint8) bool {
		const n = 40
		edges := make([]edgelist.Edge, 0, len(pairs)/2)
		for i := 0; i+1 < len(pairs); i += 2 {
			edges = append(edges, edgelist.Edge{U: uint32(pairs[i]) % n, V: uint32(pairs[i+1]) % n})
		}
		m := buildGraph(edges, n, true)
		dist := BFSFrontier(m, nil, 0, int(p))
		if !reflect.DeepEqual(dist, bfsReference(m, 0)) {
			return false
		}
		for u := 0; u < n; u++ {
			if dist[u] == Unreached {
				continue
			}
			for _, w := range m.Neighbors(uint32(u)) {
				if dist[w] == Unreached || dist[w] > dist[u]+1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
