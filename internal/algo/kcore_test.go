package algo

import (
	"math"
	"reflect"
	"testing"

	"csrgraph/internal/csr"
	"csrgraph/internal/edgelist"
	"csrgraph/internal/gen"
	"csrgraph/internal/query"
)

func TestCoreNumbersK4WithTail(t *testing.T) {
	// K4 (nodes 0-3) plus a path 3-4-5: cores are 3,3,3,3,1,1.
	var edges []edgelist.Edge
	for u := uint32(0); u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			edges = append(edges, edgelist.Edge{U: u, V: v})
		}
	}
	edges = append(edges, edgelist.Edge{U: 3, V: 4}, edgelist.Edge{U: 4, V: 5})
	m := buildGraph(edges, 6, true)
	for _, p := range []int{1, 2, 4} {
		core := CoreNumbersBucketed(m, p)
		want := []uint32{3, 3, 3, 3, 1, 1}
		if !reflect.DeepEqual(core, want) {
			t.Fatalf("p=%d: core = %v, want %v", p, core, want)
		}
	}
}

func TestCoreNumbersIsolatedAndStar(t *testing.T) {
	// Star center 0 with 5 leaves, node 6 isolated: all non-isolated are
	// 1-core (leaves have degree 1; removing them leaves the center bare).
	var edges []edgelist.Edge
	for v := uint32(1); v <= 5; v++ {
		edges = append(edges, edgelist.Edge{U: 0, V: v})
	}
	m := buildGraph(edges, 7, true)
	core := CoreNumbersBucketed(m, 2)
	want := []uint32{1, 1, 1, 1, 1, 1, 0}
	if !reflect.DeepEqual(core, want) {
		t.Fatalf("core = %v, want %v", core, want)
	}
}

// coreReference is the classic sequential peeling.
func coreReference(m *csr.Matrix) []uint32 {
	n := m.NumNodes()
	deg := make([]int, n)
	for u := 0; u < n; u++ {
		deg[u] = m.Degree(uint32(u))
	}
	core := make([]uint32, n)
	removed := make([]bool, n)
	for peeled := 0; peeled < n; {
		// Find the minimum remaining degree, peel all nodes at it.
		k := -1
		for u := 0; u < n; u++ {
			if !removed[u] && (k < 0 || deg[u] < k) {
				k = deg[u]
			}
		}
		for {
			any := false
			for u := 0; u < n; u++ {
				if removed[u] || deg[u] > k {
					continue
				}
				removed[u] = true
				core[u] = uint32(k)
				peeled++
				any = true
				for _, w := range m.Neighbors(uint32(u)) {
					if !removed[w] {
						deg[w]--
					}
				}
			}
			if !any {
				break
			}
		}
	}
	return core
}

func TestCoreNumbersMatchesReference(t *testing.T) {
	for _, seed := range []int64{11, 12} {
		m := randomGraph(150, 900, seed, true)
		want := coreReference(m)
		for _, p := range []int{1, 4} {
			got := CoreNumbersBucketed(m, p)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed=%d p=%d: cores diverge", seed, p)
			}
		}
	}
}

// hubsAndLeaves is the contended shape for a parallel peel round: hubs
// 0..hubs-1, a clique of 2*hubs members (hub h adjacent to members 2h and
// 2h+1), and leaves adjacent to every hub. The leaves peel at k = hubs in
// one round of leaves*hubs edges, and every one of them decrements every
// hub, so the hubs cross k from many workers at once. A hub that joined the
// next subround twice would decrement its clique members twice and drag
// their core below the clique's.
func hubsAndLeaves(hubs, leaves int) *csr.Matrix {
	cliq := 2 * hubs
	var edges []edgelist.Edge
	for i := 0; i < cliq; i++ {
		for j := i + 1; j < cliq; j++ {
			edges = append(edges, edgelist.Edge{U: uint32(hubs + i), V: uint32(hubs + j)})
		}
	}
	for h := 0; h < hubs; h++ {
		edges = append(edges,
			edgelist.Edge{U: uint32(h), V: uint32(hubs + 2*h)},
			edgelist.Edge{U: uint32(h), V: uint32(hubs + 2*h + 1)})
		for l := 0; l < leaves; l++ {
			edges = append(edges, edgelist.Edge{U: uint32(h), V: uint32(hubs + cliq + l)})
		}
	}
	return buildGraph(edges, hubs+cliq+leaves, true)
}

// TestCoreNumbersParallelRounds runs heavy peel subrounds, which the small
// fixtures never reach: a leaf subround of 20000 edges that lands every
// hub at once, and an R-MAT of scale 13, on the plain matrix and its
// packed form, at every p.
func TestCoreNumbersParallelRounds(t *testing.T) {
	rmat, err := gen.RMAT(13, 60000, gen.DefaultRMAT, 0x6b63, 2)
	if err != nil {
		t.Fatal(err)
	}
	const hubs, leaves = 4, 5000
	hl := hubsAndLeaves(hubs, leaves)
	want := coreReference(hl)
	for v, c := range want {
		wantCore := uint32(hubs) // hubs and leaves
		if v >= hubs && v < 3*hubs {
			wantCore = 2*hubs - 1 // clique members
		}
		if c != wantCore {
			t.Fatalf("reference core of node %d = %d, want %d", v, c, wantCore)
		}
	}
	for name, m := range map[string]*csr.Matrix{
		"rmat13":      buildGraph(rmat, 1<<13, true),
		"hubs+leaves": hl,
	} {
		want := coreReference(m)
		for form, src := range map[string]query.Source{"plain": m, "packed": csr.PackMatrix(m, 2)} {
			for _, p := range []int{1, 2, 8} {
				if got := CoreNumbersBucketed(src, p); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s %s p=%d: core numbers diverge from the reference", name, form, p)
				}
			}
		}
	}
}

// FuzzCoreNumbers checks the peel at p = 1, 2 and 4 against the sequential
// reference on an R-MAT graph of scale 4-12 or a uniform random graph of
// as many nodes, symmetric or directed, with up to 16383 edges.
func FuzzCoreNumbers(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint16(3000), true)
	f.Add(uint64(2), uint8(8), uint16(16000), true)
	f.Add(uint64(3), uint8(0x85), uint16(9000), true)
	f.Add(uint64(4), uint8(0x02), uint16(700), false)
	f.Fuzz(func(t *testing.T, seed uint64, shape uint8, edges uint16, sym bool) {
		scale := 4 + int(shape&0x7f)%9
		n, m := 1<<scale, int(edges&0x3fff)
		var g *csr.Matrix
		if shape&0x80 == 0 {
			l, err := gen.RMAT(scale, m, gen.DefaultRMAT, seed, 2)
			if err != nil {
				t.Fatal(err)
			}
			g = buildGraph(l, n, sym)
		} else {
			g = randomGraph(n, m, int64(seed), sym)
		}
		want := coreReference(g)
		for _, p := range []int{1, 2, 4} {
			if got := CoreNumbersBucketed(g, p); !reflect.DeepEqual(got, want) {
				t.Fatalf("scale=%d edges=%d rmat=%v sym=%v p=%d: core numbers diverge from the reference",
					scale, m, shape&0x80 == 0, sym, p)
			}
		}
	})
}

// TestCoreNumbersAllocs holds the peel to a fixed number of allocations,
// its output and state arrays, however many levels and subrounds it runs:
// the same count on a two-level K4 with a tail as on an R-MAT of scale 13.
func TestCoreNumbersAllocs(t *testing.T) {
	rmat, err := gen.RMAT(13, 60000, gen.DefaultRMAT, 0x6b63, 2)
	if err != nil {
		t.Fatal(err)
	}
	var k4 []edgelist.Edge
	for u := uint32(0); u < 4; u++ {
		for v := u + 1; v < 4; v++ {
			k4 = append(k4, edgelist.Edge{U: u, V: v})
		}
	}
	k4 = append(k4, edgelist.Edge{U: 3, V: 4}, edgelist.Edge{U: 4, V: 5})
	small, large := buildGraph(k4, 6, true), buildGraph(rmat, 1<<13, true)
	allocs := func(m *csr.Matrix) float64 {
		return testing.AllocsPerRun(5, func() { CoreNumbersBucketed(m, 1) })
	}
	if a, b := allocs(small), allocs(large); a != b || b > 8 {
		t.Fatalf("peel allocates %v times on K4+tail and %v on rmat13, want one fixed count of at most 8", a, b)
	}
}

func TestLocalClusteringTriangle(t *testing.T) {
	// Triangle: every node's coefficient is 1, with or without a self-loop
	// on every node (a loop is neither a neighbor nor in the degree).
	tri := []edgelist.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}}
	loops := append([]edgelist.Edge{{U: 0, V: 0}, {U: 1, V: 1}, {U: 2, V: 2}}, tri...)
	for _, edges := range [][]edgelist.Edge{tri, loops} {
		m := buildGraph(edges, 3, true)
		for _, p := range []int{1, 2} {
			cc := LocalClustering(m, p)
			for u, c := range cc {
				if math.Abs(c-1) > 1e-12 {
					t.Fatalf("%d edges, p=%d: cc[%d] = %g, want 1", len(edges), p, u, c)
				}
			}
		}
	}
}

func TestLocalClusteringPath(t *testing.T) {
	// Path 0-1-2: middle node has two unconnected neighbors -> 0; ends have
	// degree 1 -> 0.
	m := buildGraph([]edgelist.Edge{{U: 0, V: 1}, {U: 1, V: 2}}, 3, true)
	cc := LocalClustering(m, 2)
	for u, c := range cc {
		if c != 0 {
			t.Fatalf("cc[%d] = %g, want 0", u, c)
		}
	}
}

func TestLocalClusteringHalf(t *testing.T) {
	// Node 0 adjacent to 1,2,3 with only edge (1,2): 1 connected pair of 3
	// -> 1/3.
	m := buildGraph([]edgelist.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 2},
	}, 4, true)
	cc := LocalClustering(m, 2)
	if math.Abs(cc[0]-1.0/3) > 1e-12 {
		t.Fatalf("cc[0] = %g, want 1/3", cc[0])
	}
}

func TestGlobalClustering(t *testing.T) {
	m := buildGraph([]edgelist.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}}, 3, true)
	avg, count := GlobalClustering(m, 2)
	if count != 3 || math.Abs(avg-1) > 1e-12 {
		t.Fatalf("avg=%g count=%d", avg, count)
	}
	empty := buildGraph(nil, 3, false)
	if avg, count := GlobalClustering(empty, 2); avg != 0 || count != 0 {
		t.Fatal("empty clustering wrong")
	}
	// Triangle 0-1-2 plus pendant 3 on 0, with a self-loop on 3: node 3's
	// loop-free degree is 1, so it is left out; node 0 closes 1 of 3 pairs.
	looped := buildGraph([]edgelist.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 3, V: 3},
	}, 4, true)
	for _, p := range []int{1, 2} {
		if avg, count := GlobalClustering(looped, p); count != 3 || math.Abs(avg-7.0/9) > 1e-12 {
			t.Fatalf("p=%d: with a loop avg=%g count=%d, want 7/9 over 3", p, avg, count)
		}
	}
}

func TestClusteringOnPackedAgrees(t *testing.T) {
	m := randomGraph(100, 800, 13, true)
	pk := csr.PackMatrix(m, 2)
	a := LocalClustering(m, 2)
	b := LocalClustering(pk, 2)
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-12 {
			t.Fatalf("cc[%d] differs between plain and packed", i)
		}
	}
	c1, n1 := GlobalClustering(m, 1)
	c2, n2 := GlobalClustering(pk, 4)
	if n1 != n2 || math.Abs(c1-c2) > 1e-12 {
		t.Fatal("global clustering differs")
	}
}
