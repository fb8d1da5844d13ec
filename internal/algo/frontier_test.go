package algo

import (
	"math"
	"reflect"
	"testing"

	"csrgraph/internal/csr"
	"csrgraph/internal/edgelist"
	"csrgraph/internal/frontier"
	"csrgraph/internal/gen"
	"csrgraph/internal/spmatrix"
)

// diffGraphs returns the named graph family zoo the traversals are
// differentially tested over: uniform, power-law, disconnected,
// single-vertex and empty, each symmetrized when sym.
func diffGraphs(t *testing.T, sym bool) map[string]*csr.Matrix {
	t.Helper()
	rmat, err := gen.RMAT(8, 3000, gen.DefaultRMAT, 0x7357, 2)
	if err != nil {
		t.Fatal(err)
	}
	var disconnected []edgelist.Edge
	for i := 0; i < 400; i++ {
		// Two 100-node blobs with no edges between them + isolated tail nodes.
		u, v := uint32(i*37%100), uint32(i*61%100)
		disconnected = append(disconnected,
			edgelist.Edge{U: u, V: v},
			edgelist.Edge{U: 100 + u, V: 100 + v})
	}
	return map[string]*csr.Matrix{
		"uniform":      randomGraph(300, 2400, 77, sym),
		"powerlaw":     buildGraph(rmat, 256, sym),
		"disconnected": buildGraph(disconnected, 210, sym),
		"single":       buildGraph(nil, 1, sym),
		"empty":        buildGraph(nil, 0, sym),
	}
}

func TestBFSFrontierMatchesBaseline(t *testing.T) {
	for name, m := range diffGraphs(t, true) {
		want := bfsReference(m, 0)
		for _, p := range []int{1, 2, 8} {
			if got := BFSFrontier(m, nil, 0, p); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s p=%d: push-only frontier BFS diverges", name, p)
			}
			if got := BFSFrontier(m, m, 0, p); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s p=%d: hybrid frontier BFS diverges", name, p)
			}
		}
	}
}

func TestBFSFrontierMatchesBaselineDirected(t *testing.T) {
	for name, m := range diffGraphs(t, false) {
		if m.NumNodes() == 0 {
			continue
		}
		mt := spmatrix.Transpose(m, 2)
		want := bfsReference(m, 0)
		for _, p := range []int{1, 4} {
			if got := BFSFrontier(m, mt, 0, p); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s p=%d: directed frontier BFS diverges", name, p)
			}
		}
	}
}

func TestDOBFSPolicyParameters(t *testing.T) {
	m := randomGraph(200, 3000, 31, true)
	want := bfsReference(m, 0)
	// Degenerate policies force each pure mode; defaults mix.
	for _, pol := range []frontier.Policy{
		{},                        // defaults
		{Alpha: 1, Beta: 1 << 20}, // nearly always push
		{Alpha: 1 << 20, Beta: 1}, // dense as soon as possible
		frontier.DefaultPolicy(),
	} {
		if got, _ := BFSFrontierStats(m, m, 0, pol, 4); !reflect.DeepEqual(got, want) {
			t.Fatalf("policy %+v: hybrid BFS diverges", pol)
		}
	}
}

// The …MatchesBaseline tests below pin each kept implementation against a
// sequential oracle over the diffGraphs zoo.

func TestConnectedComponentsFrontierMatchesBaseline(t *testing.T) {
	for _, sym := range []bool{false, true} {
		for name, m := range diffGraphs(t, sym) {
			want := ccReference(m)
			for _, p := range []int{1, 2, 8} {
				if got := ConnectedComponents(m, p); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s sym=%v p=%d: CC diverges from union-find", name, sym, p)
				}
			}
		}
	}
}

func TestConnectedComponentsFrontierDirected(t *testing.T) {
	// Weak connectivity of a directed graph: labels cross every edge in
	// both directions, so the directed graph labels like its symmetrized
	// version.
	m := randomGraph(150, 600, 99, false)
	sym := randomGraph(150, 600, 99, true)
	want := ConnectedComponents(sym, 4)
	if got := ConnectedComponents(m, 4); !reflect.DeepEqual(got, want) {
		t.Fatal("directed weak CC diverges from symmetrized baseline")
	}
	// Directed chain 1→2→0: one weak component regardless of direction.
	chain := buildGraph([]edgelist.Edge{{U: 1, V: 2}, {U: 2, V: 0}}, 3, false)
	if got := ConnectedComponents(chain, 1); !reflect.DeepEqual(got, []uint32{0, 0, 0}) {
		t.Fatalf("chain CC = %v, want all zeros", got)
	}
}

func TestSCCStillMatchesAfterFrontierRouting(t *testing.T) {
	m := randomGraph(120, 700, 64, false)
	mt := spmatrix.Transpose(m, 2)
	want := sccReference(m)
	for _, p := range []int{1, 4} {
		if got := StronglyConnectedComponents(m, mt, p); !reflect.DeepEqual(got, want) {
			t.Fatalf("p=%d: SCC diverges from reference", p)
		}
	}
}

func TestCoreNumbersBucketedMatchesBaseline(t *testing.T) {
	for _, sym := range []bool{false, true} {
		for name, m := range diffGraphs(t, sym) {
			want := coreReference(m)
			for _, p := range []int{1, 2, 8} {
				if got := CoreNumbersBucketed(m, p); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s sym=%v p=%d: core numbers diverge", name, sym, p)
				}
			}
		}
	}
}

// closenessReference is the sequential closeness oracle: one queue BFS
// from s, folded into Wasserman-Faust closeness.
func closenessReference(m *csr.Matrix, s uint32) float64 {
	n := m.NumNodes()
	if int(s) >= n {
		return 0
	}
	var sum, reached int64
	for _, d := range bfsReference(m, s) {
		if d > 0 {
			sum += int64(d)
			reached++
		}
	}
	if reached == 0 {
		return 0
	}
	return float64(reached) / float64(n-1) * float64(reached) / float64(sum)
}

func TestClosenessFrontierMatchesBaseline(t *testing.T) {
	for _, sym := range []bool{false, true} {
		for name, m := range diffGraphs(t, sym) {
			want := make([]float64, m.NumNodes())
			for s := range want {
				want[s] = closenessReference(m, uint32(s))
			}
			for _, p := range []int{1, 2, 8} {
				if got := Closeness(m, p); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s sym=%v p=%d: closeness diverges from the oracle", name, sym, p)
				}
			}
		}
	}
}

func TestClosenessSampleFrontierMatchesBaseline(t *testing.T) {
	m := randomGraph(200, 1500, 21, true)
	nodes := []uint32{0, 7, 7, 199, 5000} // duplicates and out-of-range
	want := make([]float64, len(nodes))
	for i, s := range nodes {
		want[i] = closenessReference(m, s)
	}
	for _, p := range []int{1, 4} {
		if got := ClosenessSample(m, nodes, p); !reflect.DeepEqual(got, want) {
			t.Fatalf("p=%d: closeness sample diverges from the oracle", p)
		}
	}
}

// betweennessReference is sequential Brandes over every source: BFS
// order with path counts, then dependencies accumulated deepest first.
func betweennessReference(m *csr.Matrix) []float64 {
	n := m.NumNodes()
	bc := make([]float64, n)
	for s := 0; s < n; s++ {
		dist := bfsReference(m, uint32(s))
		order := make([]uint32, 0, n)
		for d := int32(0); ; d++ {
			before := len(order)
			for v := range dist {
				if dist[v] == d {
					order = append(order, uint32(v))
				}
			}
			if len(order) == before {
				break
			}
		}
		sigma := make([]float64, n)
		sigma[s] = 1
		for _, v := range order {
			for _, w := range m.Neighbors(v) {
				if dist[w] == dist[v]+1 {
					sigma[w] += sigma[v]
				}
			}
		}
		delta := make([]float64, n)
		for i := len(order) - 1; i >= 0; i-- {
			v := order[i]
			for _, w := range m.Neighbors(v) {
				if dist[w] == dist[v]+1 {
					delta[v] += sigma[v] / sigma[w] * (1 + delta[w])
				}
			}
			if int(v) != s {
				bc[v] += delta[v]
			}
		}
	}
	return bc
}

func TestBetweennessFrontierMatchesBaseline(t *testing.T) {
	for name, m := range diffGraphs(t, true) {
		want := betweennessReference(m)
		for _, p := range []int{1, 4} {
			got := Betweenness(m, p)
			if len(got) != len(want) {
				t.Fatalf("%s: length mismatch", name)
			}
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
					t.Fatalf("%s p=%d: bc[%d] = %g, want %g", name, p, i, got[i], want[i])
				}
			}
		}
	}
}

// sccReference is a serial Tarjan-free reference: label each node by the
// smallest id among nodes u with u→v and v→u reachability, computed by 2n
// serial BFS passes — O(n·m), fine at test sizes.
func sccReference(m *csr.Matrix) []uint32 {
	n := m.NumNodes()
	reach := make([][]bool, n)
	for u := 0; u < n; u++ {
		reach[u] = serialReach(m, uint32(u))
	}
	labels := make([]uint32, n)
	for v := 0; v < n; v++ {
		labels[v] = uint32(v)
		for u := 0; u < n; u++ {
			if reach[u][v] && reach[v][u] {
				labels[v] = uint32(u)
				break
			}
		}
	}
	return labels
}

func serialReach(m *csr.Matrix, src uint32) []bool {
	seen := make([]bool, m.NumNodes())
	seen[src] = true
	stack := []uint32{src}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range m.Neighbors(u) {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return seen
}
