package algo

import (
	"math"
	"testing"

	"csrgraph/internal/edgelist"
)

func TestBetweennessPathGraph(t *testing.T) {
	// Undirected path 0-1-2-3-4. Directed-convention scores (both
	// directions counted): interior node i lies on paths between the
	// 2*(i)*(4-i) ordered endpoint pairs... concretely for n=5:
	// node 1: pairs (0,2),(0,3),(0,4) and reverses -> 6
	// node 2: (0,3),(0,4),(1,3),(1,4) and reverses -> 8
	// node 3: symmetric with 1 -> 6.
	edges := []edgelist.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}}
	m := buildGraph(edges, 5, true)
	for _, p := range []int{1, 2, 4} {
		bc := Betweenness(m, p)
		want := []float64{0, 6, 8, 6, 0}
		for i := range want {
			if math.Abs(bc[i]-want[i]) > 1e-9 {
				t.Fatalf("p=%d: bc = %v, want %v", p, bc, want)
			}
		}
	}
}

func TestBetweennessStar(t *testing.T) {
	// Star with center 0 and 4 leaves: every leaf pair's unique shortest
	// path passes the center: 4*3 = 12 ordered pairs.
	var edges []edgelist.Edge
	for v := uint32(1); v <= 4; v++ {
		edges = append(edges, edgelist.Edge{U: 0, V: v})
	}
	m := buildGraph(edges, 5, true)
	bc := Betweenness(m, 2)
	if math.Abs(bc[0]-12) > 1e-9 {
		t.Fatalf("center bc = %g, want 12", bc[0])
	}
	for v := 1; v <= 4; v++ {
		if bc[v] != 0 {
			t.Fatalf("leaf bc[%d] = %g, want 0", v, bc[v])
		}
	}
}

func TestBetweennessSplitPaths(t *testing.T) {
	// Two equal-length shortest paths 0->1->3 and 0->2->3: nodes 1 and 2
	// each carry half a dependency from the (0,3) pair.
	edges := []edgelist.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 3}, {U: 2, V: 3}}
	m := buildGraph(edges, 4, false)
	bc := Betweenness(m, 2)
	if math.Abs(bc[1]-0.5) > 1e-9 || math.Abs(bc[2]-0.5) > 1e-9 {
		t.Fatalf("bc = %v, want 0.5 at nodes 1 and 2", bc)
	}
}

func TestBetweennessDeterministicAcrossP(t *testing.T) {
	m := randomGraph(80, 600, 30, true)
	base := Betweenness(m, 1)
	for _, p := range []int{2, 8} {
		got := Betweenness(m, p)
		for i := range base {
			if math.Abs(got[i]-base[i]) > 1e-6 {
				t.Fatalf("p=%d: bc[%d] = %g vs %g", p, i, got[i], base[i])
			}
		}
	}
}

func TestBetweennessSampleFullStrideEqualsExact(t *testing.T) {
	m := randomGraph(60, 400, 31, true)
	exact := Betweenness(m, 2)
	sampled := BetweennessSample(m, 1, 2) // stride 1 = all sources
	for i := range exact {
		if math.Abs(exact[i]-sampled[i]) > 1e-6 {
			t.Fatalf("stride-1 sample differs at %d", i)
		}
	}
	// Coarse sampling should correlate: the max-scoring exact node should
	// still score above the median in the sample.
	rough := BetweennessSample(m, 4, 2)
	best := 0
	for i := range exact {
		if exact[i] > exact[best] {
			best = i
		}
	}
	higher := 0
	for i := range rough {
		if rough[best] >= rough[i] {
			higher++
		}
	}
	if higher < len(rough)/2 {
		t.Fatalf("sampled score of the true top node ranks too low (%d/%d)", higher, len(rough))
	}
	if s := BetweennessSample(m, 0, 2); len(s) != 60 {
		t.Fatal("stride 0 must clamp to 1")
	}
}

func TestTopKBetweenness(t *testing.T) {
	nodes, vals := TopKBetweenness([]float64{1, 9, 3, 7}, 2)
	if nodes[0] != 1 || nodes[1] != 3 || vals[0] != 9 || vals[1] != 7 {
		t.Fatalf("top2 = %v %v", nodes, vals)
	}
	nodes, _ = TopKBetweenness([]float64{5}, 10) // k beyond length clamps
	if len(nodes) != 1 {
		t.Fatal("k clamp failed")
	}
	nodes, vals = TopKBetweenness([]float64{5, 2}, -1) // negative k clamps to 0
	if len(nodes) != 0 || len(vals) != 0 {
		t.Fatalf("k=-1: got %v %v, want empty", nodes, vals)
	}
}
