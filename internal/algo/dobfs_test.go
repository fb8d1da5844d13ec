package algo

import (
	"reflect"
	"testing"
	"testing/quick"

	"csrgraph/internal/csr"
	"csrgraph/internal/edgelist"
	"csrgraph/internal/frontier"
	"csrgraph/internal/spmatrix"
)

// The direction-optimizing (push/pull) BFS is BFSFrontierStats with a
// transpose: these tests pin its output to the reference and its round
// shapes to the Beamer policy.

func TestDOBFSMatchesBFSSymmetric(t *testing.T) {
	for _, seed := range []int64{21, 22, 23} {
		// Dense enough to trigger pull mode (frontier > n/20 quickly).
		m := randomGraph(200, 3000, seed, true)
		want := bfsReference(m, 0)
		for _, p := range []int{1, 2, 8} {
			got, st := BFSFrontierStats(m, m, 0, frontier.DefaultPolicy(), p)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed=%d p=%d: hybrid BFS diverges from reference", seed, p)
			}
			if st.DenseRounds == 0 {
				t.Fatalf("seed=%d p=%d: dense graph never pulled: %+v", seed, p, st)
			}
		}
	}
}

func TestDOBFSMatchesBFSDirected(t *testing.T) {
	m := randomGraph(150, 2500, 24, false)
	mt := spmatrix.Transpose(m, 2)
	want := bfsReference(m, 3)
	if got, _ := BFSFrontierStats(m, mt, 3, frontier.DefaultPolicy(), 4); !reflect.DeepEqual(got, want) {
		t.Fatal("directed hybrid BFS diverges (transpose pull)")
	}
}

func TestDOBFSSparseStaysInPushMode(t *testing.T) {
	// A long path never exceeds the pull threshold: pure push, still
	// correct.
	edges := make([]edgelist.Edge, 99)
	for i := range edges {
		edges[i] = edgelist.Edge{U: uint32(i), V: uint32(i + 1)}
	}
	m := buildGraph(edges, 100, false)
	mt := spmatrix.Transpose(m, 2)
	dist, st := BFSFrontierStats(m, mt, 0, frontier.DefaultPolicy(), 4)
	for i, d := range dist {
		if d != int32(i) {
			t.Fatalf("dist[%d] = %d, want %d", i, d, i)
		}
	}
	if st.DenseRounds != 0 || st.SparseRounds != st.Rounds {
		t.Fatalf("path BFS left push mode: %+v", st)
	}
}

func TestDOBFSStarForcesPull(t *testing.T) {
	// A star from the hub: the hub's 99 out-edges cross the alpha
	// threshold, so the round that expands the hub already pulls.
	var edges []edgelist.Edge
	for v := uint32(1); v < 100; v++ {
		edges = append(edges, edgelist.Edge{U: 0, V: v})
	}
	m := buildGraph(edges, 100, true)
	dist, st := BFSFrontierStats(m, m, 0, frontier.DefaultPolicy(), 4)
	for v := 1; v < 100; v++ {
		if dist[v] != 1 {
			t.Fatalf("dist[%d] = %d, want 1", v, dist[v])
		}
	}
	if st.DenseRounds == 0 {
		t.Fatalf("star BFS never went dense: %+v", st)
	}
}

func TestDOBFSOnPacked(t *testing.T) {
	m := randomGraph(120, 2000, 25, true)
	pk := csr.PackMatrix(m, 2)
	want := bfsReference(m, 0)
	if got, _ := BFSFrontierStats(pk, pk, 0, frontier.DefaultPolicy(), 4); !reflect.DeepEqual(got, want) {
		t.Fatal("packed hybrid BFS diverges")
	}
}

func TestDOBFSOutOfRangeSource(t *testing.T) {
	m := randomGraph(10, 20, 26, true)
	dist, st := BFSFrontierStats(m, m, 999, frontier.DefaultPolicy(), 2)
	for _, d := range dist {
		if d != Unreached {
			t.Fatal("out-of-range source must reach nothing")
		}
	}
	if st.Rounds != 0 {
		t.Fatalf("out-of-range source ran rounds: %+v", st)
	}
}

// Property: the hybrid BFS equals the sequential reference on random
// symmetric graphs for any p.
func TestQuickDOBFS(t *testing.T) {
	f := func(pairs []uint16, p uint8) bool {
		const n = 32
		edges := make([]edgelist.Edge, 0, len(pairs)/2)
		for i := 0; i+1 < len(pairs); i += 2 {
			edges = append(edges, edgelist.Edge{U: uint32(pairs[i]) % n, V: uint32(pairs[i+1]) % n})
		}
		m := buildGraph(edges, n, true)
		got, _ := BFSFrontierStats(m, m, 0, frontier.DefaultPolicy(), int(p))
		return reflect.DeepEqual(got, bfsReference(m, 0))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
