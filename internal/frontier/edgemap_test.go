package frontier

import (
	"reflect"
	"sync/atomic"
	"testing"

	"csrgraph/internal/csr"
	"csrgraph/internal/edgelist"
)

// runVisit runs one EdgeMap round with a CAS-claiming visit function and
// returns (sorted output ids, visited mask).
func runVisit(g, gT Graph, front []uint32, n, p int, mode Mode) ([]uint32, []bool) {
	visited := make([]atomic.Bool, n)
	for _, v := range front {
		visited[v].Store(true)
	}
	vs := NewSparse(n, append([]uint32(nil), front...))
	out := EdgeMap(g, gT, vs,
		func(_, d uint32) bool { return visited[d].CompareAndSwap(false, true) },
		func(d uint32) bool { return !visited[d].Load() },
		Opts{Procs: p, Mode: mode})
	mask := make([]bool, n)
	for i := range visited {
		mask[i] = visited[i].Load()
	}
	return sortedIDs(out), mask
}

func TestEdgeMapSparseDenseAgree(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		m := randomTestGraph(120, 1500, seed, true)
		n := m.NumNodes()
		front := []uint32{0, 5, 17, 44, 99}
		for _, p := range []int{1, 4, 8} {
			sIDs, sMask := runVisit(m, m, front, n, p, ForceSparse)
			dIDs, dMask := runVisit(m, m, front, n, p, ForceDense)
			if !reflect.DeepEqual(sIDs, dIDs) {
				t.Fatalf("seed=%d p=%d: sparse %v != dense %v", seed, p, sIDs, dIDs)
			}
			if !reflect.DeepEqual(sMask, dMask) {
				t.Fatalf("seed=%d p=%d: visited masks diverge", seed, p)
			}
			// The decoded-row fallback must agree with the indexed probe.
			fIDs, fMask := runVisit(m, rowOnly{m}, front, n, p, ForceDense)
			if !reflect.DeepEqual(sIDs, fIDs) || !reflect.DeepEqual(sMask, fMask) {
				t.Fatalf("seed=%d p=%d: row-fallback dense diverges", seed, p)
			}
		}
	}
}

func TestEdgeMapEmptyFrontier(t *testing.T) {
	m := randomTestGraph(10, 30, 11, true)
	out := EdgeMap(m, m, Empty(10), func(_, _ uint32) bool { return true }, nil, Opts{Procs: 2})
	if !out.IsEmpty() {
		t.Fatal("empty frontier must map to empty output")
	}
}

func TestEdgeMapForceDenseWithoutTransposePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ForceDense without gT must panic")
		}
	}()
	m := randomTestGraph(10, 30, 12, true)
	EdgeMap(m, nil, Single(10, 0), func(_, _ uint32) bool { return true }, nil,
		Opts{Mode: ForceDense})
}

func TestEdgeMapAutoCountsRounds(t *testing.T) {
	// A dense star frontier must flip Auto into dense mode; a tiny
	// frontier on the same graph must stay sparse.
	m := starGraph(400)
	var st Stats
	hub := NewSparse(400, []uint32{0})
	// Hub frontier: 1 vertex but 399 out-edges on a 798-edge graph —
	// (1+399)*20 > 798 → dense.
	EdgeMap(m, m, hub, func(_, _ uint32) bool { return false }, nil,
		Opts{Procs: 2, Stats: &st})
	if st.DenseRounds != 1 || st.SparseRounds != 0 {
		t.Fatalf("hub frontier: stats %+v, want one dense round", st)
	}
	// A single leaf (degree 1): (1+1)*20 < 798 → sparse.
	EdgeMap(m, m, NewSparse(400, []uint32{7}), func(_, _ uint32) bool { return false }, nil,
		Opts{Procs: 2, Stats: &st})
	if st.SparseRounds != 1 || st.Rounds != 2 {
		t.Fatalf("leaf frontier: stats %+v, want one sparse round", st)
	}
	// No edge count (rowOnly) → policy unavailable → sparse even for the hub.
	EdgeMap(rowOnly{m}, rowOnly{m}, NewSparse(400, []uint32{0}),
		func(_, _ uint32) bool { return false }, nil, Opts{Procs: 2, Stats: &st})
	if st.SparseRounds != 2 {
		t.Fatalf("no-edge-count frontier: stats %+v, want sparse", st)
	}
}

func TestBFSMatchesSerialReference(t *testing.T) {
	for _, seed := range []int64{5, 6, 7} {
		m := randomTestGraph(250, 2000, seed, true)
		want := serialBFS(m, 0)
		for _, p := range []int{1, 3, 8} {
			got, st := BFS(m, m, 0, DefaultPolicy(), p)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed=%d p=%d: frontier BFS diverges", seed, p)
			}
			if st.Rounds != st.SparseRounds+st.DenseRounds {
				t.Fatalf("stats don't add up: %+v", st)
			}
			// Push-only (no transpose) must agree too.
			gotPush, _ := BFS(m, nil, 0, DefaultPolicy(), p)
			if !reflect.DeepEqual(gotPush, want) {
				t.Fatalf("seed=%d p=%d: push-only BFS diverges", seed, p)
			}
		}
	}
}

func TestBFSDenseSwitchOnStar(t *testing.T) {
	m := starGraph(500)
	var wantDist []int32
	wantDist = append(wantDist, 0)
	for i := 1; i < 500; i++ {
		wantDist = append(wantDist, 1)
	}
	dist, st := BFS(m, m, 0, DefaultPolicy(), 4)
	if !reflect.DeepEqual(dist, wantDist) {
		t.Fatal("star BFS wrong")
	}
	if st.DenseRounds == 0 {
		t.Fatalf("star BFS never went dense: %+v", st)
	}
}

func TestBFSOutOfRangeSource(t *testing.T) {
	m := randomTestGraph(10, 20, 8, true)
	dist, st := BFS(m, m, 999, DefaultPolicy(), 2)
	for _, d := range dist {
		if d != Unreached {
			t.Fatal("out-of-range source must reach nothing")
		}
	}
	if st.Rounds != 0 {
		t.Fatal("out-of-range source must run no rounds")
	}
}

func TestPolicyThresholds(t *testing.T) {
	pol := DefaultPolicy()
	// Sparse side: (len + edges) * alpha > m.
	if pol.UseDense(1, 1, 100, 1000, false) {
		t.Fatal("tiny frontier must stay sparse")
	}
	if !pol.UseDense(10, 100, 100, 1000, false) {
		t.Fatal("heavy frontier must go dense")
	}
	// Dense side: stay dense while len * beta > n.
	if !pol.UseDense(10, 0, 100, 1000, true) {
		t.Fatal("large frontier must stay dense")
	}
	if pol.UseDense(2, 0, 100, 1000, true) {
		t.Fatal("shrunken frontier must switch back to sparse")
	}
	// Explicit alpha/beta override the defaults.
	agg := Policy{Alpha: 1, Beta: 1}
	if agg.UseDense(10, 100, 100, 1000, false) {
		t.Fatal("alpha=1 must keep this frontier sparse")
	}
}

// serialBFS is the queue reference.
func serialBFS(g Graph, src uint32) []int32 {
	n := g.NumNodes()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = Unreached
	}
	if int(src) >= n {
		return dist
	}
	dist[src] = 0
	queue := []uint32{src}
	var buf []uint32
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		buf = g.Row(buf, u)
		for _, w := range buf {
			if dist[w] == Unreached {
				dist[w] = dist[u] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// starGraph returns a symmetrized star: 0 connected to 1..n-1.
func starGraph(n int) *csr.Matrix {
	var pairs []uint32
	for v := uint32(1); v < uint32(n); v++ {
		pairs = append(pairs, 0, v)
	}
	return testGraph(edges(pairs...), n, true)
}

// edges turns a flat (u, v, u, v, ...) list into an edge slice.
func edges(pairs ...uint32) []edgelist.Edge {
	out := make([]edgelist.Edge, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, edgelist.Edge{U: pairs[i], V: pairs[i+1]})
	}
	return out
}
