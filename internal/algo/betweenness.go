package algo

import (
	"csrgraph/internal/parallel"
	"csrgraph/internal/query"
)

// Betweenness computes node betweenness centrality with Brandes'
// algorithm — the "edge betweenness of the highways connecting major
// cities" analysis the paper's introduction motivates. One single-source
// shortest-path phase runs per source node; sources are distributed
// across p processors and each processor accumulates into a private score
// array that is reduced at the end (Brandes is embarrassingly parallel
// over sources).
//
// Scores follow the directed convention (no halving); for a symmetrized
// graph every unordered pair is counted in both directions.
func Betweenness(g query.Source, p int) []float64 {
	p = clampProcs(p)
	n := g.NumNodes()
	parts := make([][]float64, p)
	chunks := parallel.Chunks(n, p)
	parallel.For(n, len(chunks), func(c int, r parallel.Range) {
		bc := make([]float64, n)
		st := newBrandesState(n)
		for s := r.Start; s < r.End; s++ {
			brandesSource(g, uint32(s), st, bc)
		}
		parts[c] = bc
	})
	out := make([]float64, n)
	for _, part := range parts {
		if part == nil {
			continue
		}
		for i, v := range part {
			out[i] += v
		}
	}
	return out
}

// BetweennessSample estimates betweenness from a subset of source nodes
// (every k-th node), scaled to the full-source estimate — the standard
// approximation for large graphs. stride must be >= 1.
func BetweennessSample(g query.Source, stride, p int) []float64 {
	if stride < 1 {
		stride = 1
	}
	p = clampProcs(p)
	n := g.NumNodes()
	sources := make([]uint32, 0, n/stride+1)
	for s := 0; s < n; s += stride {
		sources = append(sources, uint32(s))
	}
	parts := make([][]float64, p)
	chunks := parallel.Chunks(len(sources), p)
	parallel.For(len(sources), len(chunks), func(c int, r parallel.Range) {
		bc := make([]float64, n)
		st := newBrandesState(n)
		for i := r.Start; i < r.End; i++ {
			brandesSource(g, sources[i], st, bc)
		}
		parts[c] = bc
	})
	out := make([]float64, n)
	scale := float64(stride)
	for _, part := range parts {
		if part == nil {
			continue
		}
		for i, v := range part {
			out[i] += v * scale
		}
	}
	return out
}

// brandesState holds the per-source scratch arrays, reused across sources
// to avoid re-allocation.
type brandesState struct {
	dist  []int32
	sigma []float64 // shortest-path counts
	delta []float64 // dependency accumulators
	order []uint32  // BFS visit order (stack for the dependency pass)
	queue []uint32
	row   []uint32
}

func newBrandesState(n int) *brandesState {
	return &brandesState{
		dist:  make([]int32, n),
		sigma: make([]float64, n),
		delta: make([]float64, n),
		order: make([]uint32, 0, n),
		queue: make([]uint32, 0, n),
	}
}

// brandesSource runs one unweighted Brandes phase from s, accumulating
// dependencies into bc.
func brandesSource(g query.Source, s uint32, st *brandesState, bc []float64) {
	n := len(st.dist)
	for i := 0; i < n; i++ {
		st.dist[i] = -1
		st.sigma[i] = 0
		st.delta[i] = 0
	}
	st.order = st.order[:0]
	st.queue = st.queue[:0]

	st.dist[s] = 0
	st.sigma[s] = 1
	st.queue = append(st.queue, s)
	for qi := 0; qi < len(st.queue); qi++ {
		v := st.queue[qi]
		st.order = append(st.order, v)
		st.row = g.Row(st.row, v)
		for _, w := range st.row {
			if st.dist[w] < 0 {
				st.dist[w] = st.dist[v] + 1
				st.queue = append(st.queue, w)
			}
			if st.dist[w] == st.dist[v]+1 {
				st.sigma[w] += st.sigma[v]
			}
		}
	}
	// Dependency accumulation in reverse BFS order.
	for i := len(st.order) - 1; i >= 0; i-- {
		w := st.order[i]
		st.row = g.Row(st.row, w)
		for _, v := range st.row {
			if st.dist[v] == st.dist[w]+1 && st.sigma[v] > 0 {
				st.delta[w] += st.sigma[w] / st.sigma[v] * (1 + st.delta[v])
			}
		}
		if w != s {
			bc[w] += st.delta[w]
		}
	}
}

// TopKBetweenness returns the k nodes with the highest scores, paired
// with their scores, in descending order. k is clamped to
// [0, len(scores)].
func TopKBetweenness(scores []float64, k int) (nodes []uint32, vals []float64) {
	type pair struct {
		node  uint32
		score float64
	}
	pairs := make([]pair, len(scores))
	for i, s := range scores {
		pairs[i] = pair{uint32(i), s}
	}
	// Partial selection sort is fine for small k.
	k = max(0, min(k, len(pairs)))
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < len(pairs); j++ {
			if pairs[j].score > pairs[best].score {
				best = j
			}
		}
		pairs[i], pairs[best] = pairs[best], pairs[i]
	}
	nodes = make([]uint32, k)
	vals = make([]float64, k)
	for i := 0; i < k; i++ {
		nodes[i] = pairs[i].node
		vals[i] = pairs[i].score
	}
	return nodes, vals
}
