package algo

import (
	"sync/atomic"

	"csrgraph/internal/parallel"
	"csrgraph/internal/prefixsum"
	"csrgraph/internal/query"
)

// CountTriangles returns the number of triangles (unordered node triples
// with all three edges present) in a symmetrized graph, self-loops aside.
func CountTriangles(g query.Source, p int) int64 {
	total, _, _ := triangles(g, p, false)
	return total
}

// LocalClustering returns the local clustering coefficient of every node
// of a symmetrized graph: the fraction of a node's neighbor pairs that are
// themselves connected. A self-loop counts neither as a neighbor nor in
// the degree. Nodes with degree < 2 get 0.
func LocalClustering(g query.Source, p int) []float64 {
	_, cc, _ := triangles(g, p, true)
	return cc
}

// GlobalClustering returns the average local clustering coefficient over
// nodes with degree >= 2, self-loops aside (the usual "average clustering"
// statistic), and the number of such nodes.
func GlobalClustering(g query.Source, p int) (float64, int) {
	_, cc, deg := triangles(g, p, true)
	var sum float64
	count := 0
	for u, d := range deg {
		if d >= 2 {
			sum += cc[u]
			count++
		}
	}
	return sum / float64(max(count, 1)), count
}

// triangles counts the triangles of a symmetrized graph, self-loops
// dropped, by GBBS's degree-oriented intersection (Dhulipala, Blelloch,
// Shun, arXiv:1805.05208): each edge is kept once, toward the higher
// (degree, id), in a 4-byte oriented CSR, and a triangle is the common
// target of its lowest and middle nodes' rows. Any total order counts each
// triangle once; this one bounds every oriented row by O(sqrt(m)). On a
// graph that is not symmetric the result depends on the order. With
// perVertex it also returns every node's local clustering coefficient,
// 2·t(u) / (d(d−1)), and its loop-free degree d.
func triangles(g query.Source, p int, perVertex bool) (int64, []float64, []int) {
	const grain = 256 // hubs sit at low ids: static chunks would starve
	n := g.NumNodes()
	rank := make([]int, n)
	for u := range rank {
		rank[u] = g.Degree(uint32(u))
	}

	// Orient: a count pass (kept edges into off[u+1], loop-free degree),
	// then, once adj exists, a fill pass in row order, so rows stay sorted.
	off, deg := make([]int, n+1), make([]int, n)
	var adj []uint32
	orient := func(_ int, r parallel.Range) {
		var buf []uint32
		for u := r.Start; u < r.End; u++ {
			buf = g.Row(buf, uint32(u))
			k, d := 0, len(buf)
			for _, v := range buf {
				if rank[u] < rank[v] || rank[u] == rank[v] && uint32(u) < v {
					if adj != nil {
						adj[off[u]+k] = v
					}
					k++
				} else if v == uint32(u) {
					d--
				}
			}
			if adj == nil {
				off[u+1], deg[u] = k, d
			}
		}
	}
	parallel.ForDynamic(n, p, grain, orient)
	prefixsum.Inclusive(off[1:], p)
	adj = make([]uint32, off[n])
	parallel.ForDynamic(n, p, grain, orient)

	var tri []atomic.Int64
	if perVertex {
		tri = make([]atomic.Int64, n)
	}
	var total atomic.Int64
	parallel.ForDynamic(n, p, grain, func(_ int, r parallel.Range) {
		var local int64
		for u := r.Start; u < r.End; u++ {
			a := adj[off[u]:off[u+1]]
			for _, v := range a {
				b := adj[off[v]:off[v+1]]
				for i, j := 0, 0; i < len(a) && j < len(b); {
					switch {
					case a[i] < b[j]:
						i++
					case a[i] > b[j]:
						j++
					default:
						if perVertex {
							tri[u].Add(1)
							tri[v].Add(1)
							tri[a[i]].Add(1)
						}
						local++
						i++
						j++
					}
				}
			}
		}
		total.Add(local)
	})
	if !perVertex {
		return total.Load(), nil, nil
	}
	cc := make([]float64, n)
	for u, d := range deg {
		if d >= 2 {
			cc[u] = float64(2*tri[u].Load()) / float64(d*(d-1))
		}
	}
	return total.Load(), cc, deg
}
