// Traversals on the frontier core (internal/frontier): BFS with
// sparse/dense switching and SCC's reachability sweeps, plus k-core
// peeling as a fused specialization of its sparse round. BFS is the one
// hop-distance traversal: the diameter estimate, BFS ordering and the
// sharded router all run it. Components, closeness and betweenness
// measured faster as hand-rolled loops and stay loops (algo.go,
// closeness.go, betweenness.go; timings in DESIGN.md §13).
package algo

import (
	"math"
	"sync/atomic"

	"csrgraph/internal/edgelist"
	"csrgraph/internal/frontier"
	"csrgraph/internal/parallel"
	"csrgraph/internal/query"
)

// BFSFrontier computes BFS hop distances on the frontier core with the
// default switching policy. gT enables dense (pull) rounds; pass nil for a
// push-only traversal (arbitrary directed graphs without a transpose at
// hand) or the graph itself when it is symmetric; the distances are the
// same either way.
func BFSFrontier(g, gT query.Source, src edgelist.NodeID, p int) []int32 {
	dist, _ := BFSFrontierStats(g, gT, src, frontier.DefaultPolicy(), p)
	return dist
}

// BFSFrontierStats is BFSFrontier with an explicit policy, also returning
// the per-round mode counts (the csrserver analytics endpoints surface
// them per request).
func BFSFrontierStats(g, gT query.Source, src edgelist.NodeID, pol frontier.Policy, p int) ([]int32, frontier.Stats) {
	return frontier.BFS(g, gT, src, pol, clampProcs(p))
}

// reachableWithinFrontier marks the nodes of the generation-gen subset
// (tagged gen in inSubset) reachable from src. g is the traversal
// direction and gT its transpose (enabling dense rounds); SCC's
// forward/backward sweeps pass (g, gT) and (gT, g).
func reachableWithinFrontier(g, gT query.Source, src uint32, inSubset []int32, gen int32, p int) []bool {
	n := g.NumNodes()
	seen := make([]atomic.Bool, n)
	seen[src].Store(true)
	vs := frontier.Single(n, src)
	opts := frontier.Opts{Procs: p}
	update := func(_, d uint32) bool { return seen[d].CompareAndSwap(false, true) }
	cond := func(d uint32) bool { return inSubset[d] == gen && !seen[d].Load() }
	for !vs.IsEmpty() {
		vs = frontier.EdgeMap(g, gT, vs, update, cond, opts)
	}
	out := make([]bool, n)
	parallel.For(n, p, func(_ int, r parallel.Range) {
		for i := r.Start; i < r.End; i++ {
			out[i] = seen[i].Load()
		}
	})
	return out
}

// serialPeelEdges bounds the edges a peel subround processes serially:
// below it the parallel dispatch and the contended read-modify-write
// decrements cost more than the edges.
const serialPeelEdges = 2048

// CoreNumbersBucketed computes k-core numbers of a symmetrized graph by
// level-synchronous peeling on exact degree crossings (the level/subround
// shape of arXiv:2502.08042, with a compacted scan in place of its bucket
// structure). deg holds each vertex's induced degree. A peeled vertex's
// degree never exceeds its core and a live vertex's degree exceeds the
// previous level, so deg <= k marks a vertex peeled. Each level scans the
// remaining vertices twice, in id order: once to drop the peeled ones and
// find the minimum live degree, which becomes k (levels with no vertex are
// skipped), and once to split off the vertices at degree k. Subrounds then
// peel that frontier: a neighbour is decremented only while its degree is
// above k, and the one decrement that lands exactly on k moves it to the
// next subround, so each vertex joins exactly once with no claiming or
// dedup. A vertex meets at most core+2 scans of each kind and the cores
// sum to at most m, so the scan work is O(m+n), and the subrounds do one
// decrement per peeled edge. The subround is a fused specialization of the
// sparse EdgeMap shape (GBBS's nghCount): the per-edge work is too cheap
// to pay a closure call per edge, and per-worker output buffers persist
// across the hundreds of subrounds a peel runs. The exported name predates
// the rewrite and is kept for its callers.
func CoreNumbersBucketed(g query.Source, p int) []uint32 {
	p = clampProcs(p)
	n := g.NumNodes()
	core := make([]uint32, n)
	if n == 0 {
		return core
	}
	deg := make([]atomic.Int32, n)
	parallel.For(n, p, func(_ int, r parallel.Range) {
		for u := r.Start; u < r.End; u++ {
			deg[u].Store(int32(g.Degree(uint32(u))))
		}
	})
	rem := make([]uint32, n)
	for i := range rem {
		rem[i] = uint32(i)
	}
	var ids, next []uint32
	bufs := make([][]uint32, p) // per-worker row-decode scratch, reused across rounds
	outs := make([][]uint32, p) // per-worker next-subround buffers, reused across rounds
	for k := int32(-1); ; {
		live, lo := rem[:0], int32(math.MaxInt32)
		for _, v := range rem {
			if d := deg[v].Load(); d > k {
				live = append(live, v)
				lo = min(lo, d)
			}
		}
		if len(live) == 0 {
			return core
		}
		k = lo
		ids, rem = ids[:0], live[:0]
		for _, v := range live {
			if deg[v].Load() == k {
				ids = append(ids, v)
			} else {
				rem = append(rem, v)
			}
		}
		kk := k // per-level snapshot: pool bodies must not read the loop counter
		for len(ids) > 0 {
			edges := 0
			for _, v := range ids {
				core[v] = uint32(kk)
				edges += g.Degree(v)
			}
			next = next[:0]
			if p == 1 || edges <= serialPeelEdges {
				// Serial subround: one goroutine, so a Load and a Store
				// stand in for the Add.
				buf := bufs[0]
				for _, u := range ids {
					buf = g.Row(buf, u)
					for _, d := range buf {
						if nd := deg[d].Load() - 1; nd >= kk {
							deg[d].Store(nd)
							if nd == kk {
								next = append(next, d)
							}
						}
					}
				}
				bufs[0] = buf
			} else {
				grain := 1 + len(ids)*serialPeelEdges/(edges*4)
				parallel.ForDynamic(len(ids), p, grain, func(w int, r parallel.Range) {
					// Workers grab many ranges per subround; out extends the
					// worker's buffer across grabs and is drained below.
					buf, out := bufs[w], outs[w]
					for i := r.Start; i < r.End; i++ {
						buf = g.Row(buf, ids[i])
						for _, d := range buf {
							// The Load spares peeled vertices a locked write.
							// Racing decrements may overshoot below kk; the
							// Add results are distinct, so exactly one lands
							// on kk, and an overshot vertex still reads as
							// peeled (deg <= k) from here on.
							if deg[d].Load() > kk && deg[d].Add(-1) == kk {
								out = append(out, d)
							}
						}
					}
					bufs[w], outs[w] = buf, out
				})
				for w := range outs {
					next = append(next, outs[w]...)
					outs[w] = outs[w][:0]
				}
			}
			ids, next = next, ids
		}
	}
}
