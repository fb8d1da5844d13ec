// Traversals on the frontier core (internal/frontier): BFS with
// sparse/dense switching, SCC's reachability sweeps and bucketed k-core
// peeling, the analytics where the core measured faster than a
// hand-rolled loop. Components, closeness and betweenness are the
// reverse case and stay loops (bfs.go, closeness.go, betweenness.go;
// timings in DESIGN.md §13).
package algo

import (
	"sync/atomic"

	"csrgraph/internal/edgelist"
	"csrgraph/internal/frontier"
	"csrgraph/internal/parallel"
	"csrgraph/internal/query"
)

// BFSFrontier computes BFS hop distances on the frontier core with the
// default switching policy. gT enables dense (pull) rounds; pass nil for a
// push-only traversal (arbitrary directed graphs without a transpose at
// hand) or the graph itself when it is symmetric. Output is identical to
// BFS, the hand-rolled push-only loop.
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

// removedDeg is the sentinel stored in the induced-degree array when a
// vertex is peeled: far above any bucket window, and with enough headroom
// that the at-most-m further decrements can never bring it back below one.
const removedDeg = int32(1) << 30

// serialPeelEdges bounds the frontier size a peel round processes
// serially: below it the parallel dispatch plus the switch from plain to
// lock-prefixed degree updates costs more than the edges.
const serialPeelEdges = 2048

// CoreNumbersBucketed computes k-core numbers of a symmetrized graph by
// bucketed peeling (Julienne-style, arXiv:2502.08042): vertices sit in a
// lazy bucket structure keyed by induced degree, the lowest bucket pops as
// a frontier, and one traversal round batches the degree decrements
// (fetch-and-add) of the peeled vertices' neighbors, which are then
// re-bucketed at their clamped new degree. The round is a fused
// specialization of the sparse EdgeMap shape (Julienne's nghCount): the
// per-edge work is one fetch-and-add, too cheap to pay a closure call per
// edge, and per-worker output buffers persist across the thousands of
// rounds a peel runs. Work is proportional to the peeled edges, with no
// per-level rescan of all vertices.
func CoreNumbersBucketed(g query.Source, p int) []uint32 {
	p = clampProcs(p)
	n := g.NumNodes()
	core := make([]uint32, n)
	if n == 0 {
		return core
	}
	deg := make([]atomic.Int32, n)
	pri := make([]uint32, n)
	parallel.For(n, p, func(_ int, r parallel.Range) {
		for u := r.Start; u < r.End; u++ {
			d := g.Degree(uint32(u))
			deg[u].Store(int32(d))
			pri[u] = uint32(d)
		}
	})
	b := frontier.NewBuckets(pri)
	// Overflow vertices (degree at or above the open window) never need
	// exact re-bucketing, so decrements to them skip the emission path
	// entirely; the reshard recovers their true priority from deg. On
	// power-law graphs this turns the vast majority of decrements — edges
	// into high-degree hubs — into a load+add.
	b.SetPriorityFn(func(v uint32) uint32 { return uint32(deg[v].Load()) })
	// Touched-vertex emissions are NOT deduplicated: a vertex decremented
	// twice in one round appears twice in outs, and the second re-bucket is
	// a no-op (Update returns early on an unchanged priority). Duplicate
	// appends are cheaper than any per-edge claiming protocol.
	bufs := make([][]uint32, p) // per-worker row-decode scratch, reused across rounds
	outs := make([][]uint32, p) // per-worker touched-vertex buffers, reused across rounds
	for {
		k, ids := b.PopMin(p)
		if ids == nil {
			return core
		}
		kk := k // per-round snapshot: pool bodies must not read the loop counter
		edges := 0
		for _, v := range ids {
			core[v] = kk
			// Peeled vertices park at a sentinel degree far above any window,
			// so the single >= top test below also filters them — no separate
			// removed check on the per-edge path. The slack below the sentinel
			// absorbs every future decrement (at most m in total).
			deg[v].Store(removedDeg)
			edges += g.Degree(v)
		}
		top := int32(b.WindowTop()) // fixed for the round; PopMin already reshard-advanced
		// One decrement per peeled edge; removed neighbors and neighbors
		// still in overflow need no re-bucketing and exit on the single
		// >= top compare.
		if p == 1 || edges <= serialPeelEdges {
			// Serial round: single-goroutine, so degree updates can be plain
			// load/store on the atomic slots.
			buf, out := bufs[0], outs[0][:0]
			for _, u := range ids {
				buf = g.Row(buf, u)
				for _, d := range buf {
					nd := deg[d].Load() - 1
					deg[d].Store(nd)
					if nd < top {
						out = append(out, d)
					}
				}
			}
			bufs[0], outs[0] = buf, out
		} else {
			grain := 1 + len(ids)*serialPeelEdges/(edges*4)
			parallel.ForDynamic(len(ids), p, grain, func(w int, r parallel.Range) {
				// Workers grab many ranges per round; out extends the
				// worker's buffer across grabs and is reset between rounds.
				buf, out := bufs[w], outs[w]
				for i := r.Start; i < r.End; i++ {
					buf = g.Row(buf, ids[i])
					for _, d := range buf {
						if deg[d].Add(-1) < top {
							out = append(out, d)
						}
					}
				}
				bufs[w], outs[w] = buf, out
			})
		}
		for w := 0; w < p; w++ {
			for _, v := range outs[w] {
				nd := deg[v].Load()
				if nd < int32(kk) {
					nd = int32(kk)
				}
				b.Update(v, uint32(nd))
			}
			outs[w] = outs[w][:0]
		}
	}
}
