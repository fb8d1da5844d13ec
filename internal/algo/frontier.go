// Traversals on the frontier core (internal/frontier): BFS with
// sparse/dense switching and SCC's reachability sweeps. BFS is the one
// hop-distance traversal: the diameter estimate, BFS ordering and the
// sharded router all run it. Components, closeness and betweenness
// measured faster as hand-rolled loops and stay loops (algo.go,
// closeness.go, betweenness.go), and k-core peeling is a serial loop of
// its own (kcore.go); timings in DESIGN.md §13.
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
