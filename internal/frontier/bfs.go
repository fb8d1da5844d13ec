package frontier

import (
	"sync/atomic"

	"csrgraph/internal/parallel"
)

// Unreached marks a vertex a traversal never visited (same sentinel as
// internal/algo).
const Unreached = int32(-1)

// BFS computes hop distances from src over g with direction-optimizing
// frontier rounds — the canonical EdgeMap instantiation (the whole
// algorithm is the claim CAS, the cond, and the round loop). gT is the
// transpose enabling dense (pull) rounds; pass nil for a push-only
// traversal or the graph itself when it is symmetric. Out-of-range src
// yields all-Unreached.
func BFS(g, gT Graph, src uint32, pol Policy, p int) ([]int32, Stats) {
	n := g.NumNodes()
	levels := make([]atomic.Int32, n)
	parallel.For(n, p, func(_ int, r parallel.Range) {
		for i := r.Start; i < r.End; i++ {
			levels[i].Store(Unreached)
		}
	})
	var st Stats
	if int(src) < n {
		levels[src].Store(0)
		vs := Single(n, src)
		opts := Opts{Procs: p, Policy: pol, Stats: &st}
		for level := int32(1); !vs.IsEmpty(); level++ {
			lvl := level // per-round snapshot: pool bodies must not read the loop counter
			vs = EdgeMap(g, gT, vs,
				func(s, d uint32) bool { return levels[d].CompareAndSwap(Unreached, lvl) },
				func(d uint32) bool { return levels[d].Load() == Unreached },
				opts)
		}
	}
	dist := make([]int32, n)
	parallel.For(n, p, func(_ int, r parallel.Range) {
		for i := r.Start; i < r.End; i++ {
			dist[i] = levels[i].Load()
		}
	})
	return dist, st
}
