// Package algo provides parallel graph algorithms over the CSR
// representation — the "efficient parallel graph processing" the paper's
// conclusion positions its structures as a foundation for. Every algorithm
// works against the query.Source interface, so it runs identically over
// the plain and the bit-packed CSR.
package algo

import (
	"math"
	"sync"
	"sync/atomic"

	"csrgraph/internal/frontier"
	"csrgraph/internal/parallel"
	"csrgraph/internal/query"
)

// Unreached marks a node not reached by a traversal.
const Unreached = frontier.Unreached

// clampProcs normalizes a caller-supplied processor count: every exported
// algorithm sizes per-processor scratch arrays by p, so p must be >= 1.
func clampProcs(p int) int {
	if p < 1 {
		return 1
	}
	return p
}

// ConnectedComponents labels every node with the smallest node id in its
// weakly-connected component, using parallel label propagation: labels
// start as node ids and each round every node adopts the minimum label in
// its out-neighborhood (for undirected/symmetrized graphs this converges
// to per-component minima). Rounds run until a fixed point.
func ConnectedComponents(g query.Source, p int) []uint32 {
	p = clampProcs(p)
	n := g.NumNodes()
	labels := make([]atomic.Uint32, n)
	for i := range labels {
		labels[i].Store(uint32(i))
	}
	for {
		var changed atomic.Bool
		parallel.For(n, p, func(_ int, r parallel.Range) {
			var buf []uint32
			for u := r.Start; u < r.End; u++ {
				lu := labels[u].Load()
				buf = g.Row(buf, uint32(u))
				for _, w := range buf {
					lw := labels[w].Load()
					switch {
					case lw < lu:
						lu = lw
					case lu < lw:
						// Push our smaller label to the neighbor.
						for lu < lw && !labels[w].CompareAndSwap(lw, lu) {
							lw = labels[w].Load()
						}
						if lu < lw {
							changed.Store(true)
						}
					}
				}
				if lu < labels[u].Load() {
					labels[u].Store(lu)
					changed.Store(true)
				}
			}
		})
		if !changed.Load() {
			break
		}
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = labels[i].Load()
	}
	return out
}

// PageRank computes damped PageRank with the standard power iteration,
// parallelized over nodes. Dangling mass is redistributed uniformly. It
// stops after maxIter iterations or when the L1 delta drops below tol.
func PageRank(g query.Source, damping float64, maxIter int, tol float64, p int) []float64 {
	p = clampProcs(p)
	n := g.NumNodes()
	if n == 0 {
		return nil
	}
	rank := make([]float64, n)
	next := make([]float64, n)
	inv := 1 / float64(n)
	for i := range rank {
		rank[i] = inv
	}
	for iter := 0; iter < maxIter; iter++ {
		// Scatter contributions along out-edges. Writes to next[w] would
		// race under node-parallel scatter, so accumulate per-processor
		// arrays and reduce — a dense gather is memory-hungry for huge
		// graphs but matches this library's shared-memory scope.
		parts := make([][]float64, p)
		var dangling float64
		var mu sync.Mutex
		parallel.For(n, p, func(c int, r parallel.Range) {
			local := make([]float64, n)
			var localDangling float64
			var buf []uint32
			for u := r.Start; u < r.End; u++ {
				buf = g.Row(buf, uint32(u))
				if len(buf) == 0 {
					localDangling += rank[u]
					continue
				}
				share := rank[u] / float64(len(buf))
				for _, w := range buf {
					local[w] += share
				}
			}
			parts[c] = local
			mu.Lock()
			dangling += localDangling
			mu.Unlock()
		})
		base := (1-damping)*inv + damping*dangling*inv
		var delta float64
		parallel.For(n, p, func(_ int, r parallel.Range) {
			var localDelta float64
			for i := r.Start; i < r.End; i++ {
				sum := 0.0
				for _, part := range parts {
					if part != nil {
						sum += part[i]
					}
				}
				next[i] = base + damping*sum
				localDelta += math.Abs(next[i] - rank[i])
			}
			mu.Lock()
			delta += localDelta
			mu.Unlock()
		})
		rank, next = next, rank
		if delta < tol {
			break
		}
	}
	return rank
}
