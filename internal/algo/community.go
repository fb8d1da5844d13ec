package algo

import (
	"sync/atomic"

	"csrgraph/internal/parallel"
	"csrgraph/internal/query"
)

// Communities detects communities with synchronous label propagation
// (Raghavan et al.): every node repeatedly adopts the most frequent label
// among its neighbors (ties broken toward the smallest label, which makes
// the algorithm deterministic and p-independent), until no label changes
// or maxRounds passes. Returns the final label of every node; labels are
// node ids, so communities are named after one member.
//
// LPA is a heuristic: on symmetric social graphs it finds dense clusters
// in a few rounds, which is why it is the standard cheap community
// baseline at the scales the paper targets.
func Communities(g query.Source, maxRounds, p int) []uint32 {
	p = clampProcs(p)
	n := g.NumNodes()
	labels := make([]uint32, n)
	for i := range labels {
		labels[i] = uint32(i)
	}
	if maxRounds < 1 {
		maxRounds = 1
	}
	next := make([]uint32, n)
	for round := 0; round < maxRounds; round++ {
		var changed atomic.Bool
		parallel.For(n, p, func(_ int, r parallel.Range) {
			counts := make(map[uint32]int)
			var buf []uint32
			for u := r.Start; u < r.End; u++ {
				buf = g.Row(buf, uint32(u))
				if len(buf) == 0 {
					next[u] = labels[u]
					continue
				}
				clear(counts)
				for _, w := range buf {
					counts[labels[w]]++
				}
				best, bestCount := labels[u], 0
				for label, c := range counts {
					if c > bestCount || (c == bestCount && label < best) {
						best, bestCount = label, c
					}
				}
				next[u] = best
				if best != labels[u] {
					changed.Store(true)
				}
			}
		})
		labels, next = next, labels
		if !changed.Load() {
			break
		}
	}
	return labels
}

// CommunitySizes aggregates a label array into per-community sizes.
func CommunitySizes(labels []uint32) map[uint32]int {
	out := make(map[uint32]int)
	for _, l := range labels {
		out[l]++
	}
	return out
}

// Modularity computes the Newman modularity of a labeling over a
// symmetrized graph: the fraction of edges inside communities minus the
// expectation under the configuration model. Values near 0 mean no
// structure; social graphs with real communities score 0.3+.
func Modularity(g query.Source, labels []uint32, p int) float64 {
	p = clampProcs(p)
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	var m2 int64 // total degree = 2m for symmetric graphs
	for u := 0; u < n; u++ {
		m2 += int64(g.Degree(uint32(u)))
	}
	if m2 == 0 {
		return 0
	}
	type partial struct {
		inside float64
		degSum map[uint32]float64
	}
	chunks := parallel.Chunks(n, p)
	parts := make([]partial, len(chunks))
	parallel.For(n, len(chunks), func(c int, r parallel.Range) {
		pt := partial{degSum: make(map[uint32]float64)}
		var buf []uint32
		for u := r.Start; u < r.End; u++ {
			lu := labels[u]
			pt.degSum[lu] += float64(g.Degree(uint32(u)))
			buf = g.Row(buf, uint32(u))
			for _, w := range buf {
				if labels[w] == lu {
					pt.inside++
				}
			}
		}
		parts[c] = pt
	})
	inside := 0.0
	degSum := make(map[uint32]float64)
	for _, pt := range parts {
		if pt.degSum == nil {
			continue
		}
		inside += pt.inside
		for l, d := range pt.degSum {
			degSum[l] += d
		}
	}
	q := inside / float64(m2)
	for _, d := range degSum {
		frac := d / float64(m2)
		q -= frac * frac
	}
	return q
}

// EstimateDiameter lower-bounds the graph diameter with the double-sweep
// heuristic: BFS from src finds a farthest node f, BFS from f finds the
// eccentricity of f, which lower-bounds (and on many real graphs equals)
// the diameter. Disconnected remainders are ignored; returns 0 for graphs
// where src reaches nothing else.
func EstimateDiameter(g query.Source, src uint32, p int) int32 {
	dist := BFSFrontier(g, nil, src, p)
	far, best := src, int32(0)
	for u, d := range dist {
		if d != Unreached && d > best {
			far, best = uint32(u), d
		}
	}
	if best == 0 {
		return 0
	}
	dist2 := BFSFrontier(g, nil, far, p)
	ecc := int32(0)
	for _, d := range dist2 {
		if d != Unreached && d > ecc {
			ecc = d
		}
	}
	return ecc
}
