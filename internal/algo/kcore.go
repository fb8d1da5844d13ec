package algo

import (
	"math"

	"csrgraph/internal/parallel"
	"csrgraph/internal/query"
)

// CoreNumbersBucketed computes k-core numbers of a symmetrized graph by
// level-synchronous peeling on exact degree crossings (the level/subround
// shape of arXiv:2502.08042, with a compacted scan in place of its bucket
// structure). deg holds each vertex's induced degree. A peeled vertex's
// degree stays at its core and a live vertex's degree exceeds the previous
// level, so deg <= k marks a vertex peeled. Each level (peelLevel) jumps k
// to the minimum live degree, skipping empty levels, and splits off the
// vertices at it. Subrounds (peelRound) then peel that frontier: a
// neighbour is decremented only while its degree is above k, and the one
// decrement that lands exactly on k puts it in the next subround, so each
// vertex joins once with no claiming or dedup (GBBS's nghCount, fused into
// the row walk). A vertex meets at most core+2 level scans and the cores
// sum to at most m, so the work is O(m+n).
//
// p parallelises only the degree fill. The peel runs on one goroutine over
// plain int32 degrees: a parallel subround pays a locked decrement per edge
// and shares deg's cache lines between workers, and it lost to this loop
// at every measured size (DESIGN.md §13). The exported name predates the
// level peel and is kept for its callers.
func CoreNumbersBucketed(g query.Source, p int) []uint32 {
	n := g.NumNodes()
	core := make([]uint32, n)
	if n == 0 {
		return core
	}
	deg := make([]int32, n)
	parallel.For(n, clampProcs(p), func(_ int, r parallel.Range) {
		for u := r.Start; u < r.End; u++ {
			deg[u] = int32(g.Degree(uint32(u)))
		}
	})
	rem := make([]uint32, n)
	for i := range rem {
		rem[i] = uint32(i)
	}
	// A vertex lands on k at most once per level and the frontier being
	// peeled never lands, so n bounds both buffers.
	ids, next := make([]uint32, n), make([]uint32, n)
	var buf []uint32 // row-decode scratch
	for k := int32(-1); ; {
		var a int
		k, a, rem = peelLevel(deg, rem, ids, k)
		if k == math.MaxInt32 {
			return core
		}
		for a > 0 {
			for _, v := range ids[:a] {
				core[v] = uint32(k)
			}
			a, buf = peelRound(g, deg, ids[:a], next, buf, k)
			ids, next = next, ids
		}
	}
}

// peelLevel starts the level after k. It compacts rem to its live ids
// (deg > k) while taking their minimum degree, the new level, then moves
// the ids at that degree to ids[:a] and returns the rest as rem. Both
// passes are branch-free: the id is always written and the 0/1 outcome
// advances the write index. The level is math.MaxInt32 when no vertex is
// left.
//
//csr:hotpath
func peelLevel(deg []int32, rem, ids []uint32, k int32) (level int32, a int, rest []uint32) {
	j, lo := 0, int32(math.MaxInt32)
	for _, v := range rem {
		d := deg[v]
		rem[j] = v
		keep := (k - d) >> 31 // all ones when d > k
		j += int(keep & 1)
		e := d&keep | math.MaxInt32&^keep // MaxInt32 for a peeled vertex
		lo += (e - lo) & ((e - lo) >> 31) // lo = min(lo, e)
	}
	live := rem[:j]
	b := 0
	for _, v := range live {
		at := int(uint32(deg[v]-lo-1) >> 31) // 1 when deg[v] == lo
		ids[a] = v
		live[b] = v
		a += at
		b += 1 - at
	}
	return lo, a, live[:b]
}

// peelRound peels the subround frontier ids at level k: every neighbour
// above k is decremented, and those that land on k are written to
// next[:j]. The walk is branch-free: every edge stores its neighbour's
// degree back and writes it to next, and the 0/1 outcome decides whether
// the store decremented and whether j advances. buf is the row-decode
// scratch, returned for reuse.
//
//csr:hotpath
func peelRound(g query.Source, deg []int32, ids, next, buf []uint32, k int32) (j int, _ []uint32) {
	for _, u := range ids {
		buf = g.Row(buf, u)
		for _, d := range buf {
			x := deg[d]
			above := (k - x) >> 31 & 1 // 1 when x > k
			deg[d] = x - above
			next[j] = d
			j += int(above & int32(uint32(x-k-2)>>31)) // x-1 == k
		}
	}
	return j, buf
}
