// Package degree implements the paper's Algorithms 2 and 3: parallel
// computation of the out-degree array from a source-sorted edge list.
//
// The edge list is split into p chunks. Because the list is sorted by source
// node, each node's edges form one consecutive run, and a run can cross a
// chunk boundary. Every processor therefore counts the run that *starts* its
// chunk into a private slot of a secondary array (the pseudocode's
// globalTempDegree) and counts all later runs — which are guaranteed to
// start inside the chunk — directly into the shared degree array. After the
// join (the pseudocode's sync()) the per-processor first-run counts are
// merged in serially (Algorithm 3, Figure 3). At most one run overlaps each
// boundary, so the merge touches p entries.
package degree

import (
	"fmt"
	"sync/atomic"

	"csrgraph/internal/edgelist"
	"csrgraph/internal/parallel"
)

// Sequential computes the out-degree of every node in [0, numNodes) by a
// single histogram pass. It is the reference for the parallel version.
func Sequential(l edgelist.List, numNodes int) []uint32 {
	deg := make([]uint32, numNodes)
	for _, e := range l {
		deg[e.U]++
	}
	return deg
}

// key orders edges by (u, v): one comparison of two keys checks both the
// source order the degree count relies on and the destination order within
// a source that the CSR's column fill copies as is.
func key(e edgelist.Edge) uint64 { return uint64(e.U)<<32 | uint64(e.V) }

// Parallel computes the out-degree array from an edge list sorted by
// (u, v) using p processors, per Algorithms 2-3. It panics if the list is
// not so sorted (a precondition the paper states for its inputs, and csr's
// builders rely on it for sorted rows); use edgelist.List.Prepared or
// SortByUV first. Equal pairs are allowed.
func Parallel(l edgelist.List, numNodes, p int) []uint32 {
	deg := make([]uint32, numNodes)
	chunks := parallel.Chunks(len(l), p)
	if len(chunks) == 0 {
		return deg
	}
	// globalTempDegree: one slot per processor for the count of the run that
	// starts its chunk, plus the node that run belongs to.
	tempCount := make([]uint32, len(chunks))
	tempNode := make([]edgelist.NodeID, len(chunks))
	// First unsorted position seen by any chunk; -1 when none. Chunk bodies
	// must not panic themselves — a panic on a pool worker cannot be
	// recovered by the caller — so the violation is recorded and raised
	// after the join.
	var unsorted atomic.Int64
	unsorted.Store(-1)
	noteUnsorted := func(i int) {
		for {
			cur := unsorted.Load()
			if cur >= 0 && cur <= int64(i) {
				return
			}
			if unsorted.CompareAndSwap(cur, int64(i)) {
				return
			}
		}
	}

	parallel.For(len(l), p, func(c int, r parallel.Range) {
		i := r.Start
		// Algorithm 2, first phase: count consecutive occurrences of the
		// chunk's first node into the secondary array. Every edge but the
		// list's first is checked against the one before it, across the
		// chunk start too.
		first := l[i].U
		tempNode[c] = first
		for i < r.End && l[i].U == first {
			if i > 0 && key(l[i]) < key(l[i-1]) {
				noteUnsorted(i)
			}
			i++
		}
		tempCount[c] = uint32(i - r.Start)
		// Remaining runs start inside this chunk; count them directly into
		// the global degree array. No other processor writes these nodes.
		prev := key(l[i-1])
		for j, e := range l[i:r.End] {
			k := key(e)
			if k < prev {
				noteUnsorted(i + j)
			}
			prev = k
			deg[e.U]++
		}
	})
	// Algorithm 3 merge, after the join (the pseudocode's sync()): fold the
	// first-run counts back in. Two chunks may share a first node when a
	// run spans whole chunks, so the merge is one serial pass over the
	// pid-indexed slots.
	for c := range chunks {
		deg[tempNode[c]] += tempCount[c]
	}
	if i := unsorted.Load(); i >= 0 {
		panic(fmt.Sprintf("degree: edge list not sorted by (u, v) at index %d", i))
	}
	return deg
}

// MaxDegree returns the largest value in deg, or 0 for an empty slice.
func MaxDegree(deg []uint32) uint32 {
	var max uint32
	for _, d := range deg {
		if d > max {
			max = d
		}
	}
	return max
}
