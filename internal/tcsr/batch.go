package tcsr

import (
	"csrgraph/internal/edgelist"
	"csrgraph/internal/parallel"
)

// Batched temporal queries, the Algorithm 9 dispatch pattern applied to
// the time-evolving structure: an array of point-in-time queries is split
// into p chunks answered concurrently.

// ActivityQuery asks whether edge (U, V) is active at frame T.
type ActivityQuery struct {
	U, V edgelist.NodeID
	T    int
}

// ActiveBatch answers an array of activity queries with p processors. Every
// query's frame is checked on the caller's goroutine before dispatch, so an
// out-of-range frame panics there, as in Active, and not in a pool worker.
func (pt *Packed) ActiveBatch(queries []ActivityQuery, p int) []bool {
	for _, q := range queries {
		pt.checkFrame(q.T)
	}
	out := make([]bool, len(queries))
	parallel.For(len(queries), p, func(_ int, r parallel.Range) {
		for i := r.Start; i < r.End; i++ {
			q := queries[i]
			out[i] = pt.Active(q.U, q.V, q.T)
		}
	})
	return out
}

// NeighborQuery asks for the active neighbors of U at frame T.
type NeighborQuery struct {
	U edgelist.NodeID
	T int
}

// ActiveNeighborsBatch answers an array of temporal neighborhood queries
// with p processors, checking every frame first like ActiveBatch.
func (pt *Packed) ActiveNeighborsBatch(queries []NeighborQuery, p int) [][]uint32 {
	for _, q := range queries {
		pt.checkFrame(q.T)
	}
	out := make([][]uint32, len(queries))
	parallel.For(len(queries), p, func(_ int, r parallel.Range) {
		for i := r.Start; i < r.End; i++ {
			out[i] = pt.ActiveNeighbors(queries[i].U, queries[i].T)
		}
	})
	return out
}

// DegreeTimeline returns the active out-degree of u at every frame,
// computed in one pass: the per-frame toggle rows flip a parity set whose
// cardinality is tracked incrementally, so the cost is the total size of
// u's differential rows rather than frames × row size.
func (pt *Packed) DegreeTimeline(u edgelist.NodeID) []int {
	out := make([]int, pt.NumFrames())
	parity := make(map[uint32]bool)
	active := 0
	var row []uint32
	for t := 0; t < pt.NumFrames(); t++ {
		f := pt.frames[t]
		if int(u) < f.NumNodes() {
			row = f.Row(row, u)
			for _, v := range row {
				if parity[v] {
					delete(parity, v)
					active--
				} else {
					parity[v] = true
					active++
				}
			}
		}
		out[t] = active
	}
	return out
}
