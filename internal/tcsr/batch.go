package tcsr

import (
	"fmt"
	"strconv"
	"strings"

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

// ParseQueryItem decodes one activity query of a batch, "u:v:t" with
// surrounding white space allowed, and checks the ids against the node
// count n and t against the frame count frames.
func ParseQueryItem(part string, n, frames int) (q ActivityQuery, err error) {
	fields := strings.Split(strings.TrimSpace(part), ":")
	if len(fields) != 3 {
		return q, fmt.Errorf("bad query %q, want u:v:t", part)
	}
	u, err1 := strconv.ParseUint(fields[0], 10, 32)
	v, err2 := strconv.ParseUint(fields[1], 10, 32)
	// White space inside an item is malformed, and ParseFrameItem accepts
	// it around a frame, so the field must first parse as a bare integer.
	if _, err3 := strconv.Atoi(fields[2]); err1 != nil || err2 != nil || err3 != nil {
		return q, fmt.Errorf("bad query %q", part)
	}
	t, err := ParseFrameItem(fields[2], frames)
	if err == nil && (int(u) >= n || int(v) >= n) {
		err = fmt.Errorf("query %q out of node range [0,%d)", part, n)
	}
	return ActivityQuery{U: uint32(u), V: uint32(v), T: t}, err
}

// ParseFrameItem decodes one frame index, with surrounding white space
// allowed, and checks it against the frame count frames.
func ParseFrameItem(part string, frames int) (int, error) {
	t, err := strconv.Atoi(strings.TrimSpace(part))
	if err != nil {
		return 0, fmt.Errorf("bad frame %q", part)
	}
	if t < 0 || t >= frames {
		return t, fmt.Errorf("frame %d out of range [0,%d)", t, frames)
	}
	return t, nil
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
			out[i] = pt.ActiveNeighbors(nil, queries[i].U, queries[i].T)
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
