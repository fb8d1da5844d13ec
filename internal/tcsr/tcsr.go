// Package tcsr implements Section IV of the paper: parallel construction of
// the time-evolving differential CSR (the paper's TPCSR/TCSR).
//
// A time-evolving graph is a sequence of frames. The paper's input is a
// time-sorted list of (u, v, t) triples where a triple means edge (u, v)
// *changed state* at frame t — "if the edge appears again later in another
// time-frame, the edge is considered to be deactivated". The stored form is
// differential: frame 0 is an absolute CSR snapshot, every later frame is a
// CSR of the edges that toggled in that frame. An edge is active at frame t
// iff it occurs an odd number of times in frames 0..t (the parity rule of
// Section IV). Every frame is bit-packed as it is built: Packed is the one
// representation, and its checkpoint interval the one knob.
//
// Construction is parallel in two ways, mirroring Algorithm 5:
//
//   - from a toggle-event stream, the event list is divided among p
//     processors, each builds CSRs for the frames inside its chunk, and
//     frames that straddle a chunk boundary are merged afterwards ("merge
//     overflowing CSRs between chunks") — see BuildFromEvents;
//   - from a series of absolute snapshots, the differential pass runs over
//     chunks of frames like the chunked prefix sum (Figure 5): each chunk
//     differences its frame pairs, including the one boundary pair that
//     reads the previous chunk's last snapshot — see BuildFromSnapshots.
package tcsr

import (
	"fmt"
	"time"

	"csrgraph/internal/csr"
	"csrgraph/internal/edgelist"
	"csrgraph/internal/obs"
	"csrgraph/internal/parallel"
)

// BuildFromEvents constructs the bit-packed differential TCSR from a
// (t, u, v)-sorted toggle-event list using p processors. Because the events
// of one frame are already the frame's toggle set, the differential form is
// the per-frame event CSRs themselves; parallelism divides the event list
// into chunks, builds each chunk's frame CSRs privately, and merges the
// at-most-one frame that overlaps each chunk boundary. Each frame is packed
// as soon as it is built.
func BuildFromEvents(events edgelist.TemporalList, numNodes, numFrames, p int) (*Packed, error) {
	if !events.IsSorted() {
		return nil, fmt.Errorf("tcsr: event list must be sorted by (t, u, v)")
	}
	if nf := events.NumFrames(); nf > numFrames {
		numFrames = nf
	}
	if numFrames == 0 {
		return newPacked(numNodes, nil), nil
	}
	// Slice the event list by frame. Frame starts are found per chunk in
	// parallel; a frame spanning a boundary is detected because both chunks
	// see part of it — exactly the overlap Algorithm 5 merges. Here the
	// merge is positional: the frame's full extent is the union of the
	// parts, computed from the per-chunk first/last frame markers.
	bounds := frameBounds(events, numFrames, p)
	frames := make([]*csr.Packed, numFrames)
	start := obs.Now()
	parallel.ForEach(numFrames, p, func(t int) {
		part := events[bounds[t]:bounds[t+1]]
		frameEdges := make(edgelist.List, len(part))
		for i, ev := range part {
			frameEdges[i] = edgelist.Edge{U: ev.U, V: ev.V}
		}
		// Events within a frame are (u, v)-sorted by the input invariant.
		frames[t] = packFrame(frameEdges, numNodes)
	})
	obs.Tick(stageFrames, start)
	return newPacked(numNodes, frames), nil
}

// frameBounds computes, in parallel over p chunks of the event list, the
// start index of every frame: bounds[t] is the first event with frame >= t,
// bounds[numFrames] = len(events).
func frameBounds(events edgelist.TemporalList, numFrames, p int) []int {
	bounds := make([]int, numFrames+1)
	for t := range bounds {
		bounds[t] = -1
	}
	bounds[numFrames] = len(events)
	chunks := parallel.Chunks(len(events), p)
	parallel.For(len(events), len(chunks), func(_ int, r parallel.Range) {
		for i := r.Start; i < r.End; i++ {
			// The first event of a frame is where the frame id changes; only
			// the chunk containing that position writes the bound, so the
			// writes are disjoint.
			if i == 0 || events[i].T != events[i-1].T {
				bounds[events[i].T] = i
			}
		}
	})
	// Frames with no events get the next frame's start (empty range). Walk
	// backwards filling gaps; frame 0 with no events starts at 0.
	for t := numFrames - 1; t >= 0; t-- {
		if bounds[t] < 0 {
			bounds[t] = bounds[t+1]
		}
	}
	return bounds
}

// BuildFromSnapshots constructs the bit-packed differential TCSR from a
// series of absolute per-frame edge sets (each sorted by (u, v)). This is the
// Figure 5 pipeline: frames are divided into p chunks and each processor
// differences every frame of its chunk against its predecessor; chunk 0's
// first frame is kept absolute. A chunk's first frame is its boundary pair:
// it reads the previous chunk's last snapshot, which is read-only input, so
// unlike the prefix sum's carry it needs no step after the join.
func BuildFromSnapshots(snapshots []edgelist.List, numNodes, p int) *Packed {
	frames := make([]*csr.Packed, len(snapshots))
	if len(snapshots) == 0 {
		return newPacked(numNodes, nil)
	}
	start := obs.Now()
	// Per-chunk busy time feeds the differential pass's imbalance gauge;
	// nil when metrics are off.
	var chunkNS []int64
	if !start.IsZero() {
		chunkNS = make([]int64, len(parallel.Chunks(len(snapshots), p)))
	}
	parallel.For(len(snapshots), p, func(c int, r parallel.Range) {
		t0 := time.Now()
		for t := r.Start; t < r.End; t++ {
			if t == 0 {
				frames[0] = packFrame(snapshots[0], numNodes)
			} else {
				frames[t] = packFrame(symmetricDiff(snapshots[t-1], snapshots[t]), numNodes)
			}
		}
		if chunkNS != nil {
			chunkNS[c] = time.Since(t0).Nanoseconds()
		}
	})
	if chunkNS != nil {
		diffImbalance.Set(obs.ImbalanceRatio(chunkNS))
	}
	obs.Tick(stageDiff, start)
	return newPacked(numNodes, frames)
}

// packFrame builds one frame's CSR from its (u, v)-sorted edges and packs
// it on one processor: frames and checkpoints are built concurrently with
// each other, so each build stays sequential to keep the goroutine count
// at p.
func packFrame(l edgelist.List, numNodes int) *csr.Packed {
	return csr.PackMatrix(csr.BuildSequential(l, numNodes), 1)
}

// symmetricDiff returns the sorted symmetric difference of two sorted edge
// lists: the toggle set that transforms a into b.
func symmetricDiff(a, b edgelist.List) edgelist.List {
	out := make(edgelist.List, 0)
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			i++
			j++
		case a[i].Less(b[j]):
			out = append(out, a[i])
			i++
		default:
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// frameEdges returns frame f's edges in (u, v) order.
func frameEdges(f *csr.Packed) edgelist.List { return f.Unpack().Edges() }

// fold runs the parity fold over frames 0..last once, calling visit with
// the absolute sorted edge list active at every frame t in order. The list
// passed to visit is never written afterwards, so visit may keep it.
func (pt *Packed) fold(last int, visit func(t int, cur edgelist.List)) {
	var cur edgelist.List
	for t := 0; t <= last; t++ {
		cur = symmetricDiff(cur, frameEdges(pt.frames[t]))
		visit(t, cur)
	}
}

// Snapshot reconstructs the absolute sorted edge list active at frame t
// with p processors by folding, with the parity rule, the checkpoint that
// precedes t and the differential frames after it. The fold is a parallel
// tree reduction: symmetric difference is associative and commutative, so
// chunks of frames reduce independently and the chunk results merge
// pairwise, mirroring how Figure 5's construction divides frames among
// processors. At p = 1 it is the sequential left fold.
func (pt *Packed) Snapshot(t, p int) edgelist.List {
	base, from := pt.base(t)
	// Operand 0 is the base; operand i > 0 is frame from+i-1.
	operand := func(i int) edgelist.List {
		if i == 0 {
			return frameEdges(base)
		}
		return frameEdges(pt.frames[from+i-1])
	}
	n := t - from + 2
	chunks := parallel.Chunks(n, p)
	partials := make([]edgelist.List, len(chunks))
	parallel.For(n, len(chunks), func(c int, r parallel.Range) {
		cur := operand(r.Start)
		for i := r.Start + 1; i < r.End; i++ {
			cur = symmetricDiff(cur, operand(i))
		}
		partials[c] = cur
	})
	// Pairwise reduction rounds over the chunk partials.
	for len(partials) > 1 {
		half := (len(partials) + 1) / 2
		next := make([]edgelist.List, half)
		parallel.ForEach(half, p, func(i int) {
			if 2*i+1 < len(partials) {
				next[i] = symmetricDiff(partials[2*i], partials[2*i+1])
			} else {
				next[i] = partials[2*i]
			}
		})
		partials = next
	}
	return partials[0]
}

// FullSnapshotSizeBytes returns what storing every frame as an absolute
// uncompressed CSR would cost — the "space-consuming" baseline Section IV
// motivates the differential form against: 4 bytes per row offset and per
// active edge, summed over frames, from one fold over the frames.
func (pt *Packed) FullSnapshotSizeBytes() int64 {
	var total int64
	pt.fold(len(pt.frames)-1, func(_ int, cur edgelist.List) {
		total += 4*int64(pt.numNodes+1) + 4*int64(len(cur))
	})
	return total
}
