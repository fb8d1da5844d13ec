package tcsr

import (
	"fmt"
	"slices"

	"csrgraph/internal/csr"
	"csrgraph/internal/edgelist"
	"csrgraph/internal/parallel"
)

// Packed is the bit-packed differential TCSR — what Algorithm 5 returns
// ("return BitArray TCSR"): every differential frame's CSR is bit-packed
// with the Algorithm 4 encoder.
//
// Its one knob is the checkpoint interval. ck[k] is the absolute packed
// CSR at frame k*interval, and a point-in-time query at t starts from
// ck[t/interval] and toggles with the differential frames after it. ck[0]
// is frames[0], which is already absolute, so the paper's pure differential
// form is the case interval >= NumFrames: one checkpoint, every query
// folding frames 0..t.
type Packed struct {
	numNodes int
	frames   []*csr.Packed
	interval int
	ck       []*csr.Packed
}

// newPacked wraps frames in the paper's form: no checkpoint beyond frame 0.
func newPacked(numNodes int, frames []*csr.Packed) *Packed {
	return &Packed{numNodes: numNodes, frames: frames, interval: max(len(frames), 1), ck: frames[:min(len(frames), 1)]}
}

// AssemblePacked wraps externally assembled frames — e.g. zero-copy views
// over a container's frame sections — as a packed TCSR over numNodes
// nodes, in the paper's form. Every frame must have exactly numNodes rows:
// the queries and the temporal BFS size their per-node state by NumNodes.
func AssemblePacked(numNodes int, frames []*csr.Packed) (*Packed, error) {
	for t, f := range frames {
		if f.NumNodes() != numNodes {
			return nil, fmt.Errorf("tcsr: frame %d has %d rows, want %d", t, f.NumNodes(), numNodes)
		}
	}
	return newPacked(numNodes, frames), nil
}

// Checkpoint returns the same frames with an absolute packed checkpoint
// every interval frames — the copy+log strategy of the paper's related
// work (FVF [23], [24], [25]), trading space for query time: a query scans
// at most interval-1 differential frames after its checkpoint instead of
// t. The frames are shared with pt. The checkpoints come from one
// incremental fold over the frames and are packed with p processors; an
// interval >= NumFrames gives the paper's form.
func (pt *Packed) Checkpoint(interval, p int) (*Packed, error) {
	if interval < 1 {
		return nil, fmt.Errorf("tcsr: checkpoint interval %d must be >= 1", interval)
	}
	if interval >= len(pt.frames) {
		return newPacked(pt.numNodes, pt.frames), nil
	}
	snaps := make([]edgelist.List, (len(pt.frames)-1)/interval+1)
	pt.fold((len(snaps)-1)*interval, func(t int, cur edgelist.List) {
		if t > 0 && t%interval == 0 {
			snaps[t/interval] = cur
		}
	})
	ck := make([]*csr.Packed, len(snaps))
	ck[0] = pt.frames[0]
	parallel.ForEach(len(ck)-1, p, func(i int) {
		ck[i+1] = packFrame(snaps[i+1], pt.numNodes)
	})
	return &Packed{numNodes: pt.numNodes, frames: pt.frames, interval: interval, ck: ck}, nil
}

// NumFrames returns the number of time-frames.
func (pt *Packed) NumFrames() int { return len(pt.frames) }

// NumNodes returns the node-id space size.
func (pt *Packed) NumNodes() int { return pt.numNodes }

// Frame returns the packed differential CSR of frame t (frame 0 is
// absolute).
func (pt *Packed) Frame(t int) *csr.Packed { return pt.frames[t] }

// checkFrame panics unless t is a frame of pt.
func (pt *Packed) checkFrame(t int) {
	if t < 0 || t >= len(pt.frames) {
		panic(fmt.Sprintf("tcsr: frame %d out of range [0,%d)", t, len(pt.frames)))
	}
}

// base returns the checkpoint a query at frame t starts from and the first
// differential frame to toggle with after it; frames from..t follow.
func (pt *Packed) base(t int) (ck *csr.Packed, from int) {
	pt.checkFrame(t)
	k := t / pt.interval
	return pt.ck[k], k*pt.interval + 1
}

// Active reports whether edge (u, v) is active at frame t by the parity
// rule: the checkpoint's answer, flipped by every later differential frame
// up to t whose row holds v. Each lookup binary-searches a packed row.
func (pt *Packed) Active(u, v edgelist.NodeID, t int) bool {
	ck, from := pt.base(t)
	if int(u) >= pt.numNodes {
		return false
	}
	active := ck.SearchRow(u, v)
	for i := from; i <= t; i++ {
		if pt.frames[i].SearchRow(u, v) {
			active = !active
		}
	}
	return active
}

// ActiveNeighbors returns the sorted neighbors of u active at frame t: the
// ids that occur an odd number of times across the checkpoint's row and
// the later differential rows up to t.
func (pt *Packed) ActiveNeighbors(u edgelist.NodeID, t int) []uint32 {
	ck, from := pt.base(t)
	out := []uint32{}
	if int(u) >= pt.numNodes {
		return out
	}
	out = ck.Row(out, u)
	var row []uint32
	for i := from; i <= t; i++ {
		row = pt.frames[i].Row(row, u)
		out = append(out, row...)
	}
	slices.Sort(out)
	// Keep each id whose run of equal ids has odd length.
	n := 0
	for i := 0; i < len(out); {
		j := i + 1
		for j < len(out) && out[j] == out[i] {
			j++
		}
		if (j-i)%2 == 1 {
			out[n] = out[i]
			n++
		}
		i = j
	}
	return out[:n]
}

// SizeBytes returns the packed payload footprint: every frame plus every
// checkpoint after frame 0.
func (pt *Packed) SizeBytes() int64 {
	var total int64
	for _, f := range pt.frames {
		total += f.SizeBytes()
	}
	for _, c := range pt.ck[min(len(pt.ck), 1):] {
		total += c.SizeBytes()
	}
	return total
}

// PlainSizeBytes returns what the differential frames take uncompressed:
// 4 bytes per row offset and per toggle, summed over frames. It is the
// like-for-like partner of FullSnapshotSizeBytes, and the baseline the
// bit-packing is measured against.
func (pt *Packed) PlainSizeBytes() int64 {
	var total int64
	for _, f := range pt.frames {
		total += 4*int64(f.NumNodes()+1) + 4*int64(f.NumEdges())
	}
	return total
}
