package tcsr

import (
	"fmt"

	"csrgraph/internal/csr"
	"csrgraph/internal/edgelist"
	"csrgraph/internal/parallel"
)

// Packed is the bit-packed differential TCSR — what Algorithm 5 returns
// ("return BitArray TCSR"): every differential frame's CSR is bit-packed
// with the Algorithm 4 encoder.
type Packed struct {
	numNodes int
	frames   []*csr.Packed
}

// Pack converts the temporal structure to its bit-packed form, packing
// frames in parallel with p processors.
func (tc *Temporal) Pack(p int) *Packed {
	frames := make([]*csr.Packed, len(tc.frames))
	parallel.ForEach(len(tc.frames), p, func(t int) {
		// Frames are packed concurrently with each other; each individual
		// pack runs sequentially to keep total goroutine count at p.
		frames[t] = csr.PackMatrix(tc.frames[t], 1)
	})
	return &Packed{numNodes: tc.numNodes, frames: frames}
}

// AssemblePacked wraps externally assembled frames — e.g. zero-copy views
// over a container's frame sections — as a packed TCSR over numNodes
// nodes. Every frame must have exactly numNodes rows: the queries and the
// temporal BFS size their per-node state by NumNodes.
func AssemblePacked(numNodes int, frames []*csr.Packed) (*Packed, error) {
	for t, f := range frames {
		if f.NumNodes() != numNodes {
			return nil, fmt.Errorf("tcsr: frame %d has %d rows, want %d", t, f.NumNodes(), numNodes)
		}
	}
	return &Packed{numNodes: numNodes, frames: frames}, nil
}

// NumFrames returns the number of time-frames.
func (pt *Packed) NumFrames() int { return len(pt.frames) }

// NumNodes returns the node-id space size.
func (pt *Packed) NumNodes() int { return pt.numNodes }

// Frame returns the packed differential CSR of frame t.
func (pt *Packed) Frame(t int) *csr.Packed { return pt.frames[t] }

// Active reports whether edge (u, v) is active at frame t by the parity
// rule, binary-searching each packed frame row.
func (pt *Packed) Active(u, v edgelist.NodeID, t int) bool {
	if t < 0 || t >= len(pt.frames) {
		panic(fmt.Sprintf("tcsr: frame %d out of range [0,%d)", t, len(pt.frames)))
	}
	count := 0
	for i := 0; i <= t; i++ {
		if int(u) < pt.frames[i].NumNodes() && pt.frames[i].SearchRow(u, v) {
			count++
		}
	}
	return count%2 == 1
}

// ActiveNeighbors returns the sorted neighbors of u active at frame t.
func (pt *Packed) ActiveNeighbors(u edgelist.NodeID, t int) []uint32 {
	if t < 0 || t >= len(pt.frames) {
		panic(fmt.Sprintf("tcsr: frame %d out of range [0,%d)", t, len(pt.frames)))
	}
	parity := make(map[uint32]int)
	var row []uint32
	for i := 0; i <= t; i++ {
		if int(u) >= pt.frames[i].NumNodes() {
			continue
		}
		row = pt.frames[i].Row(row, u)
		for _, v := range row {
			parity[v]++
		}
	}
	out := make([]uint32, 0, len(parity))
	for v, c := range parity {
		if c%2 == 1 {
			out = append(out, v)
		}
	}
	sortUint32(out)
	return out
}

// SizeBytes returns the packed payload footprint across all frames.
func (pt *Packed) SizeBytes() int64 {
	var total int64
	for _, f := range pt.frames {
		total += f.SizeBytes()
	}
	return total
}
