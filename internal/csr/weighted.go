package csr

import (
	"fmt"

	"csrgraph/internal/bitpack"
	"csrgraph/internal/edgelist"
	"csrgraph/internal/parallel"
	"csrgraph/internal/prefixsum"
	"csrgraph/internal/radix"
)

// The paper's CSR definition (Section III) includes a third array for
// weighted graphs: "vA: a value array (if the graph is weighted)". This
// file supplies that form. Weights are uint32 (costs, capacities,
// timestamps, multiplicities); zero is a valid weight.

// WeightedEdge is a directed edge with a weight; it aliases the edgelist
// type so I/O and construction share one representation.
type WeightedEdge = edgelist.WeightedEdge

// WeightedMatrix is CSR with the vA value array: Vals[i] is the weight of
// the edge whose destination is Cols[i].
type WeightedMatrix struct {
	Matrix
	Vals []uint32
}

// BuildWeighted constructs a weighted CSR from an edge list using p
// processors. The input is copied and sorted by (u, v); among duplicate
// (u, v) pairs the *last* weight in the input order wins, like repeated
// map assignment.
//
// Edges never materialize as a sorted WeightedEdge copy: the (u, v) pairs
// are packed into uint64 radix keys with the weights riding along as the
// payload of radix.SortKV — LSD radix is stable by construction, so "last
// wins" stays well defined without the sort.SliceStable closure this
// replaced — and the CSR arrays are then filled straight from the sorted
// key/payload buffers (the vA array is the payload buffer itself).
func BuildWeighted(edges []WeightedEdge, numNodes, p int) (*WeightedMatrix, error) {
	n := len(edges)
	keys := make([]uint64, n)
	vals := make([]uint32, n)
	chunks := parallel.Chunks(n, p)
	nc := len(chunks)
	maxs := make([]uint32, nc)
	parallel.For(n, nc, func(c int, r parallel.Range) {
		var mx uint32
		for i := r.Start; i < r.End; i++ {
			e := edges[i]
			keys[i] = uint64(e.U)<<32 | uint64(e.V)
			vals[i] = e.W
			if e.U > mx {
				mx = e.U
			}
			if e.V > mx {
				mx = e.V
			}
		}
		maxs[c] = mx
	})
	maxNode := 0
	for _, mx := range maxs {
		if int(mx)+1 > maxNode {
			maxNode = int(mx) + 1
		}
	}
	radix.SortKV(keys, vals, make([]uint64, n), make([]uint32, n), p)
	// Dedup keeping the last of each equal-key run, compacting in place.
	w := 0
	for i := 0; i < n; i++ {
		if w > 0 && keys[i] == keys[w-1] {
			vals[w-1] = vals[i]
			continue
		}
		keys[w], vals[w] = keys[i], vals[i]
		w++
	}
	keys, vals = keys[:w], vals[:w]

	if numNodes == 0 {
		numNodes = maxNode
	}
	if numNodes < maxNode {
		return nil, fmt.Errorf("csr: numNodes %d below max node id %d", numNodes, maxNode-1)
	}

	deg := make([]uint32, numNodes)
	for _, k := range keys {
		deg[k>>32]++
	}
	off := prefixsum.Offsets(deg, p)
	cols := make([]uint32, w)
	parallel.For(w, p, func(_ int, r parallel.Range) {
		for i := r.Start; i < r.End; i++ {
			cols[i] = uint32(keys[i])
		}
	})
	return &WeightedMatrix{Matrix: Matrix{RowOffsets: off, Cols: cols}, Vals: vals}, nil
}

// Weight returns the weight of edge (u, v) and whether the edge exists.
func (m *WeightedMatrix) Weight(u, v edgelist.NodeID) (uint32, bool) {
	lo, hi := int(m.RowOffsets[u]), int(m.RowOffsets[u+1])
	for lo < hi {
		mid := (lo + hi) / 2
		if m.Cols[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < int(m.RowOffsets[u+1]) && m.Cols[lo] == v {
		return m.Vals[lo], true
	}
	return 0, false
}

// NeighborWeights returns u's neighbor and weight slices (views into the
// CSR arrays; callers must not modify them).
func (m *WeightedMatrix) NeighborWeights(u edgelist.NodeID) (cols, vals []uint32) {
	return m.Cols[m.RowOffsets[u]:m.RowOffsets[u+1]], m.Vals[m.RowOffsets[u]:m.RowOffsets[u+1]]
}

// SizeBytes includes the vA array.
func (m *WeightedMatrix) SizeBytes() int64 {
	return m.Matrix.SizeBytes() + int64(len(m.Vals))*4
}

// Validate extends Matrix validation with the vA length invariant.
func (m *WeightedMatrix) Validate() error {
	if err := m.Matrix.Validate(); err != nil {
		return err
	}
	if len(m.Vals) != len(m.Cols) {
		return fmt.Errorf("csr: vA length %d, want %d", len(m.Vals), len(m.Cols))
	}
	return nil
}

// PackedWeighted is the bit-packed weighted CSR: iA, jA and vA all packed
// per Algorithm 4.
type PackedWeighted struct {
	Packed
	vals *bitpack.Packed
}

// PackWeighted bit-packs all three arrays with p processors.
func PackWeighted(m *WeightedMatrix, p int) *PackedWeighted {
	return &PackedWeighted{
		Packed: Packed{off: bitpack.Pack(m.RowOffsets, p), cols: bitpack.Pack(m.Cols, p)},
		vals:   bitpack.Pack(m.Vals, p),
	}
}

// AssemblePackedWeighted wraps externally constructed iA/jA/vA packed
// arrays (mapped container sections) as a PackedWeighted, with the same
// offsets-only validation policy as AssemblePacked plus the vA length
// invariant.
func AssemblePackedWeighted(off, cols, vals *bitpack.Packed) (*PackedWeighted, error) {
	base, err := AssemblePacked(off, cols)
	if err != nil {
		return nil, err
	}
	if vals.Len() != base.NumEdges() {
		return nil, fmt.Errorf("csr: vA has %d values, want %d", vals.Len(), base.NumEdges())
	}
	return &PackedWeighted{Packed: *base, vals: vals}, nil
}

// Vals returns the packed vA array, for serializers laying out raw
// sections. Read-only.
func (pk *PackedWeighted) Vals() *bitpack.Packed { return pk.vals }

// Weight returns the weight of (u, v) from the packed arrays.
func (pk *PackedWeighted) Weight(u, v edgelist.NodeID) (uint32, bool) {
	start, end := pk.RowBounds(u)
	lo, hi := start, end
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pk.cols.Get(mid) < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < end && pk.cols.Get(lo) == v {
		return pk.vals.Get(lo), true
	}
	return 0, false
}

// RowWeights decodes u's weights into dst.
func (pk *PackedWeighted) RowWeights(dst []uint32, u edgelist.NodeID) []uint32 {
	start, end := pk.RowBounds(u)
	return pk.vals.Slice(dst, start, end-start)
}

// SizeBytes includes the packed vA payload.
func (pk *PackedWeighted) SizeBytes() int64 {
	return pk.Packed.SizeBytes() + pk.vals.SizeBytes()
}

// UnpackWeighted expands back to a WeightedMatrix.
func (pk *PackedWeighted) UnpackWeighted() *WeightedMatrix {
	return &WeightedMatrix{Matrix: *pk.Packed.Unpack(), Vals: pk.vals.Unpack()}
}
