package csr

import (
	"fmt"

	"csrgraph/internal/bitarray"
	"csrgraph/internal/bitpack"
	"csrgraph/internal/edgelist"
	"csrgraph/internal/parallel"
	"csrgraph/internal/prefixsum"
)

// DeltaPacked is the ablation alternative to the fixed-width Packed form:
// each row's ascending neighbor list is stored as Elias-gamma-coded gaps
// (first value absolute, +1-shifted). Skewed social rows compress harder
// than fixed-width packing, but random access inside a row is lost — every
// query decodes the row left to right. DESIGN.md §5 item 3 benchmarks the
// trade-off.
type DeltaPacked struct {
	// offsets[u] is the bit position of row u in payload; offsets has
	// n+1 entries, packed fixed-width so the structure stays compact.
	offsets *bitpack.Packed
	payload *bitarray.Array
	n       int
	m       int
}

// PackDelta builds the delta-gamma form from a CSR with p processors: rows
// are encoded per node chunk into private bit arrays (the Algorithm 4
// pattern), per-row bit lengths are prefix-summed into offsets, and the
// chunk arrays are merged.
func PackDelta(mat *Matrix, p int) *DeltaPacked {
	n := mat.NumNodes()
	chunks := parallel.Chunks(n, p)
	parts := make([]*bitarray.Array, len(chunks))
	bitLens := make([]uint32, n)
	parallel.For(n, len(chunks), func(c int, r parallel.Range) {
		a := bitarray.New(0)
		for u := r.Start; u < r.End; u++ {
			startBits := a.Len()
			encodeDeltaRow(a, mat.Neighbors(uint32(u)))
			bitLens[u] = uint32(a.Len() - startBits)
		}
		parts[c] = a
	})
	offsets := prefixsum.Offsets(bitLens, p)
	payload := bitarray.New(int(offsets[n]))
	for _, part := range parts {
		payload.AppendArray(part)
	}
	return &DeltaPacked{
		offsets: bitpack.Pack(offsets, p),
		payload: payload,
		n:       n,
		m:       mat.NumEdges(),
	}
}

// encodeDeltaRow appends gamma(first+1), then gamma(gap) for each
// subsequent neighbor (gaps of strictly ascending rows are >= 1, so the
// +1 shift is only needed for the absolute head).
func encodeDeltaRow(a *bitarray.Array, row []uint32) {
	prev := uint32(0)
	for i, v := range row {
		if i == 0 {
			appendGamma(a, uint64(v)+1)
		} else {
			appendGamma(a, uint64(v-prev))
		}
		prev = v
	}
}

// appendGamma writes the Elias gamma code of x >= 1.
func appendGamma(a *bitarray.Array, x uint64) {
	n := 0
	for t := x; t > 1; t >>= 1 {
		n++
	}
	a.AppendBits(0, n)
	a.AppendBits(x, n+1)
}

// readGamma decodes one gamma value from r.
func readGamma(r *bitarray.Reader) uint64 {
	n := 0
	for r.Remaining() > 0 && !r.ReadBit() {
		n++
	}
	if n == 0 {
		return 1
	}
	// A malformed stream (mapped containers carry untrusted payload bits)
	// can run the unary prefix past the row or demand more mantissa bits
	// than remain; clamp so decoding yields an arbitrary value instead of
	// reading outside the array. Valid streams never take these branches.
	if n > 64 {
		n = 64
	}
	if rem := r.Remaining(); n > rem {
		n = rem
	}
	if n == 0 {
		return 1
	}
	return 1<<uint(n) | r.ReadUint(n)
}

// AssembleDeltaPacked wraps externally constructed row-offset and gamma
// payload arrays (mapped container sections) as a DeltaPacked for a graph
// of numNodes nodes and numEdges edges. Offsets must be monotone from 0
// and end exactly at the payload bit length — the invariant row decoding
// needs to stay inside the payload. The gamma stream itself is not decoded
// here; a corrupt payload yields wrong neighbor values, not panics, as
// long as the offsets bound each row.
func AssembleDeltaPacked(offsets *bitpack.Packed, payload *bitarray.Array, numNodes, numEdges int) (*DeltaPacked, error) {
	if numNodes < 0 || numEdges < 0 || offsets.Len() != numNodes+1 {
		return nil, fmt.Errorf("csr: delta offsets has %d entries, want %d", offsets.Len(), numNodes+1)
	}
	prev := offsets.Get(0)
	if prev != 0 {
		return nil, fmt.Errorf("csr: first delta offset %d, want 0", prev)
	}
	for i := 1; i <= numNodes; i++ {
		cur := offsets.Get(i)
		if cur < prev {
			return nil, fmt.Errorf("csr: delta offsets decrease at %d (%d < %d)", i, cur, prev)
		}
		prev = cur
	}
	if int(prev) != payload.Len() {
		return nil, fmt.Errorf("csr: delta offsets claim %d payload bits, payload has %d", prev, payload.Len())
	}
	return &DeltaPacked{offsets: offsets, payload: payload, n: numNodes, m: numEdges}, nil
}

// Parts returns the packed offset array and the gamma payload backing the
// structure, for serializers laying out raw sections. Read-only.
func (dp *DeltaPacked) Parts() (*bitpack.Packed, *bitarray.Array) {
	return dp.offsets, dp.payload
}

// NumNodes returns the number of nodes.
func (dp *DeltaPacked) NumNodes() int { return dp.n }

// NumEdges returns the number of directed edges.
func (dp *DeltaPacked) NumEdges() int { return dp.m }

// rowReader positions a reader at row u and returns it with the row's end
// bit. The reader is a value so per-row cursors on the HasEdge/SearchRow
// hot path never touch the heap.
func (dp *DeltaPacked) rowReader(u edgelist.NodeID) (bitarray.Reader, int) {
	start := int(dp.offsets.Get(int(u)))
	end := int(dp.offsets.Get(int(u) + 1))
	return bitarray.MakeReader(dp.payload, start), end
}

// Degree returns the out-degree of u by decoding the row (the structure
// does not store degrees separately).
func (dp *DeltaPacked) Degree(u edgelist.NodeID) int {
	r, end := dp.rowReader(u)
	d := 0
	for r.Pos() < end {
		readGamma(&r)
		d++
	}
	return d
}

// Row decodes u's neighbors into dst.
func (dp *DeltaPacked) Row(dst []uint32, u edgelist.NodeID) []uint32 {
	r, end := dp.rowReader(u)
	dst = dst[:0]
	first := true
	var run uint32
	for r.Pos() < end {
		g := uint32(readGamma(&r))
		if first {
			run = g - 1
			first = false
		} else {
			run += g
		}
		dst = append(dst, run)
	}
	return dst
}

// HasEdge reports whether (u, v) exists by decoding u's row until v is
// found or passed.
func (dp *DeltaPacked) HasEdge(u, v edgelist.NodeID) bool {
	r, end := dp.rowReader(u)
	first := true
	var run uint32
	for r.Pos() < end {
		g := uint32(readGamma(&r))
		if first {
			run = g - 1
			first = false
		} else {
			run += g
		}
		if run == v {
			return true
		}
		if run > v {
			return false
		}
	}
	return false
}

// SearchRow reports whether (u, v) exists. Gamma-coded rows have no random
// access, so the best "search" is HasEdge's sequential decode with early
// exit once the running neighbor id passes v; the method exists so the
// query engine's zero-materialization path covers the delta form too (no
// full-row buffer is ever built).
//
//csr:hotpath
func (dp *DeltaPacked) SearchRow(u, v edgelist.NodeID) bool {
	return dp.HasEdge(u, v)
}

// SearchBatch answers out[i] = SearchRow(edges[i].U, edges[i].V) for every
// probe; out must be at least as long as edges.
//
//csr:hotpath
func (dp *DeltaPacked) SearchBatch(edges []edgelist.Edge, out []bool) {
	out = out[:len(edges)]
	for i, e := range edges {
		out[i] = dp.SearchRow(e.U, e.V)
	}
}

// Unpack expands back to a plain Matrix.
func (dp *DeltaPacked) Unpack() *Matrix {
	off := make([]uint32, dp.n+1)
	cols := make([]uint32, 0, dp.m)
	var buf []uint32
	for u := 0; u < dp.n; u++ {
		buf = dp.Row(buf, uint32(u))
		cols = append(cols, buf...)
		off[u+1] = uint32(len(cols))
	}
	return &Matrix{RowOffsets: off, Cols: cols}
}

// SizeBytes returns the payload plus offset footprint.
func (dp *DeltaPacked) SizeBytes() int64 {
	return int64(dp.payload.SizeBytes()) + dp.offsets.SizeBytes()
}
