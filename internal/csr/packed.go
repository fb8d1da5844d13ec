package csr

import (
	"fmt"

	"csrgraph/internal/bitpack"
	"csrgraph/internal/edgelist"
	"csrgraph/internal/obs"
)

// Packed is the bit-packed CSR of Section III-A3: both the degree/offset
// array iA and the neighbor array jA are fixed-width bit-packed
// (Algorithm 4), shrinking the structure from 4 bytes per entry to
// ceil(log2(max+1)) bits per entry while keeping O(1) random access — the
// property the Section V querying algorithms need.
type Packed struct {
	off  *bitpack.Packed // iA: n+1 row offsets
	cols *bitpack.Packed // jA: m neighbor ids
}

// PackMatrix bit-packs a CSR using p processors, packing iA and jA
// independently as Algorithm 4 prescribes ("once for degree array iA, and
// once for edge column array jA"). The combined pack time is the pipeline's
// bitpack stage in csrgraph_build_stage_seconds.
func PackMatrix(m *Matrix, p int) *Packed {
	start := obs.Now()
	pk := &Packed{
		off:  bitpack.Pack(m.RowOffsets, p),
		cols: bitpack.Pack(m.Cols, p),
	}
	obs.Tick(stagePack, start)
	return pk
}

// BuildPacked constructs the bit-packed CSR straight from a source-sorted
// edge list with p processors: Build followed by PackMatrix.
func BuildPacked(l edgelist.List, numNodes, p int) *Packed {
	return PackMatrix(Build(l, numNodes, p), p)
}

// AssemblePacked wraps externally constructed iA/jA packed arrays — e.g.
// zero-copy views over a mapped container's sections — as a Packed. Only
// the offset invariants are validated (monotone from 0, ending exactly at
// the cols length): that is what query row decoding relies on to stay
// in-bounds, and it touches only the small iA section so a mapped
// multi-GB graph does not fault in its neighbor pages at load time. The
// neighbor-value range scan is NOT run; callers serving untrusted files
// should add ValidateCols (mgraph's verified loads do) before handing the
// graph to algorithms that index by neighbor id.
func AssemblePacked(off, cols *bitpack.Packed) (*Packed, error) {
	pk := &Packed{off: off, cols: cols}
	if err := pk.validateOffsets(); err != nil {
		return nil, err
	}
	return pk, nil
}

// Parts returns the two packed arrays (iA, jA) backing the CSR, for
// serializers that lay the raw sections out themselves. Read-only.
func (pk *Packed) Parts() (off, cols *bitpack.Packed) { return pk.off, pk.cols }

// NumNodes returns the number of nodes.
func (pk *Packed) NumNodes() int {
	if pk.off.Len() == 0 {
		return 0
	}
	return pk.off.Len() - 1
}

// NumEdges returns the number of directed edges.
func (pk *Packed) NumEdges() int { return pk.cols.Len() }

// NumBits returns the per-neighbor bit width — the `numBits` parameter the
// paper's query algorithms receive.
func (pk *Packed) NumBits() int { return pk.cols.Width() }

// OffsetBits returns the per-offset bit width of the packed iA array.
func (pk *Packed) OffsetBits() int { return pk.off.Width() }

// RowBounds returns the [start, end) range of u's row in the packed jA
// array (u's startingIndex and startingIndex+degree in the paper's terms),
// both offsets from one packed read.
//
//csr:hotpath
func (pk *Packed) RowBounds(u edgelist.NodeID) (start, end int) {
	s, e := pk.off.Pair(int(u))
	return int(s), int(e)
}

// Degree returns the out-degree of u.
func (pk *Packed) Degree(u edgelist.NodeID) int {
	start, end := pk.RowBounds(u)
	return end - start
}

// Row decodes u's neighbor list into dst (grown as needed) and returns it.
// This is GetRowFromCSR from ref [28]: seek to the row's bit offset and
// decode degree-many numBits-wide values. The decode runs through the
// width-specialized bulk kernels in internal/bitarray (packed values are
// uint32, so the width is always in [1,32] and the kernel table covers
// every case).
func (pk *Packed) Row(dst []uint32, u edgelist.NodeID) []uint32 {
	start, end := pk.RowBounds(u)
	return pk.cols.Slice(dst, start, end-start)
}

// Neighbor returns the i-th neighbor of u without decoding the whole row:
// one bitpack random access (bitpack.Packed.Get).
func (pk *Packed) Neighbor(u edgelist.NodeID, i int) uint32 {
	start, end := pk.RowBounds(u)
	if i < 0 || start+i >= end {
		panic(fmt.Sprintf("csr: neighbor %d of node %d out of range (degree %d)", i, u, end-start))
	}
	return pk.cols.Get(start + i)
}

// HasEdge reports whether (u, v) exists by a linear scan over the packed
// row — Algorithm 7/8's core loop, reading directly from the bit array.
func (pk *Packed) HasEdge(u, v edgelist.NodeID) bool {
	start, end := pk.RowBounds(u)
	for i := start; i < end; i++ {
		if pk.cols.Get(i) == v {
			return true
		}
	}
	return false
}

// ColAt returns the neighbor stored at position i of the packed jA array —
// one bitpack random access (a two-word window read). It is the O(1)
// column access the frontier core's dense (pull) mode probes rows through
// (frontier.IndexedRows) without materializing them.
//
//csr:hotpath
func (pk *Packed) ColAt(i int) uint32 { return pk.cols.Get(i) }

// SearchRow reports whether (u, v) exists by searching u's packed row in
// place — the query engine's zero-decode existence primitive. Every probe
// is one two-word window read into the packed bits, so no part of the row
// is ever materialized.
//
//csr:hotpath
func (pk *Packed) SearchRow(u, v edgelist.NodeID) bool {
	start, end := pk.RowBounds(u)
	return pk.SearchRange(start, end, v)
}

// SearchRange reports whether v occurs among the packed neighbors in
// positions [start, end) of jA, which must be a sorted run (any subrange
// of one row is). It is the split unit of Algorithm 8: EdgeExistsSplit
// hands each processor one subrange to search without decoding. It is
// LowerBound plus the equality check, on the bound clamped to end-1 by a
// sign mask; an empty range reads nothing from jA.
//
//csr:hotpath
func (pk *Packed) SearchRange(start, end int, v edgelist.NodeID) bool {
	i := pk.cols.LowerBound(start, end, v)
	return start < end && pk.cols.Get(i+(end-1-i)>>63) == v
}

// searchGroup is how many probes SearchBatch reads the row bounds of before
// searching any of them, and how many it interleaves.
const searchGroup = 16

// SearchBatch answers out[i] = SearchRow(edges[i].U, edges[i].V) for every
// probe; out must be at least as long as edges. It is a level-interleaved
// group search: probes go in groups of searchGroup, in three passes over
// the group.
//
//  1. Read the row bounds, independent loads whose cache misses overlap.
//  2. Answer an empty row false without touching jA, and put every row of
//     two or more values on the live list; a one-value row waits for the
//     final compares.
//  3. Advance every live probe by one level of query.SearchSorted's
//     halving loop per sweep, with LowerBound's sign-mask advance. The
//     window reads of one sweep are independent of each other, so the
//     cache misses of one hub row's levels overlap with the other rows'
//     instead of forming one serial chain per probe. A probe leaves the
//     list when its range is one value wide, which is the only position
//     that can hold v, so the final compares need no clamp.
//
// The list is compacted without a branch, and all reads are inlined over
// the raw windows behind one range check per row: a probe makes no call,
// and every read stays inside its row.
//
//csr:hotpath
func (pk *Packed) SearchBatch(edges []edgelist.Edge, out []bool) {
	out = out[:len(edges)]
	offs, ow, nodes := pk.off.Bits(), pk.off.Width(), pk.NumNodes()
	bits, w, n := pk.cols.Bits(), pk.cols.Width(), pk.cols.Len()
	var bounds [searchGroup][2]int
	// The search state of the group's non-empty rows, in their order in the
	// group: the probe (slot, val) has its candidate range at
	// [base, base+cnt).
	var base, cnt, slot [searchGroup]int
	var val [searchGroup]uint32
	var live [searchGroup]int // the rows still halving
	for len(edges) > 0 {
		group := edges[:min(searchGroup, len(edges))]
		for j, e := range group {
			if int(e.U) >= nodes {
				panic(fmt.Sprintf("csr: node %d out of range [0,%d)", e.U, nodes))
			}
			start, end := offs.UintPair(int(e.U)*ow, ow)
			bounds[j][0], bounds[j][1] = int(start), int(end)
		}
		nl, k := 0, 0
		for j, e := range group {
			start, end := bounds[j][0], bounds[j][1]
			if start == end {
				out[j] = false
				continue
			}
			if start > end || end > n {
				panic(fmt.Sprintf("csr: row %d spans [%d,%d) outside jA [0,%d)", e.U, start, end, n))
			}
			q := nl & (searchGroup - 1)
			base[q], cnt[q], val[q], slot[q] = start, end-start, e.V, j
			nl++
			live[k&(searchGroup-1)] = q
			k += int(uint(1-cnt[q]) >> 63) // a one-value row needs no level
		}
		for k > 0 {
			kept := 0
			for i := 0; i < k; i++ {
				q := live[i&(searchGroup-1)] & (searchGroup - 1)
				half := cnt[q] >> 1
				x := bits.UintWindow((base[q]+half-1)*w, w)
				base[q] += half & int((int64(x)-int64(val[q]))>>63) // half when x < v
				cnt[q] -= half
				live[kept&(searchGroup-1)] = q
				kept += int(uint(1-cnt[q]) >> 63) // 1 while cnt[q] > 1
			}
			k = kept
		}
		for i := 0; i < nl; i++ {
			q := i & (searchGroup - 1)
			out[slot[q]] = bits.UintWindow(base[q]*w, w) == val[q]
		}
		edges, out = edges[len(group):], out[len(group):]
	}
}

// Unpack expands the packed CSR back into a plain Matrix.
func (pk *Packed) Unpack() *Matrix {
	return &Matrix{RowOffsets: pk.off.Unpack(), Cols: pk.cols.Unpack()}
}

// SizeBytes returns the bit-packed payload footprint — Table II's "CSR"
// size column.
func (pk *Packed) SizeBytes() int64 {
	return pk.off.SizeBytes() + pk.cols.SizeBytes()
}

// Equal reports whether two packed CSRs are bit-identical.
func (pk *Packed) Equal(o *Packed) bool {
	return pk.off.Equal(o.off) && pk.cols.Equal(o.cols)
}

// validateOffsets checks the iA invariants row decoding depends on —
// offsets start at 0, never decrease, and end exactly at the cols length —
// touching only the offsets array. This is the load-time check of the
// mmap path: O(numNodes), no neighbor pages faulted in.
func (pk *Packed) validateOffsets() error {
	n := pk.off.Len()
	if n == 0 {
		if pk.cols.Len() != 0 {
			return fmt.Errorf("csr: empty offsets with %d cols", pk.cols.Len())
		}
		return nil
	}
	prev := pk.off.Get(0)
	if prev != 0 {
		return fmt.Errorf("csr: first offset %d, want 0", prev)
	}
	for i := 1; i < n; i++ {
		cur := pk.off.Get(i)
		if cur < prev {
			return fmt.Errorf("csr: offsets decrease at %d (%d < %d)", i, cur, prev)
		}
		prev = cur
	}
	if got, want := pk.cols.Len(), int(prev); got != want {
		return fmt.Errorf("csr: offsets claim %d edges, cols has %d", want, got)
	}
	return nil
}

// ValidateCols scans the full jA array checking every neighbor id is
// inside the node space — the O(numEdges) half of validation, needed
// before graph algorithms may index per-node state by neighbor values.
// Mapped loads skip it by default (it faults in every neighbor page) and
// callers opt in for untrusted files.
func (pk *Packed) ValidateCols() error {
	if pk.off.Len() == 0 {
		return nil
	}
	return pk.ValidateColsBound(uint32(pk.off.Len() - 1))
}

// ValidateColsBound is ValidateCols against an explicit node space. Shard
// containers need it: their rows are local but their neighbor values are
// GLOBAL ids, so the valid bound is the whole graph's node count, not the
// shard's row count.
func (pk *Packed) ValidateColsBound(numNodes uint32) error {
	for i := 0; i < pk.cols.Len(); i++ {
		if v := pk.cols.Get(i); v >= numNodes {
			return fmt.Errorf("csr: neighbor %d at position %d outside node space %d", v, i, numNodes)
		}
	}
	return nil
}
