// Package csr is the paper's core contribution: the Compressed Sparse Row
// graph representation (Section III) with parallel construction.
//
// A Matrix holds the two CSR arrays for an unweighted graph:
//
//   - iA (RowOffsets): n+1 row offsets — iA[u] is where node u's neighbors
//     start in jA and iA[u+1]-iA[u] is u's degree;
//   - jA (Cols): the m neighbor ids, concatenated row by row.
//
// (The paper's vA value array is omitted for unweighted graphs, as the paper
// does.) Construction from a source-sorted edge list is three parallel
// steps: the degree array (Algorithms 2-3), its prefix sum (Algorithm 1) to
// obtain iA, and the neighbor fill. Packed (packed.go) adds the bit-packed
// form of both arrays per Algorithm 4.
package csr

import (
	"fmt"
	"time"

	"csrgraph/internal/degree"
	"csrgraph/internal/edgelist"
	"csrgraph/internal/obs"
	"csrgraph/internal/parallel"
	"csrgraph/internal/prefixsum"
)

// Matrix is an uncompressed CSR adjacency structure.
type Matrix struct {
	// RowOffsets is iA: len NumNodes+1, RowOffsets[0] == 0,
	// RowOffsets[NumNodes] == NumEdges.
	RowOffsets []uint32
	// Cols is jA: the concatenated neighbor lists, len NumEdges. Within a
	// row, neighbors are ascending when the input edge list was sorted.
	Cols []uint32
}

// BuildSequential constructs a CSR from a source-sorted edge list on one
// processor; the reference for Build.
func BuildSequential(l edgelist.List, numNodes int) *Matrix {
	deg := degree.Sequential(l, numNodes)
	off := prefixsum.Offsets(deg, 1)
	cols := make([]uint32, len(l))
	for i, e := range l {
		cols[i] = e.V
	}
	return &Matrix{RowOffsets: off, Cols: cols}
}

// Build constructs a CSR from a source-sorted edge list using p processors:
// parallel degree computation, parallel prefix sum for the row offsets, and
// a parallel neighbor fill. Because the list is sorted by (u, v), the jA
// array is exactly the destination column of the list in order, so the fill
// is a contention-free per-chunk copy.
//
// With metrics enabled (internal/obs) each stage reports its wall time
// under csrgraph_build_stage_seconds, and the fill additionally reports its
// per-chunk imbalance; disabled, the only cost is one atomic load.
func Build(l edgelist.List, numNodes, p int) *Matrix {
	start := obs.Now()
	deg := degree.Parallel(l, numNodes, p)
	start = obs.Tick(stageDegree, start)
	off := prefixsum.Offsets(deg, p)
	start = obs.Tick(stageOffsets, start)
	cols := make([]uint32, len(l))
	if start.IsZero() {
		parallel.For(len(l), p, func(_ int, r parallel.Range) {
			for i := r.Start; i < r.End; i++ {
				cols[i] = l[i].V
			}
		})
	} else {
		// Metrics path: time each static chunk to surface fill imbalance.
		// Chunk indices are claimed exactly once, so the per-chunk slots
		// race-freely belong to their chunk.
		chunkNS := make([]int64, len(parallel.Chunks(len(l), p)))
		parallel.For(len(l), p, func(c int, r parallel.Range) {
			t0 := time.Now()
			for i := r.Start; i < r.End; i++ {
				cols[i] = l[i].V
			}
			chunkNS[c] = time.Since(t0).Nanoseconds()
		})
		fillImbalance.Set(obs.ImbalanceRatio(chunkNS))
		obs.Tick(stageFill, start)
	}
	return &Matrix{RowOffsets: off, Cols: cols}
}

// FromEdgeList sorts (in parallel), dedups and builds in one call, for
// callers starting from an arbitrary edge list. The sort+dedup front end
// runs fused over radix keys (edgelist.List.Prepared).
func FromEdgeList(l edgelist.List, p int) *Matrix {
	sorted := l.Prepared(false, p)
	return Build(sorted, sorted.NumNodes(), p)
}

// NumNodes returns the number of nodes.
func (m *Matrix) NumNodes() int {
	if len(m.RowOffsets) == 0 {
		return 0
	}
	return len(m.RowOffsets) - 1
}

// NumEdges returns the number of directed edges.
func (m *Matrix) NumEdges() int { return len(m.Cols) }

// Degree returns the out-degree of u.
func (m *Matrix) Degree(u edgelist.NodeID) int {
	return int(m.RowOffsets[u+1] - m.RowOffsets[u])
}

// Neighbors returns u's neighbor list as a subslice of the CSR column
// array; callers must not modify it.
func (m *Matrix) Neighbors(u edgelist.NodeID) []uint32 {
	return m.Cols[m.RowOffsets[u]:m.RowOffsets[u+1]]
}

// Row returns u's neighbors. For the plain matrix this is the Neighbors
// subslice (dst is ignored); it exists so Matrix and Packed satisfy the same
// query-engine interface.
func (m *Matrix) Row(dst []uint32, u edgelist.NodeID) []uint32 {
	return m.Neighbors(u)
}

// HasEdge reports whether the edge (u, v) exists, by linear scan of u's row
// (the paper's Algorithm 7 inner loop).
func (m *Matrix) HasEdge(u, v edgelist.NodeID) bool {
	for _, w := range m.Neighbors(u) {
		if w == v {
			return true
		}
	}
	return false
}

// HasEdgeBinary reports edge existence by binary search, valid when rows
// are sorted (the extension Section V-B suggests).
func (m *Matrix) HasEdgeBinary(u, v edgelist.NodeID) bool {
	row := m.Neighbors(u)
	lo, hi := 0, len(row)
	for lo < hi {
		mid := (lo + hi) / 2
		if row[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(row) && row[lo] == v
}

// RowBounds returns the [start, end) range of u's row in Cols — the same
// split geometry csr.Packed exposes, so the query engine's split-search
// path treats both forms uniformly.
func (m *Matrix) RowBounds(u edgelist.NodeID) (start, end int) {
	return int(m.RowOffsets[u]), int(m.RowOffsets[u+1])
}

// ColAt returns the neighbor stored at position i of Cols — the O(1)
// column access the frontier core's dense (pull) mode probes rows through
// (frontier.IndexedRows).
//
//csr:hotpath
func (m *Matrix) ColAt(i int) uint32 { return m.Cols[i] }

// SearchRow reports whether (u, v) exists by early-exit binary search over
// the sorted row: the search returns as soon as a probe hits v instead of
// always narrowing to a lower bound.
//
//csr:hotpath
func (m *Matrix) SearchRow(u, v edgelist.NodeID) bool {
	return m.SearchRange(int(m.RowOffsets[u]), int(m.RowOffsets[u+1]), v)
}

// SearchBatch answers out[i] = SearchRow(edges[i].U, edges[i].V) for every
// probe; out must be at least as long as edges.
//
//csr:hotpath
func (m *Matrix) SearchBatch(edges []edgelist.Edge, out []bool) {
	out = out[:len(edges)]
	for i, e := range edges {
		out[i] = m.SearchRow(e.U, e.V)
	}
}

// SearchRange reports whether v occurs in the sorted Cols run [start, end)
// — one row or any subrange of it (Algorithm 8's per-processor unit).
//
//csr:hotpath
func (m *Matrix) SearchRange(start, end int, v edgelist.NodeID) bool {
	lo, hi := start, end
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		switch w := m.Cols[mid]; {
		case w < v:
			lo = mid + 1
		case w > v:
			hi = mid
		default:
			return true
		}
	}
	return false
}

// Edges reconstructs the sorted edge list the matrix encodes.
func (m *Matrix) Edges() edgelist.List {
	out := make(edgelist.List, 0, m.NumEdges())
	for u := 0; u < m.NumNodes(); u++ {
		for _, v := range m.Neighbors(uint32(u)) {
			out = append(out, edgelist.Edge{U: uint32(u), V: v})
		}
	}
	return out
}

// SizeBytes returns the uncompressed CSR footprint: 4 bytes per offset and
// per neighbor.
func (m *Matrix) SizeBytes() int64 {
	return int64(len(m.RowOffsets))*4 + int64(len(m.Cols))*4
}

// Validate checks the CSR structural invariants and returns the first
// violation: monotone offsets starting at 0 and ending at len(Cols), and
// all columns within the node range.
func (m *Matrix) Validate() error {
	n := m.NumNodes()
	if len(m.RowOffsets) == 0 {
		if len(m.Cols) != 0 {
			return fmt.Errorf("csr: empty offsets with %d cols", len(m.Cols))
		}
		return nil
	}
	if m.RowOffsets[0] != 0 {
		return fmt.Errorf("csr: RowOffsets[0] = %d, want 0", m.RowOffsets[0])
	}
	for i := 1; i <= n; i++ {
		if m.RowOffsets[i] < m.RowOffsets[i-1] {
			return fmt.Errorf("csr: RowOffsets[%d] = %d < RowOffsets[%d] = %d",
				i, m.RowOffsets[i], i-1, m.RowOffsets[i-1])
		}
	}
	if int(m.RowOffsets[n]) != len(m.Cols) {
		return fmt.Errorf("csr: RowOffsets[%d] = %d, want %d", n, m.RowOffsets[n], len(m.Cols))
	}
	for i, c := range m.Cols {
		if int(c) >= n {
			return fmt.Errorf("csr: Cols[%d] = %d out of range [0,%d)", i, c, n)
		}
	}
	return nil
}

// Equal reports whether two matrices encode the same graph structure.
func (m *Matrix) Equal(o *Matrix) bool {
	if len(m.RowOffsets) != len(o.RowOffsets) || len(m.Cols) != len(o.Cols) {
		return false
	}
	for i := range m.RowOffsets {
		if m.RowOffsets[i] != o.RowOffsets[i] {
			return false
		}
	}
	for i := range m.Cols {
		if m.Cols[i] != o.Cols[i] {
			return false
		}
	}
	return true
}
