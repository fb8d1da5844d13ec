package shard

import (
	"fmt"

	"csrgraph/internal/csr"
	"csrgraph/internal/parallel"
	"csrgraph/internal/prefixsum"
	"csrgraph/internal/query"
)

// Split cuts m into one CSR per shard: shard s holds exactly its owned
// rows, relabeled to dense local ids, with neighbor ids left global (see
// the package comment for why). Range shards alias m's Cols — the cut is
// row-contiguous, so only the rebased offsets are materialized — while mod
// shards gather their strided rows through SplitSource's parallel copy.
func Split(m *csr.Matrix, part *Partition, p int) ([]*csr.Matrix, error) {
	if m.NumNodes() != part.NumNodes() {
		return nil, fmt.Errorf("shard: partition covers %d nodes, graph has %d", part.NumNodes(), m.NumNodes())
	}
	if part.Strategy() != StrategyRange {
		return SplitSource(m, part, p)
	}
	out := make([]*csr.Matrix, part.NumShards())
	for s := range out {
		lo, hi := part.Bounds(s)
		off := make([]uint32, hi-lo+1)
		base := m.RowOffsets[lo]
		for i := range off {
			off[i] = m.RowOffsets[int(lo)+i] - base
		}
		out[s] = &csr.Matrix{
			RowOffsets: off,
			Cols:       m.Cols[base:m.RowOffsets[hi]],
		}
	}
	return out, nil
}

// SplitSource is Split for an already-packed (or mapped) graph: per-shard
// rows are decoded out of src and rebuilt as plain CSRs, ready for
// csr.PackMatrix. This is the in-process partitioning path csrserver uses
// when handed a single graph plus -shards K; offline cuts should prefer
// csrconvert -partition, which splits the uncompressed matrix.
func SplitSource(src query.Source, part *Partition, p int) ([]*csr.Matrix, error) {
	if src.NumNodes() != part.NumNodes() {
		return nil, fmt.Errorf("shard: partition covers %d nodes, source has %d", part.NumNodes(), src.NumNodes())
	}
	out := make([]*csr.Matrix, part.NumShards())
	for s := range out {
		ns := part.ShardNodes(s)
		deg := make([]uint32, ns)
		sl := s
		parallel.For(ns, p, func(_ int, r parallel.Range) {
			for i := r.Start; i < r.End; i++ {
				deg[i] = uint32(src.Degree(part.ToGlobal(sl, uint32(i))))
			}
		})
		off := prefixsum.Offsets(deg, p)
		cols := make([]uint32, off[ns])
		parallel.For(ns, p, func(w int, r parallel.Range) {
			var buf []uint32
			for i := r.Start; i < r.End; i++ {
				buf = src.Row(buf, part.ToGlobal(sl, uint32(i)))
				copy(cols[off[i]:off[i+1]], buf)
			}
		})
		out[s] = &csr.Matrix{RowOffsets: off, Cols: cols}
	}
	return out, nil
}

// PartitionSource is the in-process cut: edge-balanced range partition of
// src into k shards, each split out and packed. This is what csrserver
// -shards K does when handed one whole graph instead of a manifest.
func PartitionSource(src query.Source, k, p int) (*Partition, []*csr.Packed, error) {
	part, err := CutSourceByEdges(src, k, p)
	if err != nil {
		return nil, nil, err
	}
	ms, err := SplitSource(src, part, p)
	if err != nil {
		return nil, nil, err
	}
	pks := make([]*csr.Packed, len(ms))
	for s, m := range ms {
		pks[s] = csr.PackMatrix(m, p)
	}
	return part, pks, nil
}

// CutSourceByEdges derives the edge-balanced range partition straight from
// a query source's degrees, for graphs that arrive packed (no RowOffsets
// array at hand).
func CutSourceByEdges(src query.Source, k, p int) (*Partition, error) {
	n := src.NumNodes()
	deg := make([]uint32, n)
	parallel.For(n, p, func(_ int, r parallel.Range) {
		for u := r.Start; u < r.End; u++ {
			deg[u] = uint32(src.Degree(uint32(u)))
		}
	})
	return CutByEdges(prefixsum.Offsets(deg, p), k)
}
