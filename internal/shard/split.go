package shard

import (
	"fmt"

	"csrgraph/internal/csr"
)

// Split cuts m along part's ranges into one CSR per shard: shard s holds
// exactly its owned rows, relabeled to dense local ids, with neighbor ids
// left global (see the package comment for why). The cut is
// row-contiguous, so every shard aliases m's Cols and only the rebased
// offsets are materialized.
func Split(m *csr.Matrix, part *Partition) ([]*csr.Matrix, error) {
	if m.NumNodes() != part.NumNodes() {
		return nil, fmt.Errorf("shard: partition covers %d nodes, graph has %d", part.NumNodes(), m.NumNodes())
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
