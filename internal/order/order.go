// Package order relabels graph nodes to improve compression — the lever
// the web-graph compression literature the paper builds on (Boldi-Vigna
// [2], Chierichetti et al. [6]) identifies as decisive: gap-coded and
// bit-packed representations shrink when neighbors get nearby ids.
//
// Two orderings are provided: degree-descending (hubs first, shrinking
// the ids that appear most often in neighbor lists) and BFS order
// (locality: neighbors discovered together get adjacent ids).
package order

import (
	"fmt"
	"sort"

	"csrgraph/internal/algo"
	"csrgraph/internal/csr"
	"csrgraph/internal/edgelist"
	"csrgraph/internal/parallel"
	"csrgraph/internal/prefixsum"
)

// Permutation maps old node ids to new ids: NewID[old] == new.
type Permutation struct {
	NewID []uint32
	OldID []uint32
}

// valid checks the permutation is a bijection over n ids.
func (p *Permutation) valid(n int) error {
	if len(p.NewID) != n || len(p.OldID) != n {
		return fmt.Errorf("order: permutation size %d/%d, want %d", len(p.NewID), len(p.OldID), n)
	}
	for old, nw := range p.NewID {
		if int(nw) >= n || p.OldID[nw] != uint32(old) {
			return fmt.Errorf("order: permutation not a bijection at %d", old)
		}
	}
	return nil
}

// ByDegree returns the permutation that sorts nodes by descending degree
// (ties by old id, so the result is deterministic).
func ByDegree(m *csr.Matrix, p int) *Permutation {
	n := m.NumNodes()
	old := make([]uint32, n)
	for i := range old {
		old[i] = uint32(i)
	}
	sort.SliceStable(old, func(a, b int) bool {
		da, db := m.Degree(old[a]), m.Degree(old[b])
		if da != db {
			return da > db
		}
		return old[a] < old[b]
	})
	return fromOldOrder(old)
}

// ByBFS returns the permutation that labels nodes in BFS discovery order
// from src; unreached nodes keep their relative order after all reached
// ones.
func ByBFS(m *csr.Matrix, src edgelist.NodeID, p int) *Permutation {
	n := m.NumNodes()
	dist := algo.BFSFrontier(m, nil, src, p)
	old := make([]uint32, n)
	for i := range old {
		old[i] = uint32(i)
	}
	sort.SliceStable(old, func(a, b int) bool {
		da, db := dist[old[a]], dist[old[b]]
		// Reached before unreached; then by level; then by old id (which,
		// within a level, approximates discovery order from sorted rows).
		ra, rb := da != algo.Unreached, db != algo.Unreached
		if ra != rb {
			return ra
		}
		if ra && da != db {
			return da < db
		}
		return old[a] < old[b]
	})
	return fromOldOrder(old)
}

// Identity returns the no-op permutation.
func Identity(n int) *Permutation {
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = uint32(i)
	}
	return &Permutation{NewID: append([]uint32{}, ids...), OldID: ids}
}

func fromOldOrder(old []uint32) *Permutation {
	newID := make([]uint32, len(old))
	for nw, o := range old {
		newID[o] = uint32(nw)
	}
	return &Permutation{NewID: newID, OldID: old}
}

// Apply relabels a CSR under the permutation with p processors: row new-u
// is old row OldID[new-u] with every neighbor mapped through NewID and
// re-sorted; offsets are rebuilt with the parallel prefix sum.
func Apply(m *csr.Matrix, perm *Permutation, p int) (*csr.Matrix, error) {
	n := m.NumNodes()
	if err := perm.valid(n); err != nil {
		return nil, err
	}
	deg := make([]uint32, n)
	parallel.For(n, p, func(_ int, r parallel.Range) {
		for u := r.Start; u < r.End; u++ {
			deg[u] = uint32(m.Degree(perm.OldID[u]))
		}
	})
	off := prefixsum.Offsets(deg, p)
	cols := make([]uint32, off[n])
	parallel.For(n, p, func(_ int, r parallel.Range) {
		for u := r.Start; u < r.End; u++ {
			row := cols[off[u]:off[u+1]]
			for i, w := range m.Neighbors(perm.OldID[u]) {
				row[i] = perm.NewID[w]
			}
			sort.Slice(row, func(a, b int) bool { return row[a] < row[b] })
		}
	})
	return &csr.Matrix{RowOffsets: off, Cols: cols}, nil
}

// SizeComparison packs a matrix under each ordering and reports the
// bit-packed and delta-gamma sizes, for the compression ablation.
type SizeComparison struct {
	Ordering   string
	FixedBytes int64
	DeltaBytes int64
}

// CompareOrderings evaluates identity, degree and BFS orderings on m.
func CompareOrderings(m *csr.Matrix, p int) ([]SizeComparison, error) {
	orderings := []struct {
		name string
		perm *Permutation
	}{
		{"identity", Identity(m.NumNodes())},
		{"degree", ByDegree(m, p)},
		{"bfs", ByBFS(m, 0, p)},
	}
	out := make([]SizeComparison, 0, len(orderings))
	for _, o := range orderings {
		relabeled, err := Apply(m, o.perm, p)
		if err != nil {
			return nil, err
		}
		out = append(out, SizeComparison{
			Ordering:   o.name,
			FixedBytes: csr.PackMatrix(relabeled, p).SizeBytes(),
			DeltaBytes: csr.PackDelta(relabeled, p).SizeBytes(),
		})
	}
	return out, nil
}
