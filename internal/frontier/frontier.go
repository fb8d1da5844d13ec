// Package frontier is the frontier-based algorithm core: a GBBS/Ligra-style
// VertexSubset + EdgeMap abstraction (Dhulipala/Blelloch/Shun,
// arXiv:1805.05208) running directly on the repo's CSR representations.
// Traversal algorithms — BFS (push-only and direction-optimizing), SCC's
// reachability sweeps, bucketed k-core peeling — reduce to the same round
// structure: hold the active vertices in a VertexSubset, apply an edge
// function to the out-edges of the subset, and collect the vertices the
// function activated as the next subset.
//
// The core decisions live here so the algorithms don't repeat them:
//
//   - Representation switching. A VertexSubset is either a sparse id list
//     or a dense bitmap; EdgeMap picks push (iterate frontier rows through
//     the width-specialized decode kernels, work-stealing scheduled with
//     degree-weighted grains) or pull (iterate destination vertices and
//     probe their in-edges in place, early-exiting once the vertex is
//     settled) per round using the Beamer/GBBS threshold
//     |frontier| + frontierEdges > m/alpha (Policy).
//   - Duplicate-free output. Edge functions claim their destination with a
//     CAS (the BFS level, the reachability bit), so each vertex enters the
//     output subset once; the dense direction owns each destination on one
//     worker and needs no claim.
//   - Observability. Every round records its wall time into
//     csrgraph_frontier_round_seconds{mode=...} and representation switches
//     bump csrgraph_frontier_switch_total{to=...}.
//
// internal/algo instantiates the graph algorithms on top of this package;
// DESIGN.md §13 documents the invariants and the recipe for adding a new
// algorithm.
package frontier

import (
	"fmt"
	"math/bits"

	"csrgraph/internal/parallel"
)

// Graph is the read-only graph surface EdgeMap consumes. It is structurally
// identical to query.Source, so every CSR flavor (plain, bit-packed, delta,
// mmap-backed, cached) satisfies it without an adapter. Sources that also
// implement NumEdges() int enable the density policy; sources that
// implement IndexedRows let the dense (pull) mode probe rows in place
// without materializing them.
type Graph interface {
	NumNodes() int
	Degree(u uint32) int
	Row(dst []uint32, u uint32) []uint32
}

// IndexedRows is a Graph whose neighbor array is one indexable column
// store: RowBounds locates a row inside it and ColAt reads a single
// neighbor in O(1). csr.Packed (one bitpack random access per ColAt) and
// csr.Matrix (one slice load) both qualify. Dense-mode EdgeMap uses it to
// probe in-edges with early exit instead of decoding whole rows.
type IndexedRows interface {
	RowBounds(u uint32) (start, end int)
	ColAt(i int) uint32
}

// VertexSubset is a set of vertex ids out of [0, n), held either as a
// sparse unsorted id list or as a dense bitmap. EdgeMap converts between
// the representations as the switching policy demands; algorithms mostly
// treat it as opaque.
type VertexSubset struct {
	n     int
	count int
	dense bool
	ids   []uint32 // sparse representation (valid when !dense)
	bits  []uint64 // dense representation (valid when dense)
}

// NewSparse wraps an id list (ownership transfers to the subset) as a
// sparse VertexSubset over [0, n).
func NewSparse(n int, ids []uint32) *VertexSubset {
	return &VertexSubset{n: n, count: len(ids), ids: ids}
}

// NewDense wraps a bitmap (ownership transfers; len must be ceil(n/64))
// holding count set bits as a dense VertexSubset over [0, n).
func NewDense(n int, bits []uint64, count int) *VertexSubset {
	if len(bits) != denseWords(n) {
		panic(fmt.Sprintf("frontier: bitmap has %d words, want %d for n=%d", len(bits), denseWords(n), n))
	}
	return &VertexSubset{n: n, count: count, dense: true, bits: bits}
}

// Single returns the one-vertex subset {v}.
func Single(n int, v uint32) *VertexSubset {
	return NewSparse(n, []uint32{v})
}

// Empty returns the empty subset over [0, n).
func Empty(n int) *VertexSubset { return NewSparse(n, nil) }

// denseWords returns the bitmap length for n vertices.
func denseWords(n int) int { return (n + 63) / 64 }

// Len returns the number of vertices in the subset.
func (vs *VertexSubset) Len() int { return vs.count }

// N returns the size of the vertex universe.
func (vs *VertexSubset) N() int { return vs.n }

// IsEmpty reports whether the subset holds no vertices.
func (vs *VertexSubset) IsEmpty() bool { return vs.count == 0 }

// IsDense reports whether the current representation is the bitmap.
func (vs *VertexSubset) IsDense() bool { return vs.dense }

// containsDense reports membership from the bitmap representation. Callers
// must have ensured the dense form exists (toDense).
//
//csr:hotpath
func (vs *VertexSubset) containsDense(v uint32) bool {
	return vs.bits[v>>6]&(1<<(v&63)) != 0
}

// Contains reports membership. O(1) on the dense representation, O(len) on
// the sparse one — per-vertex hot loops should convert first.
func (vs *VertexSubset) Contains(v uint32) bool {
	if vs.dense {
		return vs.containsDense(v)
	}
	for _, id := range vs.ids {
		if id == v {
			return true
		}
	}
	return false
}

// IDs materializes the sparse id list (converting a dense subset with p
// processors). The returned slice aliases the subset; treat as read-only.
// Sparse-native subsets keep their original (unsorted) order; converted
// ones come out sorted.
func (vs *VertexSubset) IDs(p int) []uint32 {
	vs.toSparse(p)
	return vs.ids
}

// toDense materializes the bitmap representation and makes it current.
func (vs *VertexSubset) toDense(p int) {
	if vs.dense {
		return
	}
	if vs.bits == nil {
		vs.bits = make([]uint64, denseWords(vs.n))
	}
	// Serial scatter: two ids can share a word, so a parallel version would
	// need atomic ORs; frontiers being converted are ≤ n ids and the stores
	// are sequential, which is noise next to the dense round that follows.
	for _, v := range vs.ids {
		vs.bits[v>>6] |= 1 << (v & 63)
	}
	vs.dense = true
}

// toSparse materializes the id list representation and makes it current.
// The conversion is a two-pass parallel pack (per-chunk popcounts, then
// exclusive offsets, then fill), so the output is sorted by vertex id.
func (vs *VertexSubset) toSparse(p int) {
	if !vs.dense {
		return
	}
	words := vs.bits
	chunks := parallel.Chunks(len(words), p)
	counts := make([]int, len(chunks)+1)
	parallel.For(len(words), p, func(c int, r parallel.Range) {
		sum := 0
		for w := r.Start; w < r.End; w++ {
			sum += bits.OnesCount64(words[w])
		}
		counts[c+1] = sum
	})
	for c := 1; c < len(counts); c++ {
		counts[c] += counts[c-1]
	}
	out := make([]uint32, counts[len(counts)-1])
	parallel.For(len(words), p, func(c int, r parallel.Range) {
		pos := counts[c]
		for w := r.Start; w < r.End; w++ {
			word := words[w]
			for word != 0 {
				b := bits.TrailingZeros64(word)
				out[pos] = uint32(w<<6 + b)
				pos++
				word &^= 1 << b
			}
		}
	})
	vs.ids = out
	vs.count = len(out)
	vs.dense = false
}
