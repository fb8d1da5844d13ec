// Package edgelist provides the edge-list input representation the paper's
// construction algorithms consume: a flat list of (u, v) pairs, sorted by
// source then destination, plus the temporal (u, v, t) triples of Section IV.
//
// The parallel degree computation (Algorithms 2-3) requires the list to be
// sorted by source node so that each node's edges form one consecutive run;
// SortByUV establishes that invariant, in parallel when asked.
package edgelist

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"csrgraph/internal/parallel"
)

// NodeID identifies a vertex. The paper's graphs top out under 2^32 nodes.
type NodeID = uint32

// Edge is a directed edge from U to V.
type Edge struct {
	U, V NodeID
}

// Less orders edges by source, then destination.
func (e Edge) Less(o Edge) bool {
	if e.U != o.U {
		return e.U < o.U
	}
	return e.V < o.V
}

// ParseNodeItem decodes one node id of a query batch, "u" with
// surrounding white space allowed, and checks it against the node count n.
func ParseNodeItem(part string, n int) (NodeID, error) {
	v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad node id %q", part)
	}
	if int(v) >= n {
		return 0, fmt.Errorf("node %d out of range [0,%d)", v, n)
	}
	return NodeID(v), nil
}

// ParseEdgeItem decodes one edge of a query batch, "u:v" with surrounding
// white space allowed, and checks both ids against the node count n.
func ParseEdgeItem(part string, n int) (Edge, error) {
	us, vs, ok := strings.Cut(strings.TrimSpace(part), ":")
	if !ok {
		return Edge{}, fmt.Errorf("bad edge %q, want u:v", part)
	}
	u, err := strconv.ParseUint(us, 10, 32)
	if err != nil {
		return Edge{}, fmt.Errorf("bad edge %q", part)
	}
	v, err := strconv.ParseUint(vs, 10, 32)
	if err != nil {
		return Edge{}, fmt.Errorf("bad edge %q", part)
	}
	if int(u) >= n || int(v) >= n {
		return Edge{}, fmt.Errorf("edge %q out of range [0,%d)", part, n)
	}
	return Edge{U: NodeID(u), V: NodeID(v)}, nil
}

// List is a sequence of directed edges.
type List []Edge

// Len returns the number of edges.
func (l List) Len() int { return len(l) }

// MaxNode returns the largest node id referenced, or 0 for an empty list.
func (l List) MaxNode() NodeID {
	var max NodeID
	for _, e := range l {
		if e.U > max {
			max = e.U
		}
		if e.V > max {
			max = e.V
		}
	}
	return max
}

// NumNodes returns MaxNode+1, the dense node-id space size, or 0 when empty.
func (l List) NumNodes() int {
	if len(l) == 0 {
		return 0
	}
	return int(l.MaxNode()) + 1
}

// IsSortedByUV reports whether the list is sorted by (U, V).
func (l List) IsSortedByUV() bool {
	return sort.SliceIsSorted(l, func(i, j int) bool { return l[i].Less(l[j]) })
}

// SortByUV sorts the list by (U, V) in place using p processors, via the
// parallel LSD radix sort over packed (u<<32 | v) keys (internal/radix).
// See Prepared for the fused sort+dedup(+symmetrize) construction path.
func (l List) SortByUV(p int) {
	sortEdgesRadix(l, p)
}

// SortByUVMerge is the retained comparison-sort baseline: per-chunk
// sort.Slice followed by pairwise parallel merges. It is kept (like
// bitarray's unpackGeneric) as the differential-test reference and the
// benchmark baseline the radix path is measured against.
func (l List) SortByUVMerge(p int) {
	parallelSort(l, p, func(a, b Edge) bool { return a.Less(b) })
}

// Dedup removes consecutive duplicate edges from a sorted list by in-place
// compaction and returns the shortened list as a sub-slice of l — no
// second edge list is allocated. The result aliases l's backing array, and
// l's elements beyond the returned length are left in an unspecified
// order; callers that need the original list intact must Clone first.
func (l List) Dedup() List {
	if len(l) == 0 {
		return l
	}
	w := 1
	for i := 1; i < len(l); i++ {
		if l[i] != l[w-1] {
			l[w] = l[i]
			w++
		}
	}
	return l[:w]
}

// Symmetrize returns a new list containing every edge and its reverse,
// excluding self-loop duplicates. The result is unsorted.
func (l List) Symmetrize() List {
	out := make(List, 0, 2*len(l))
	for _, e := range l {
		out = append(out, e)
		if e.U != e.V {
			out = append(out, Edge{e.V, e.U})
		}
	}
	return out
}

// Clone returns a deep copy of the list.
func (l List) Clone() List {
	out := make(List, len(l))
	copy(out, l)
	return out
}

// SizeBytes returns the in-memory footprint of the raw edge list: two 4-byte
// ids per edge.
func (l List) SizeBytes() int64 { return int64(len(l)) * 8 }

// TextSizeBytes returns the size of the list in SNAP text format ("u\tv\n"
// per edge) without materializing it. Table II's "EdgeList Size" column
// reports the SNAP text files, so this is the paper's accounting.
func (l List) TextSizeBytes() int64 {
	var total int64
	for _, e := range l {
		total += int64(decimalLen(e.U) + decimalLen(e.V) + 2)
	}
	return total
}

func decimalLen(v uint32) int {
	n := 1
	for v >= 10 {
		v /= 10
		n++
	}
	return n
}

// Validate checks structural sanity: node ids below limit (0 disables the
// check). It returns the first problem found.
func (l List) Validate(limit int) error {
	if limit <= 0 {
		return nil
	}
	for i, e := range l {
		if int(e.U) >= limit || int(e.V) >= limit {
			return fmt.Errorf("edgelist: edge %d (%d,%d) exceeds node limit %d", i, e.U, e.V, limit)
		}
	}
	return nil
}

// Timestamp is a time-frame index in a temporal stream.
type Timestamp = uint32

// TemporalEdge is the ordered triple (u, v, t) of Section IV: edge (u, v)
// changes state (appears or disappears) at time-frame t.
type TemporalEdge struct {
	U, V NodeID
	T    Timestamp
}

// TemporalList is a sequence of temporal edge events. Section IV assumes it
// is sorted by time-frame, then by node numbers within each frame.
type TemporalList []TemporalEdge

// Len returns the number of events.
func (l TemporalList) Len() int { return len(l) }

// less orders by (T, U, V).
func (e TemporalEdge) less(o TemporalEdge) bool {
	if e.T != o.T {
		return e.T < o.T
	}
	if e.U != o.U {
		return e.U < o.U
	}
	return e.V < o.V
}

// IsSorted reports whether the list follows Section IV's (T, U, V) order.
func (l TemporalList) IsSorted() bool {
	return sort.SliceIsSorted(l, func(i, j int) bool { return l[i].less(l[j]) })
}

// Sort establishes the (T, U, V) order in place using p processors, via
// the 128-bit key-tuple radix sort (internal/radix).
func (l TemporalList) Sort(p int) {
	sortTemporalRadix(l, p)
}

// SortMerge is the retained comparison-sort baseline for temporal lists;
// see SortByUVMerge.
func (l TemporalList) SortMerge(p int) {
	parallelSort(l, p, func(a, b TemporalEdge) bool { return a.less(b) })
}

// NumFrames returns maxT+1 for a non-empty sorted list, else 0.
func (l TemporalList) NumFrames() int {
	if len(l) == 0 {
		return 0
	}
	var max Timestamp
	for _, e := range l {
		if e.T > max {
			max = e.T
		}
	}
	return int(max) + 1
}

// MaxNode returns the largest node id referenced.
func (l TemporalList) MaxNode() NodeID {
	var max NodeID
	for _, e := range l {
		if e.U > max {
			max = e.U
		}
		if e.V > max {
			max = e.V
		}
	}
	return max
}

// Frame returns the subslice of events with time-frame t. The list must be
// sorted.
func (l TemporalList) Frame(t Timestamp) TemporalList {
	lo := sort.Search(len(l), func(i int) bool { return l[i].T >= t })
	hi := sort.Search(len(l), func(i int) bool { return l[i].T > t })
	return l[lo:hi]
}

// SizeBytes returns the in-memory footprint: two 4-byte ids plus a 4-byte
// timestamp per event.
func (l TemporalList) SizeBytes() int64 { return int64(len(l)) * 12 }

// parallelSort sorts xs with p processors: sort chunks independently, then
// iteratively merge neighbouring chunk pairs until one run remains.
func parallelSort[T any](xs []T, p int, less func(a, b T) bool) {
	chunks := parallel.Chunks(len(xs), p)
	if len(chunks) <= 1 {
		sort.Slice(xs, func(i, j int) bool { return less(xs[i], xs[j]) })
		return
	}
	parallel.For(len(xs), len(chunks), func(_ int, r parallel.Range) {
		part := xs[r.Start:r.End]
		sort.Slice(part, func(i, j int) bool { return less(part[i], part[j]) })
	})
	// Pairwise merge rounds; each round halves the number of sorted runs.
	runs := chunks
	buf := make([]T, len(xs))
	for len(runs) > 1 {
		next := make([]parallel.Range, 0, (len(runs)+1)/2)
		type job struct{ a, b parallel.Range }
		jobs := make([]job, 0, len(runs)/2)
		for i := 0; i+1 < len(runs); i += 2 {
			jobs = append(jobs, job{runs[i], runs[i+1]})
			next = append(next, parallel.Range{Start: runs[i].Start, End: runs[i+1].End})
		}
		if len(runs)%2 == 1 {
			next = append(next, runs[len(runs)-1])
		}
		parallel.ForEach(len(jobs), len(jobs), func(j int) {
			a, b := jobs[j].a, jobs[j].b
			merge(xs, buf, a, b, less)
		})
		runs = next
	}
}

// merge merges the two adjacent sorted ranges a and b of xs via buf.
func merge[T any](xs, buf []T, a, b parallel.Range, less func(x, y T) bool) {
	i, j, k := a.Start, b.Start, a.Start
	for i < a.End && j < b.End {
		if less(xs[j], xs[i]) {
			buf[k] = xs[j]
			j++
		} else {
			buf[k] = xs[i]
			i++
		}
		k++
	}
	copy(buf[k:], xs[i:a.End])
	k += a.End - i
	copy(buf[k:], xs[j:b.End])
	copy(xs[a.Start:b.End], buf[a.Start:b.End])
}
