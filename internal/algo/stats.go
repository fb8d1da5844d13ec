package algo

import (
	"sync"

	"csrgraph/internal/parallel"
	"csrgraph/internal/query"
)

// DegreeStats summarizes a graph's out-degree distribution.
type DegreeStats struct {
	Min, Max  int
	Mean      float64
	Isolated  int   // nodes with degree 0
	Histogram []int // Histogram[i] = number of nodes with degree i (capped)
}

// histogramCap bounds the dense histogram; degrees above it land in the
// last bucket.
const histogramCap = 1024

// Degrees computes the out-degree distribution with p processors.
func Degrees(g query.Source, p int) DegreeStats {
	p = clampProcs(p)
	n := g.NumNodes()
	stats := DegreeStats{Min: -1}
	if n == 0 {
		stats.Min = 0
		return stats
	}
	type partial struct {
		min, max, isolated int
		sum                int64
		hist               []int
	}
	chunks := parallel.Chunks(n, p)
	parts := make([]partial, len(chunks))
	parallel.For(n, len(chunks), func(c int, r parallel.Range) {
		pt := partial{min: -1, hist: make([]int, histogramCap+1)}
		for u := r.Start; u < r.End; u++ {
			d := g.Degree(uint32(u))
			pt.sum += int64(d)
			if d == 0 {
				pt.isolated++
			}
			if pt.min < 0 || d < pt.min {
				pt.min = d
			}
			if d > pt.max {
				pt.max = d
			}
			if d > histogramCap {
				d = histogramCap
			}
			pt.hist[d]++
		}
		parts[c] = pt
	})
	stats.Histogram = make([]int, histogramCap+1)
	var sum int64
	for _, pt := range parts {
		if pt.min >= 0 && (stats.Min < 0 || pt.min < stats.Min) {
			stats.Min = pt.min
		}
		if pt.max > stats.Max {
			stats.Max = pt.max
		}
		stats.Isolated += pt.isolated
		sum += pt.sum
		for i, c := range pt.hist {
			stats.Histogram[i] += c
		}
	}
	stats.Mean = float64(sum) / float64(n)
	return stats
}

// TwoHopNeighbors returns the distinct nodes reachable from u in exactly
// one or two hops (excluding u itself), sorted ascending. The second hop
// is expanded in parallel over u's neighbor list.
func TwoHopNeighbors(g query.Source, u uint32, p int) []uint32 {
	p = clampProcs(p)
	first := g.Row(nil, u)
	firstCopy := make([]uint32, len(first))
	copy(firstCopy, first)

	sets := make([]map[uint32]struct{}, p)
	parallel.For(len(firstCopy), p, func(c int, r parallel.Range) {
		set := make(map[uint32]struct{})
		var buf []uint32
		for i := r.Start; i < r.End; i++ {
			buf = g.Row(buf, firstCopy[i])
			for _, w := range buf {
				set[w] = struct{}{}
			}
		}
		sets[c] = set
	})
	merged := make(map[uint32]struct{}, len(firstCopy)*2)
	for _, v := range firstCopy {
		merged[v] = struct{}{}
	}
	for _, set := range sets {
		for v := range set {
			merged[v] = struct{}{}
		}
	}
	delete(merged, u)
	out := make([]uint32, 0, len(merged))
	for v := range merged {
		out = append(out, v)
	}
	sortUint32(out)
	return out
}

var sortPool = sync.Pool{New: func() any { return []uint32(nil) }}

// sortUint32 sorts ascending (simple bottom-up merge sort to avoid pulling
// in sort for hot paths; stable performance on any input).
func sortUint32(xs []uint32) {
	n := len(xs)
	if n < 2 {
		return
	}
	buf := sortPool.Get().([]uint32)
	if cap(buf) < n {
		buf = make([]uint32, n)
	}
	buf = buf[:n]
	src, dst := xs, buf
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid, hi := lo+width, lo+2*width
			if mid > n {
				mid = n
			}
			if hi > n {
				hi = n
			}
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				if src[i] <= src[j] {
					dst[k] = src[i]
					i++
				} else {
					dst[k] = src[j]
					j++
				}
				k++
			}
			copy(dst[k:], src[i:mid])
			copy(dst[k+mid-i:], src[j:hi])
		}
		src, dst = dst, src
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
	sortPool.Put(buf[:0])
}
