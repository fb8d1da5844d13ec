package algo

import (
	"sync"

	"csrgraph/internal/parallel"
	"csrgraph/internal/query"
)

// LocalClustering returns the local clustering coefficient of every node
// of a symmetrized graph: the fraction of a node's neighbor pairs that are
// themselves connected. Nodes with degree < 2 get 0.
func LocalClustering(g query.Source, p int) []float64 {
	p = clampProcs(p)
	n := g.NumNodes()
	out := make([]float64, n)
	parallel.For(n, p, func(_ int, r parallel.Range) {
		var rowU, rowW []uint32
		for u := r.Start; u < r.End; u++ {
			rowU = g.Row(rowU, uint32(u))
			d := len(rowU)
			if d < 2 {
				continue
			}
			var links int64
			for _, w := range rowU {
				rowW = g.Row(rowW, w)
				links += countCommon(rowU, rowW)
			}
			// Each triangle through u is counted twice (once per neighbor
			// pair order).
			out[u] = float64(links) / float64(d*(d-1))
		}
	})
	return out
}

// GlobalClustering returns the average local clustering coefficient over
// nodes with degree >= 2 (the usual "average clustering" statistic), and
// the number of such nodes.
func GlobalClustering(g query.Source, p int) (float64, int) {
	p = clampProcs(p)
	local := LocalClustering(g, p)
	var mu sync.Mutex
	var sum float64
	var count int
	parallel.For(g.NumNodes(), p, func(_ int, r parallel.Range) {
		var localSum float64
		localCount := 0
		for u := r.Start; u < r.End; u++ {
			if g.Degree(uint32(u)) >= 2 {
				localSum += local[u]
				localCount++
			}
		}
		mu.Lock()
		sum += localSum
		count += localCount
		mu.Unlock()
	})
	if count == 0 {
		return 0, 0
	}
	return sum / float64(count), count
}

// countCommon counts values present in both ascending slices.
func countCommon(a, b []uint32) int64 {
	var count int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			count++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return count
}
