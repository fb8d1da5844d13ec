// Skew-aware batched query engine. The naive Section V implementations in
// query.go split a batch into p static chunks and decode full rows; under
// the power-law degree skew the paper targets, one chunk that draws a hub
// node runs orders of magnitude longer than its siblings. This file is the
// engine the public API routes through instead:
//
//   - Existence queries go zero-decode: sources that can search their own
//     rows in place (Searcher — bit-packed CSR branch-free search, plain CSR
//     early-exit binary search, delta CSR early-exit sequential decode) are
//     probed without ever materializing a row, one SearchBatch call per
//     work-stealing grab.
//   - Batches are scheduled with parallel.ForDynamic's work-stealing grabs
//     instead of static chunks, with a degree-aware grain so hub-heavy
//     batches stay balanced.
//   - Single-query row splitting (Algorithm 8) searches packed subranges
//     directly via RangeSearcher.
package query

import (
	"sync/atomic"

	"csrgraph/internal/edgelist"
	"csrgraph/internal/obs"
	"csrgraph/internal/parallel"
	"csrgraph/internal/trace"
)

// Searcher is a Source that can answer an existence query by searching a
// row in place, without materializing it. csr.Packed (branch-free search
// over the packed bits), csr.Matrix (early-exit binary search) and
// csr.DeltaPacked (early-exit sequential decode) all qualify. SearchBatch
// answers out[i] = SearchRow(edges[i].U, edges[i].V) for a run of probes
// (out at least as long as edges): one interface call per run instead of
// one per probe, and room for the source to order its own loads —
// csr.Packed reads a group's row bounds before searching any of them.
type Searcher interface {
	SearchRow(u, v edgelist.NodeID) bool
	SearchBatch(edges []edgelist.Edge, out []bool)
}

// RangeSearcher is a Source whose rows live in one indexable column array
// that can be searched by subrange — the split geometry Algorithm 8 needs.
// csr.Packed and csr.Matrix qualify.
type RangeSearcher interface {
	RowBounds(u edgelist.NodeID) (start, end int)
	SearchRange(start, end int, v edgelist.NodeID) bool
}

// grainTargetWork is the decode work (in neighbors) one work-stealing grab
// should amortize: large enough that the atomic cursor traffic is noise,
// small enough that a grab landing on a hub does not recreate the static-
// chunk imbalance.
const grainTargetWork = 4096

// searchGrain is the grab size for zero-decode existence batches, whose
// per-query cost is O(log degree) — near-uniform, so only the cursor
// amortization matters.
const searchGrain = 256

// AvgDegreeHinter is a Source that has already computed its average degree
// once, so per-batch grain sizing reads a field instead of re-deriving the
// estimate from NumEdges/NumNodes on every call. Wrappers that sit between
// the scheduler and the raw CSR (the hot-row cache, the shard engines'
// per-shard sources) implement it: a sharded router fans one request out
// into many small per-shard sub-batches, and without the hint every leg
// would repay the degree probe through the whole wrapper chain.
type AvgDegreeHinter interface {
	// AvgDegreeHint returns ceil-ish average out-degree (>= 1).
	AvgDegreeHint() int
}

// avgDegreeOf derives the average-degree estimate dynamicGrain sizes grabs
// with: the precomputed hint when the source carries one, the
// NumEdges/NumNodes probe otherwise, and a flat default for sources that
// expose neither.
//
//csr:hotpath
func avgDegreeOf(g Source) int {
	if h, ok := g.(AvgDegreeHinter); ok {
		if avg := h.AvgDegreeHint(); avg > 0 {
			return avg
		}
	}
	if ec, ok := g.(interface{ NumEdges() int }); ok && g.NumNodes() > 0 {
		return ec.NumEdges()/g.NumNodes() + 1
	}
	return 8
}

// dynamicGrain picks the work-stealing grab size for row-decoding batches
// over g: roughly grainTargetWork neighbors of expected decode work per
// grab (via the source's average degree), bounded so a batch still splits
// into at least ~4 grabs per processor.
//
//csr:hotpath
func dynamicGrain(g Source, n, p int) int {
	grain := grainTargetWork / avgDegreeOf(g)
	if limit := n / (4 * p); grain > limit {
		grain = limit
	}
	if grain < 1 {
		grain = 1
	}
	return grain
}

// clampProcs bounds p to something the per-worker scratch allocation can
// size: at most one worker per query.
//
//csr:hotpath
func clampProcs(p, n int) int {
	if p > n {
		p = n
	}
	if p < 1 {
		p = 1
	}
	return p
}

// EdgesExistBatchSearch answers an array of edge-existence queries with p
// processors, scheduled by work stealing. On a Searcher the rows are
// probed in place (zero-decode: O(log d) packed random accesses per query
// instead of an O(d) row decode); any other source falls back to decoding
// each row into a per-worker buffer and binary-searching it.
func EdgesExistBatchSearch(g Source, edges []edgelist.Edge, p int) []bool {
	return EdgesExistBatchSearchTraced(g, edges, p, nil)
}

// EdgesExistBatchSearchTraced is EdgesExistBatchSearch stamping spans into
// tr: a schedule span, then a search span (zero-decode path) or a decode
// span (fallback), so a trace shows which dispatch the batch actually took.
func EdgesExistBatchSearchTraced(g Source, edges []edgelist.Edge, p int, tr *trace.Trace) []bool {
	start := obs.Now()
	ts := tr.Now()
	results := make([]bool, len(edges))
	p = clampProcs(p, len(edges))
	if s, ok := g.(Searcher); ok {
		dispatchSearch.Inc()
		tr.Span(trace.StageSchedule, len(edges), ts)
		tx := tr.Now()
		parallel.ForDynamic(len(edges), p, searchGrain, func(_ int, r parallel.Range) {
			s.SearchBatch(edges[r.Start:r.End], results[r.Start:r.End])
		})
		tr.Span(trace.StageSearch, len(edges), tx)
		existsBatchSize.Observe(int64(len(edges)))
		obs.Tick(existsBatchSeconds, start)
		return results
	}
	dispatchDecode.Inc()
	grain := dynamicGrain(g, len(edges), p)
	bufs := make([][]uint32, p)
	tr.Span(trace.StageSchedule, len(edges), ts)
	tx := tr.Now()
	parallel.ForDynamic(len(edges), p, grain, func(w int, r parallel.Range) {
		for i := r.Start; i < r.End; i++ {
			e := edges[i]
			buf := g.Row(bufs[w], e.U)
			bufs[w] = buf
			lo, hi := 0, len(buf)
			for lo < hi {
				mid := int(uint(lo+hi) >> 1)
				if buf[mid] < e.V {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			results[i] = lo < len(buf) && buf[lo] == e.V
		}
	})
	tr.Span(trace.StageDecode, len(edges), tx)
	existsBatchSize.Observe(int64(len(edges)))
	obs.Tick(existsBatchSeconds, start)
	return results
}

// EdgeExistsSplitSearch answers one (u, v) existence query by splitting
// u's row among p processors (Algorithm 8) without decoding it: each
// processor binary-searches its packed subrange via RangeSearcher, and a
// shared flag short-circuits siblings once any of them finds v. Sources
// without subrange search fall back to the decoded scan of
// EdgeExistsSplit.
func EdgeExistsSplitSearch(g Source, u, v edgelist.NodeID, p int) bool {
	rs, ok := g.(RangeSearcher)
	if !ok {
		return EdgeExistsSplit(g, u, v, p)
	}
	start, end := rs.RowBounds(u)
	var found atomic.Bool
	parallel.For(end-start, p, func(_ int, r parallel.Range) {
		if found.Load() {
			return
		}
		if rs.SearchRange(start+r.Start, start+r.End, v) {
			found.Store(true)
		}
	})
	return found.Load()
}
