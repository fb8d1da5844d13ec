// Package query implements Section V of the paper: the parallel querying
// algorithms over (bit-packed) CSR.
//
//   - NeighborsBatch is Algorithm 6 driven by the first "do in parallel" of
//     Algorithm 9: an array of neighborhood queries is split into p chunks
//     and each processor answers its chunk by decoding rows from the packed
//     CSR (GetRowFromCSR).
//   - EdgesExistBatch is Algorithm 7 driven by the second "do in parallel":
//     an array of (u, v) existence queries is split into p chunks; each
//     processor fetches u's row and scans it for v.
//   - EdgeExistsSplit is Algorithm 8 driven by the third "do in parallel":
//     a single (u, v) query where u's neighbor list itself is split into p
//     chunks scanned concurrently; one processor finding v answers true.
//
// All functions accept any Source — both the plain csr.Matrix and the
// bit-packed csr.Packed qualify — so baselines and compressed forms are
// queried through identical code paths.
//
// EdgesExistBatch and EdgeExistsSplit in this file are the paper-faithful
// decode-and-scan implementations, retained as the differential baselines
// for the skew-aware engine in search.go (zero-decode searches,
// work-stealing scheduling); the public csrgraph API routes through the
// engine.
package query

import (
	"sync/atomic"

	"csrgraph/internal/edgelist"
	"csrgraph/internal/obs"
	"csrgraph/internal/parallel"
)

// Source is a CSR-shaped graph that can produce a node's neighbor row.
// Row may return an internal subslice (plain CSR) or decode into dst
// (packed CSR); callers treat the result as read-only and valid until the
// next Row call with the same dst.
type Source interface {
	NumNodes() int
	Degree(u edgelist.NodeID) int
	Row(dst []uint32, u edgelist.NodeID) []uint32
}

// StableRower is a Source whose Row never decodes into dst: every row it
// returns is a shared, immutable slice that stays valid for as long as the
// source does. Batch results hand such rows up as they are, so callers must
// not write to them. The shard engines' row table declares it; csr.Matrix
// could and does not, because the library's NeighborsBatch promises
// caller-owned rows.
type StableRower interface {
	StableRows() bool
}

// CacheStats is a point-in-time snapshot of a decoded-row cache's
// effectiveness (the shard engines' row tables), exposed by csrserver's
// /stats and /metrics endpoints.
type CacheStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int64 `json:"entries"`
	Bytes   int64 `json:"bytes"`
	MaxB    int64 `json:"max_bytes"`
}

// NeighborsBatch answers an array of neighborhood queries with p
// processors. Result i holds the neighbors of uNodes[i]. Rows are caller-
// owned: each is written once, straight into its own window of a slab
// allocated per scheduling grab, with its capacity clipped to its length so
// an append on one row cannot reach the next, and a zero-degree row is
// empty, not nil. (Rows of one grab share the slab's memory: holding one
// keeps its neighbours' allocated.) A source whose Row hands out shared
// memory instead of decoding into dst has the row copied into the window.
// A StableRower's rows are returned as they are, shared and read-only.
//
// Scheduling is work-stealing (parallel.ForDynamic) with a degree-aware
// grain: under power-law degree skew a static p-way split collapses when
// one chunk draws the hub nodes, so participants instead grab small index
// ranges sized to roughly constant decode work.
func NeighborsBatch(g Source, uNodes []edgelist.NodeID, p int) [][]uint32 {
	start := obs.Now()
	results := make([][]uint32, len(uNodes))
	p = clampProcs(p, len(uNodes))
	grain := dynamicGrain(g, len(uNodes), p)
	var body func(w int, r parallel.Range)
	if st, ok := g.(StableRower); ok && st.StableRows() {
		body = func(_ int, r parallel.Range) {
			for i := r.Start; i < r.End; i++ {
				results[i] = g.Row(nil, uNodes[i])
			}
		}
	} else {
		body = func(_ int, r parallel.Range) {
			nodes := uNodes[r.Start:r.End]
			degs := make([]int, len(nodes))
			total := 0
			for i, u := range nodes {
				degs[i] = g.Degree(u)
				total += degs[i]
			}
			slab := make([]uint32, total)
			lo := 0
			for i, u := range nodes {
				hi := lo + degs[i]
				win := slab[lo:hi:hi]
				if row := g.Row(win, u); len(row) != len(win) || (len(row) > 0 && &row[0] != &win[0]) {
					win = append(win[:0], row...) // shared memory: copy it in
				}
				results[r.Start+i] = win
				lo = hi
			}
		}
	}
	parallel.ForDynamic(len(uNodes), p, grain, body)
	neighborsBatchSize.Observe(int64(len(uNodes)))
	obs.Tick(neighborsBatchSeconds, start)
	return results
}

// EdgesExistBatch answers an array of edge-existence queries with p
// processors: result i reports whether edges[i] exists. Each processor
// fetches the source node's row once and scans it linearly for the target
// (Algorithm 7's inner loop), exiting early once the scan passes v — rows
// are sorted ascending, so no neighbor beyond the first one >= v can
// match. This static-chunk decode-and-scan is the differential baseline
// the zero-decode, work-stealing EdgesExistBatchSearch is measured
// against.
func EdgesExistBatch(g Source, edges []edgelist.Edge, p int) []bool {
	results := make([]bool, len(edges))
	parallel.For(len(edges), p, func(_ int, r parallel.Range) {
		var buf []uint32
		for i := r.Start; i < r.End; i++ {
			e := edges[i]
			buf = g.Row(buf, e.U)
			for _, w := range buf {
				if w >= e.V {
					results[i] = w == e.V
					break
				}
			}
		}
	})
	return results
}

// EdgesExistBatchBinary is EdgesExistBatch with the binary-search inner
// loop Section V-B suggests; rows must be sorted (true for CSRs built from
// sorted edge lists).
func EdgesExistBatchBinary(g Source, edges []edgelist.Edge, p int) []bool {
	results := make([]bool, len(edges))
	parallel.For(len(edges), p, func(_ int, r parallel.Range) {
		var buf []uint32
		for i := r.Start; i < r.End; i++ {
			e := edges[i]
			buf = g.Row(buf, e.U)
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
	return results
}

// EdgeExistsSplit answers one edge-existence query by retrieving u's
// neighbor list and splitting it among p processors (Algorithm 8): each
// scans its chunk for v, and any processor finding it publishes true.
// The shared found-flag is checked inside the scan loop — on every
// element, not once per chunk — so sibling chunks short-circuit promptly
// instead of finishing their whole chunk after an answer is known; the
// sorted-row early exit bounds each chunk's scan the same way
// EdgesExistBatch's does. Retained as the decoded baseline for
// EdgeExistsSplitSearch, which splits the packed row without
// materializing it.
func EdgeExistsSplit(g Source, u, v edgelist.NodeID, p int) bool {
	row := g.Row(nil, u)
	var found atomic.Bool
	parallel.For(len(row), p, func(_ int, r parallel.Range) {
		for i := r.Start; i < r.End; i++ {
			if found.Load() {
				return
			}
			if w := row[i]; w >= v {
				if w == v {
					found.Store(true)
				}
				return
			}
		}
	})
	return found.Load()
}

// CountBatch answers an array of degree queries with p processors; a
// convenience built on the same dispatch pattern as Algorithm 9.
func CountBatch(g Source, uNodes []edgelist.NodeID, p int) []int {
	results := make([]int, len(uNodes))
	parallel.For(len(uNodes), p, func(_ int, r parallel.Range) {
		for i := r.Start; i < r.End; i++ {
			results[i] = g.Degree(uNodes[i])
		}
	})
	return results
}
