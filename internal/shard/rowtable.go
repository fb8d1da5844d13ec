package shard

import (
	"sync/atomic"

	"csrgraph/internal/edgelist"
	"csrgraph/internal/query"
)

// rowSlotOverhead approximates the per-row bookkeeping bytes charged
// against the table budget on top of the decoded payload: the boxed slice
// header the atomic slot points at, plus allocator rounding.
const rowSlotOverhead = 48

// rowTable is the engine's decoded-row cache for Neighbors: one atomic
// slot per LOCAL row id holding the row decoded to plain uint32s. The dense
// layout is what the shard-local id space buys — a lookup is a single
// pointer load, with no hashing of global ids, locking, or LRU bookkeeping
// on the hit path. Existence probes never touch it: they search the packed
// rows in place.
//
// Admission is first-touch until the byte budget fills (no eviction): a
// serving shard's working set is its hub rows, which power-law traffic
// touches immediately and forever, so churn-resistant admission beats
// recency tracking here. Once the budget fills, misses decode without
// admitting.
type rowTable struct {
	slots   []atomic.Pointer[[]uint32]
	bytes   atomic.Int64 // decoded payload bytes admitted
	max     int64        // payload budget
	hits    atomic.Int64
	misses  atomic.Int64
	entries atomic.Int64
}

// newRowTable builds a table for n local rows under maxBytes. Returns nil
// when maxBytes <= 0 — a nil *rowTable is the valid "caching disabled"
// value, matching query.NewRowCache's contract.
func newRowTable(n int, maxBytes int64) *rowTable {
	if maxBytes <= 0 {
		return nil
	}
	return &rowTable{slots: make([]atomic.Pointer[[]uint32], n), max: maxBytes}
}

// row returns the decoded row for a local id, or nil when absent. It does
// NOT touch the hit/miss counters; callers account for them.
//
//csr:hotpath
func (t *rowTable) row(local edgelist.NodeID) []uint32 {
	p := t.slots[local].Load()
	if p == nil {
		return nil
	}
	return *p
}

// admit stores a decoded row, taking ownership: the caller must not modify
// row afterwards. Rows that would blow the budget are refused, and a
// concurrent admission of the same id wins benignly (the loser's decode is
// garbage-collected).
func (t *rowTable) admit(local edgelist.NodeID, row []uint32) {
	size := int64(len(row))*4 + rowSlotOverhead
	if t.bytes.Add(size) > t.max {
		t.bytes.Add(-size)
		return
	}
	if !t.slots[local].CompareAndSwap(nil, &row) {
		t.bytes.Add(-size)
		return
	}
	t.entries.Add(1)
}

// account adds hit/miss counts.
func (t *rowTable) account(hits, misses int64) {
	if hits != 0 {
		t.hits.Add(hits)
	}
	if misses != 0 {
		t.misses.Add(misses)
	}
}

// Stats snapshots the table in the shape the serving stats endpoints
// already speak.
func (t *rowTable) Stats() query.CacheStats {
	return query.CacheStats{
		Hits:    t.hits.Load(),
		Misses:  t.misses.Load(),
		Entries: t.entries.Load(),
		Bytes:   t.bytes.Load(),
		MaxB:    t.max,
	}
}

// tableSource fronts the shard's source with the row table for the
// NeighborsBatch path: hits return the shared decoded slice, misses
// decode once and admit. Like
// query.CachedSource, dst is never written through — returned rows are
// shared and immutable.
type tableSource struct {
	src query.Source
	tab *rowTable
}

// NumNodes returns the shard's local row count.
func (ts *tableSource) NumNodes() int { return ts.src.NumNodes() }

// Degree returns the local row's length (not cached; O(1) underneath).
func (ts *tableSource) Degree(u edgelist.NodeID) int { return ts.src.Degree(u) }

// Row returns u's row, serving repeats from the table. dst is ignored;
// the returned slice is shared and must be treated read-only.
func (ts *tableSource) Row(dst []uint32, u edgelist.NodeID) []uint32 {
	if row := ts.tab.row(u); row != nil {
		ts.tab.account(1, 0)
		return row
	}
	ts.tab.account(0, 1)
	row := ts.src.Row(nil, u)
	ts.tab.admit(u, row)
	return row
}

// StableRows marks Row's results as shared and immutable
// (query.StableRower): table entries on a hit, fresh decodes the table
// takes over on a miss.
func (ts *tableSource) StableRows() bool { return true }

// AvgDegreeHint forwards the engine wrapper's precomputed estimate
// (query.AvgDegreeHinter), so batch grain sizing through the table never
// re-probes the shard.
func (ts *tableSource) AvgDegreeHint() int {
	if h, ok := ts.src.(query.AvgDegreeHinter); ok {
		return h.AvgDegreeHint()
	}
	return 0
}

// NumEdges exposes the underlying edge count when available, so grain
// sizing sees through the wrapper.
func (ts *tableSource) NumEdges() int {
	if ec, ok := ts.src.(interface{ NumEdges() int }); ok {
		return ec.NumEdges()
	}
	return 0
}
