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

// rowTable is the engine's decoded-row cache plus probe index: one atomic
// slot per LOCAL row id holding the row decoded to plain uint32s, and a
// lock-free hash set of (local u, v) keys covering every indexed row. The
// dense layouts are what the shard-local id space buys — a row lookup is
// a single pointer load and an existence probe is a flag-bit test plus
// ~one hash probe, with no hashing of global ids, locking, or LRU
// bookkeeping anywhere on the hit path. That constant-factor difference
// is the tier's single-machine win: a binary search over a hub row walks
// ~15 cache-missing levels per probe; the index answers in one or two.
//
// Admission is first-touch until the byte budget fills (no eviction): a
// serving shard's working set is its hub rows, which power-law traffic
// touches immediately and forever, so churn-resistant admission beats
// recency tracking here. Once the budget fills, probes fall through to
// the packed search untouched, and rows cached for decode but not indexed
// are still answered by a binary search over contiguous memory.
//
// Local ids must fit in 31 bits (enforced transitively by the partition's
// int node counts), which keeps probe keys collision-free under the +1
// zero-avoidance shift.
type rowTable struct {
	slots   []atomic.Pointer[[]uint32]
	flags   []atomic.Uint32 // bit per local id: row fully probe-indexed
	set     edgeSet
	bytes   atomic.Int64 // decoded payload bytes admitted
	max     int64        // payload budget (set budget carved out separately)
	hits    atomic.Int64
	misses  atomic.Int64
	entries atomic.Int64
}

// newRowTable builds a table for n local rows under maxBytes: a quarter of
// the budget is carved out for the probe index up front, the rest admits
// decoded rows. Returns nil when maxBytes <= 0 — a nil *rowTable is the
// valid "caching disabled" value, matching query.NewRowCache's contract.
func newRowTable(n int, maxBytes int64) *rowTable {
	if maxBytes <= 0 {
		return nil
	}
	// Largest power of two at or below budget/4 bytes of 8-byte keys, with
	// a small floor so tiny test budgets still index something.
	capacity := int64(64)
	for capacity*2*8 <= maxBytes/4 {
		capacity *= 2
	}
	t := &rowTable{
		slots: make([]atomic.Pointer[[]uint32], n),
		flags: make([]atomic.Uint32, (n+31)/32),
		max:   maxBytes - capacity*8,
	}
	t.set.slots = make([]atomic.Uint64, capacity)
	t.set.mask = uint64(capacity - 1)
	// Linear probing needs slack to terminate quickly; cap fill at ~70%.
	t.set.maxUsed = capacity * 7 / 10
	return t
}

// row returns the decoded row for a local id, or nil when absent. It does
// NOT touch the hit/miss counters — the batch loops aggregate those
// locally and flush once per leg, keeping the per-probe cost to one
// atomic load.
//
//csr:hotpath
func (t *rowTable) row(local edgelist.NodeID) []uint32 {
	p := t.slots[local].Load()
	if p == nil {
		return nil
	}
	return *p
}

// indexed reports whether local's row is fully covered by the probe
// index. The flag bits pack 32 rows per word, so the whole check stays in
// a cache-resident bitmap even for multi-million-row shards.
//
//csr:hotpath
func (t *rowTable) indexed(local edgelist.NodeID) bool {
	return t.flags[local>>5].Load()&(1<<(local&31)) != 0
}

// setIndexed publishes local's flag bit. The CAS loop is the portable
// atomic-OR; contention is one admission per row, not per probe.
func (t *rowTable) setIndexed(local edgelist.NodeID) {
	f := &t.flags[local>>5]
	bit := uint32(1) << (local & 31)
	for {
		old := f.Load()
		if old&bit != 0 || f.CompareAndSwap(old, old|bit) {
			return
		}
	}
}

// contains answers an existence probe for an INDEXED row: present iff the
// key was inserted. Only valid when indexed(u) is true — an un-indexed
// row's edges are simply absent from the set.
//
//csr:hotpath
func (t *rowTable) contains(u, v edgelist.NodeID) bool {
	return t.set.contains(probeKey(u, v))
}

// full reports whether the payload budget is exhausted, so miss paths can
// skip decodes the table would refuse.
func (t *rowTable) full() bool { return t.bytes.Load() >= t.max }

// admit stores a decoded row for the Neighbors path, taking ownership:
// the caller must not modify row afterwards. Rows that would blow the
// budget are refused, and a concurrent admission of the same id wins
// benignly (the loser's decode is garbage-collected).
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

// index inserts every edge of local's row into the probe set and raises
// the indexed flag, if the set has room. Insertions happen before the
// flag store, so a reader that observes the flag observes every key. A
// racing double-index inserts idempotently (duplicate keys collapse);
// only the capacity reservation is pessimistically double-counted.
func (t *rowTable) index(local edgelist.NodeID, row []uint32) {
	if t.indexed(local) || !t.set.reserve(len(row)) {
		return
	}
	for _, v := range row {
		t.set.insert(probeKey(local, v))
	}
	t.setIndexed(local)
}

// account flushes a batch loop's locally-aggregated hit/miss counts.
func (t *rowTable) account(hits, misses int64) {
	if hits != 0 {
		t.hits.Add(hits)
	}
	if misses != 0 {
		t.misses.Add(misses)
	}
}

// Stats snapshots the table in the shape the serving stats endpoints
// already speak. Bytes and MaxB fold the probe index's fixed carve-out in
// so operators see the configured budget back.
func (t *rowTable) Stats() query.CacheStats {
	setBytes := int64(len(t.set.slots)) * 8
	return query.CacheStats{
		Hits:    t.hits.Load(),
		Misses:  t.misses.Load(),
		Entries: t.entries.Load(),
		Bytes:   t.bytes.Load() + setBytes,
		MaxB:    t.max + setBytes,
	}
}

// probeKey packs a probe into the set's key space. The +1 keeps a real
// (0,0) self-loop distinct from the empty slot; local ids < 2^31 ensure
// it never wraps to zero.
//
//csr:hotpath
func probeKey(u, v edgelist.NodeID) uint64 {
	return (uint64(u)<<32 | uint64(v)) + 1
}

// edgeSet is an insert-only lock-free open-addressing hash set of probe
// keys. Power-of-two capacity, linear probing, bounded at 70% load by
// reserve — so contains always terminates at an empty slot.
type edgeSet struct {
	slots   []atomic.Uint64
	mask    uint64
	used    atomic.Int64
	maxUsed int64
}

// hash spreads a key with the 64-bit Fibonacci multiplier; high bits feed
// the index so sequential v runs scatter.
//
//csr:hotpath
func (es *edgeSet) hash(k uint64) uint64 {
	return (k * 0x9E3779B97F4A7C15) >> 32 & es.mask
}

// reserve claims room for n keys, refusing past the load bound.
func (es *edgeSet) reserve(n int) bool {
	if es.used.Add(int64(n)) > es.maxUsed {
		es.used.Add(-int64(n))
		return false
	}
	return true
}

// insert adds k if absent. Concurrent inserts of the same key collapse to
// one slot; a lost CAS re-examines the same slot before moving on.
func (es *edgeSet) insert(k uint64) {
	i := es.hash(k)
	for {
		cur := es.slots[i].Load()
		if cur == k {
			return
		}
		if cur == 0 {
			if es.slots[i].CompareAndSwap(0, k) {
				return
			}
			continue // lost the slot; re-read it, it may now hold k
		}
		i = (i + 1) & es.mask
	}
}

// contains reports whether k was inserted.
//
//csr:hotpath
func (es *edgeSet) contains(k uint64) bool {
	i := es.hash(k)
	for {
		cur := es.slots[i].Load()
		if cur == k {
			return true
		}
		if cur == 0 {
			return false
		}
		i = (i + 1) & es.mask
	}
}

// tableSource fronts the shard's source with the row table for the
// NeighborsBatch path: hits return the shared decoded slice, misses
// decode once and admit (without touching the probe index — decode
// traffic should not consume existence-probe capacity). Like
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
