package query

import (
	"runtime"
	"sync"
	"sync/atomic"

	"csrgraph/internal/edgelist"
)

// RowCache is a sharded, byte-budgeted LRU of decoded neighbor rows keyed
// by node id, fronting the decode cost of compressed rows for repeated hub
// lookups (power-law traffic concentrates on few nodes, exactly the rows
// that are most expensive to decode). Shard count is a power of two;
// each shard has its own mutex and LRU list, so concurrent batch workers
// only contend when they touch the same shard. Cached rows are immutable:
// a slice handed out by Get stays valid and constant forever, even after
// eviction, which is what lets hits be returned without copying.
//
// All methods are safe for concurrent use.
type RowCache struct {
	shards []cacheShard
	mask   uint32
}

// cacheEntryOverhead approximates the per-entry bookkeeping bytes (entry
// struct, map bucket share) charged against the byte budget on top of the
// row payload, so caches full of tiny rows do not blow past their
// configured size.
const cacheEntryOverhead = 64

type cacheShard struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	entries  map[edgelist.NodeID]*cacheEntry
	// Intrusive LRU list: head is most recent, tail least.
	head, tail *cacheEntry
	hits       atomic.Int64
	misses     atomic.Int64
}

type cacheEntry struct {
	key        edgelist.NodeID
	row        []uint32
	prev, next *cacheEntry
}

// CacheStats is a point-in-time snapshot of cache effectiveness, exposed
// by csrserver's stats endpoint.
type CacheStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int64 `json:"entries"`
	Bytes   int64 `json:"bytes"`
	MaxB    int64 `json:"max_bytes"`
}

// NewRowCache builds a cache bounded by maxBytes across all shards, with a
// shard count derived from GOMAXPROCS (rounded up to a power of two, at
// most 256). Returns nil when maxBytes <= 0 — a nil *RowCache is a valid
// "caching disabled" value for Cached.
func NewRowCache(maxBytes int64) *RowCache {
	return NewRowCacheShards(maxBytes, 0)
}

// NewRowCacheShards is NewRowCache with an explicit shard count, rounded
// up to a power of two; shards <= 0 picks the default.
func NewRowCacheShards(maxBytes int64, shards int) *RowCache {
	if maxBytes <= 0 {
		return nil
	}
	if shards <= 0 {
		shards = 4 * runtime.GOMAXPROCS(0)
		if shards > 256 {
			shards = 256
		}
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	perShard := maxBytes / int64(n)
	if perShard < 1 {
		perShard = 1
	}
	c := &RowCache{shards: make([]cacheShard, n), mask: uint32(n - 1)}
	for i := range c.shards {
		c.shards[i].maxBytes = perShard
		c.shards[i].entries = make(map[edgelist.NodeID]*cacheEntry)
	}
	return c
}

// shard maps a node id to its shard with a Fibonacci hash, so hub ids that
// happen to be numerically adjacent (degree-ordered graphs) still spread
// across shards.
func (c *RowCache) shard(u edgelist.NodeID) *cacheShard {
	return &c.shards[(u*2654435761)>>16&c.mask]
}

// Get returns the cached row for u. The returned slice is shared and
// immutable: callers must not modify it, and it remains valid after
// eviction.
func (c *RowCache) Get(u edgelist.NodeID) ([]uint32, bool) {
	s := c.shard(u)
	s.mu.Lock()
	e, ok := s.entries[u]
	if !ok {
		s.mu.Unlock()
		s.misses.Add(1)
		return nil, false
	}
	s.moveToFront(e)
	row := e.row
	s.mu.Unlock()
	s.hits.Add(1)
	return row, true
}

// Put caches row for u, taking ownership: the caller must not modify row
// afterwards. Rows whose charged size exceeds the shard budget are not
// cached (a hub row larger than the cache passes through untouched), and
// an existing entry for u wins over the new row (concurrent fillers race
// benignly). Least-recently-used entries are evicted until the shard fits
// its budget.
func (c *RowCache) Put(u edgelist.NodeID, row []uint32) {
	size := int64(len(row))*4 + cacheEntryOverhead
	s := c.shard(u)
	if size > s.maxBytes {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[u]; ok {
		return
	}
	for s.bytes+size > s.maxBytes && s.tail != nil {
		s.evict(s.tail)
	}
	e := &cacheEntry{key: u, row: row}
	s.entries[u] = e
	s.bytes += size
	s.pushFront(e)
}

// Stats sums the per-shard counters.
func (c *RowCache) Stats() CacheStats {
	var st CacheStats
	if c == nil {
		return st
	}
	for i := range c.shards {
		s := &c.shards[i]
		st.Hits += s.hits.Load()
		st.Misses += s.misses.Load()
		st.MaxB += s.maxBytes
		s.mu.Lock()
		st.Entries += int64(len(s.entries))
		st.Bytes += s.bytes
		s.mu.Unlock()
	}
	return st
}

// pushFront links e as the most-recently-used entry. Callers hold mu.
func (s *cacheShard) pushFront(e *cacheEntry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

// moveToFront bumps e to most-recently-used. Callers hold mu.
func (s *cacheShard) moveToFront(e *cacheEntry) {
	if s.head == e {
		return
	}
	// Unlink.
	e.prev.next = e.next
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	s.pushFront(e)
}

// evict unlinks e and releases its budget. Callers hold mu.
func (s *cacheShard) evict(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
	delete(s.entries, e.key)
	s.bytes -= int64(len(e.row))*4 + cacheEntryOverhead
}

// CachedSource fronts a Source's Row with a RowCache. Row NEVER writes
// through the caller's dst (hits return the shared cached slice, misses
// decode into a fresh allocation that becomes the cache entry), so callers
// that recycle returned rows as dst — the batch loops do — can never
// corrupt cached memory.
type CachedSource struct {
	src   Source
	cache *RowCache
	avg   int // average degree, precomputed once for dynamicGrain
}

// Cached wraps src with cache. A nil cache returns src unchanged, so
// "cache disabled" costs nothing. The wrapper precomputes the source's
// average degree at wrap time, so batch grain sizing over the wrapper never
// re-probes the underlying graph (AvgDegreeHinter).
func Cached(src Source, cache *RowCache) Source {
	if cache == nil {
		return src
	}
	return &CachedSource{src: src, cache: cache, avg: avgDegreeOf(src)}
}

// NumNodes returns the number of nodes.
func (cs *CachedSource) NumNodes() int { return cs.src.NumNodes() }

// Degree returns the out-degree of u (not cached; degree reads are O(1) on
// every source worth caching).
func (cs *CachedSource) Degree(u edgelist.NodeID) int { return cs.src.Degree(u) }

// NumEdges exposes the underlying edge count when available, so the
// degree-aware grain heuristic sees through the wrapper.
func (cs *CachedSource) NumEdges() int {
	if ec, ok := cs.src.(interface{ NumEdges() int }); ok {
		return ec.NumEdges()
	}
	return 0
}

// AvgDegreeHint returns the average degree captured at wrap time
// (AvgDegreeHinter), so grain sizing skips the per-call probe.
func (cs *CachedSource) AvgDegreeHint() int { return cs.avg }

// Row returns u's row, serving repeated lookups from the cache. dst is
// ignored (like csr.Matrix.Row): the returned slice is shared, immutable,
// and must be treated read-only.
func (cs *CachedSource) Row(dst []uint32, u edgelist.NodeID) []uint32 {
	if row, ok := cs.cache.Get(u); ok {
		return row
	}
	row := cs.src.Row(nil, u)
	cs.cache.Put(u, row)
	return row
}

// SearchRow answers an existence probe, bypassing the cache when the
// underlying source searches rows in place (packed/plain/delta CSR all
// do); otherwise it binary-searches the (cached) decoded row.
func (cs *CachedSource) SearchRow(u, v edgelist.NodeID) bool {
	if s, ok := cs.src.(Searcher); ok {
		return s.SearchRow(u, v)
	}
	return SearchSorted(cs.Row(nil, u), v)
}

// SearchBatch answers a run of existence probes: one forward when the
// underlying source searches rows in place, otherwise a binary search of
// each probe's (cached) decoded row, as SearchRow does.
func (cs *CachedSource) SearchBatch(edges []edgelist.Edge, out []bool) {
	if s, ok := cs.src.(Searcher); ok {
		s.SearchBatch(edges, out)
		return
	}
	out = out[:len(edges)]
	for i, e := range edges {
		out[i] = SearchSorted(cs.Row(nil, e.U), e.V)
	}
}

// Stats reports the wrapped cache's counters.
func (cs *CachedSource) Stats() CacheStats { return cs.cache.Stats() }

// SearchSorted binary-searches a sorted decoded row for v with the halving
// loop: the answer stays in [base, base+n] and the trip count depends only
// on len(row). The conditional advance is written as a data move, but Go
// 1.24 compiles it to a branch, not a conditional select; the packed
// search (bitpack.Packed.LowerBound) uses a sign mask instead.
//
//csr:hotpath
func SearchSorted(row []uint32, v edgelist.NodeID) bool {
	base, n := 0, len(row)
	for n > 1 {
		half := n >> 1
		if row[base+half-1] < v {
			base += half
		}
		n -= half
	}
	return n == 1 && row[base] == v
}
