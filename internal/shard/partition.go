// Package shard implements the serving tier: an edge-balanced range cut of
// one graph into K independent vertex shards, written offline as one
// container per shard plus a manifest (csrconvert -partition); per-shard
// query engines, each with its own packed CSR, decoded-row table for
// Neighbors, and admission-bounded concurrency; and a stateless
// scatter-gather router that splits batch requests by shard ownership,
// fans them out with bounded in-flight per shard, and merges results as
// they arrive while preserving input order. A one-shard router over a
// whole graph is how the plain server serves it.
//
// The design lifts the PR-3 dynamic-grain scheduling ideas one level up:
// within a shard, batches are still work-stealing scheduled over the packed
// rows; across shards, the router schedules legs (bounded sub-batches)
// instead of indices. Shards are plain mgraph containers, so they mmap
// independently, reload gracefully, and share pages across replicas.
//
// Ownership model: shard s owns a contiguous range of global vertex ids;
// its CSR stores only the owned rows, relabeled to dense local ids, while
// neighbor ids stay GLOBAL. Existence probes and row decodes therefore need
// no reverse translation on the way out — a decoded row is already in
// global id space — and one replica per shard, read through ToLocal, is the
// whole graph, which BFS traverses as one.
package shard

import (
	"fmt"
	"sort"

	"csrgraph/internal/edgelist"
)

// Partition maps the global vertex space [0, n) onto k shards as
// contiguous ranges: shard s owns [bounds[s], bounds[s+1]), so its rows
// are contiguous in the source graph and a probe's local id is one
// subtraction. It is immutable and safe for concurrent use;
// ShardOf/ToLocal are the ownership lookups on the router's split path.
type Partition struct {
	n      int
	k      int
	bounds []uint32 // k+1 ascending cut points, [0 .. n]
}

// NumShards returns k.
func (p *Partition) NumShards() int { return p.k }

// NumNodes returns the global vertex count.
func (p *Partition) NumNodes() int { return p.n }

// Range builds a partition from explicit cut points: shard s owns
// [bounds[s], bounds[s+1]). bounds must be ascending, start at 0, and end
// at the vertex count. Empty shards (equal adjacent bounds) are legal —
// the router just never routes to them.
func Range(bounds []uint32) (*Partition, error) {
	if len(bounds) < 2 || bounds[0] != 0 {
		return nil, fmt.Errorf("shard: range partition needs ascending bounds starting at 0, got %v", bounds)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] < bounds[i-1] {
			return nil, fmt.Errorf("shard: bounds not ascending at %d: %v", i, bounds)
		}
	}
	b := make([]uint32, len(bounds))
	copy(b, bounds)
	return &Partition{n: int(b[len(b)-1]), k: len(b) - 1, bounds: b}, nil
}

// CutByEdges cuts the vertex space into k ranges balancing EDGES per shard,
// not vertices: cut point s is the first vertex whose row offset reaches
// s*m/k. Under power-law degree skew a vertex-balanced cut concentrates the
// hub rows (and so nearly all traffic) in one shard; the edge-balanced cut
// gives every shard roughly m/k neighbor entries. rowOffsets is the CSR iA
// array (len n+1, monotone, rowOffsets[n] == m) — pair with an
// internal/order relabeling first to also make each range's rows compact.
func CutByEdges(rowOffsets []uint32, k int) (*Partition, error) {
	if len(rowOffsets) == 0 {
		return nil, fmt.Errorf("shard: empty offsets")
	}
	if k < 1 {
		return nil, fmt.Errorf("shard: invalid shard count %d", k)
	}
	n := len(rowOffsets) - 1
	m := uint64(rowOffsets[n])
	bounds := make([]uint32, k+1)
	bounds[k] = uint32(n)
	for s := 1; s < k; s++ {
		target := uint32(m * uint64(s) / uint64(k))
		// First vertex whose row starts at or past the target; rows are
		// never split across shards.
		v := sort.Search(n, func(v int) bool { return rowOffsets[v] >= target })
		bounds[s] = uint32(v)
	}
	// A pathological cut (one vertex holding most edges) can produce
	// non-ascending bounds from the independent searches; clamp monotone.
	for s := 1; s <= k; s++ {
		if bounds[s] < bounds[s-1] {
			bounds[s] = bounds[s-1]
		}
	}
	return Range(bounds)
}

// ShardOf returns the shard owning global vertex u. u must be in [0, n).
//
//csr:hotpath
func (p *Partition) ShardOf(u edgelist.NodeID) int {
	if p.k <= 16 && p.n < 1<<31 {
		// Serving-tier K: count the interior cut points at or below u with
		// no data-dependent branches — the bounds live in one or two
		// L1-resident cache lines and the sign bit of the uint32
		// subtraction (valid while ids fit in 31 bits) decides each term,
		// so random probe ids never pay a branch mispredict per level.
		s := 0
		for _, b := range p.bounds[1:p.k] {
			s += int(((u - b) >> 31) ^ 1)
		}
		return s
	}
	lo, hi := 0, p.k-1
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		if p.bounds[mid] <= u {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// ToLocal maps a global vertex id to (owning shard, local row id).
//
//csr:hotpath
func (p *Partition) ToLocal(u edgelist.NodeID) (int, edgelist.NodeID) {
	s := p.ShardOf(u)
	return s, u - p.bounds[s]
}

// localIn returns u's local row id given its owning shard s — the
// second half of ToLocal for callers that already resolved the shard
// (the router's grouping passes compute ShardOf once and reuse it).
//
//csr:hotpath
func (p *Partition) localIn(s int, u edgelist.NodeID) edgelist.NodeID {
	return u - p.bounds[s]
}

// ShardNodes returns the number of vertices shard s owns.
func (p *Partition) ShardNodes(s int) int {
	return int(p.bounds[s+1] - p.bounds[s])
}

// Bounds returns shard s's owned range [lo, hi).
func (p *Partition) Bounds(s int) (lo, hi edgelist.NodeID) {
	return p.bounds[s], p.bounds[s+1]
}
