// Package shard implements the serving tier: a partitioner that cuts one
// graph into K independent vertex shards, per-shard query engines (each
// with its own packed CSR, decoded-row table for Neighbors, and
// admission-bounded concurrency), and a stateless scatter-gather router
// that splits batch requests by shard ownership, fans them out with bounded
// in-flight per shard, and merges results as they arrive while preserving
// input order. A one-shard router over a whole graph is how the plain
// server serves it.
//
// The design lifts the PR-3 dynamic-grain scheduling ideas one level up:
// within a shard, batches are still work-stealing scheduled over the packed
// rows; across shards, the router schedules legs (bounded sub-batches)
// instead of indices. Shards are plain mgraph containers, so they mmap
// independently, reload gracefully, and share pages across replicas.
//
// Ownership model: shard s owns a set of global vertex ids; its CSR stores
// only the owned rows, relabeled to dense local ids, while neighbor ids
// stay GLOBAL. Existence probes and row decodes therefore need no reverse
// translation on the way out — a decoded row is already in global id space
// — and the per-round BFS exchange routes discovered global ids straight
// to their owners.
package shard

import (
	"fmt"
	"sort"

	"csrgraph/internal/edgelist"
)

// Strategy names how global vertex ids map to shards.
type Strategy uint8

const (
	// StrategyRange assigns contiguous vertex ranges [bounds[s], bounds[s+1])
	// to shard s. Combined with an edge-balanced cut (CutByEdges) and an
	// internal/order relabeling, ranges keep each shard's rows contiguous in
	// the source graph — splits are near-zero-copy and probes grouped by
	// shard touch one compact region.
	StrategyRange Strategy = iota
	// StrategyMod assigns vertex u to shard u % K with local id u / K — a
	// hash-style cut that balances vertices (not edges) with O(1) math and
	// no boundary table. Useful when ids are already randomly assigned.
	StrategyMod
)

// String names the strategy as manifests spell it.
func (s Strategy) String() string {
	switch s {
	case StrategyRange:
		return "range"
	case StrategyMod:
		return "mod"
	}
	return fmt.Sprintf("Strategy(%d)", uint8(s))
}

// ParseStrategy inverts String.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "range":
		return StrategyRange, nil
	case "mod":
		return StrategyMod, nil
	}
	return 0, fmt.Errorf("shard: unknown strategy %q (range, mod)", s)
}

// Partition maps the global vertex space [0, n) onto k shards. It is
// immutable and safe for concurrent use; ShardOf/ToLocal are the ownership
// lookups on the router's split path.
type Partition struct {
	strategy Strategy
	n        int
	k        int
	bounds   []uint32 // range strategy: k+1 ascending cut points, [0 .. n]
}

// NumShards returns k.
func (p *Partition) NumShards() int { return p.k }

// NumNodes returns the global vertex count.
func (p *Partition) NumNodes() int { return p.n }

// Strategy returns the id→shard mapping family.
func (p *Partition) Strategy() Strategy { return p.strategy }

// Mod builds the u%k partition of n vertices.
func Mod(n, k int) (*Partition, error) {
	if n < 0 || k < 1 {
		return nil, fmt.Errorf("shard: invalid mod partition n=%d k=%d", n, k)
	}
	return &Partition{strategy: StrategyMod, n: n, k: k}, nil
}

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
	return &Partition{
		strategy: StrategyRange,
		n:        int(b[len(b)-1]),
		k:        len(b) - 1,
		bounds:   b,
	}, nil
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
	if p.strategy == StrategyMod {
		return int(u) % p.k
	}
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
	if p.strategy == StrategyMod {
		return int(u) % p.k, u / uint32(p.k)
	}
	s := p.ShardOf(u)
	return s, u - p.bounds[s]
}

// localIn returns u's local row id given its owning shard s — the
// second half of ToLocal for callers that already resolved the shard
// (the router's grouping passes compute ShardOf once and reuse it).
//
//csr:hotpath
func (p *Partition) localIn(s int, u edgelist.NodeID) edgelist.NodeID {
	if p.strategy == StrategyMod {
		return u / uint32(p.k)
	}
	return u - p.bounds[s]
}

// ToGlobal inverts ToLocal for shard s.
func (p *Partition) ToGlobal(s int, local edgelist.NodeID) edgelist.NodeID {
	if p.strategy == StrategyMod {
		return local*uint32(p.k) + uint32(s)
	}
	return p.bounds[s] + local
}

// ShardNodes returns the number of vertices shard s owns.
func (p *Partition) ShardNodes(s int) int {
	if p.strategy == StrategyMod {
		// Vertices s, s+k, s+2k, ... below n.
		if s >= p.n {
			return 0
		}
		return (p.n - s + p.k - 1) / p.k
	}
	return int(p.bounds[s+1] - p.bounds[s])
}

// Bounds returns shard s's owned range [lo, hi) for the range strategy;
// for mod partitions it returns (s, n) — the stride description — and
// callers should branch on Strategy before interpreting it.
func (p *Partition) Bounds(s int) (lo, hi edgelist.NodeID) {
	if p.strategy == StrategyMod {
		return uint32(s), uint32(p.n)
	}
	return p.bounds[s], p.bounds[s+1]
}
