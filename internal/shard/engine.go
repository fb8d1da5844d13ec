package shard

import (
	"sync/atomic"

	"csrgraph/internal/edgelist"
	"csrgraph/internal/query"
)

// EngineConfig sizes one shard engine.
type EngineConfig struct {
	// CacheBytes is the per-engine decoded-row table budget for Neighbors,
	// 8 bytes per local row of slot array included (<= 0, or too small
	// for the array, disables). Each engine caches only its own shard's
	// rows, so one shard's hub traffic never displaces another shard's
	// working set. Existence probes search the packed rows and never use
	// it.
	CacheBytes int64
	// Procs is the intra-leg parallelism the engine hands the query
	// scheduler. The serving-tier default is 1: the router already runs
	// legs concurrently, and a leg executing inline on its dispatch
	// goroutine avoids a second layer of pool scheduling.
	Procs int
}

func (c EngineConfig) withDefaults() EngineConfig {
	if c.Procs < 1 {
		c.Procs = 1
	}
	return c
}

// Engine answers queries for one shard replica: the shard's packed rows
// (local ids, global neighbor values), its own byte-budgeted decoded-row
// table for Neighbors, and an in-flight counter the router's least-loaded
// replica pick reads. All methods take LOCAL row ids — the router owns the
// global↔local translation — and are safe for concurrent use.
type Engine struct {
	shard, replica int
	src            query.Source // local rows, global cols
	rows           query.Source // src with its degree hint, fronted by the row table for decodes
	tab            *rowTable
	procs          int
	inflight       atomic.Int64
}

// hintedSource decorates a shard's source with the precomputed
// average-degree estimate (query.AvgDegreeHinter), so every Neighbors
// leg's grain sizing reads a field instead of re-probing the shard.
type hintedSource struct {
	src query.Source
	avg int
}

func (h *hintedSource) NumNodes() int                { return h.src.NumNodes() }
func (h *hintedSource) Degree(u edgelist.NodeID) int { return h.src.Degree(u) }
func (h *hintedSource) AvgDegreeHint() int           { return h.avg }
func (h *hintedSource) Row(dst []uint32, u edgelist.NodeID) []uint32 {
	return h.src.Row(dst, u)
}

// NewEngine builds one replica engine for shard s over src (local rows,
// global neighbor ids).
func NewEngine(shardID, replica int, src query.Source, cfg EngineConfig) *Engine {
	cfg = cfg.withDefaults()
	h := hintedSource{src: src}
	if ec, ok := src.(interface{ NumEdges() int }); ok && src.NumNodes() > 0 {
		h.avg = ec.NumEdges()/src.NumNodes() + 1
	}
	e := &Engine{
		shard:   shardID,
		replica: replica,
		src:     src,
		rows:    &h,
		tab:     newRowTable(src.NumNodes(), cfg.CacheBytes),
		procs:   cfg.Procs,
	}
	if e.tab != nil {
		e.rows = &tableSource{hintedSource: h, tab: e.tab}
	}
	return e
}

// NewReplicas builds n replica engines for shard s sharing one immutable
// source (in-process replicas share the packed arrays — or the mmap'd
// pages — but keep separate caches and in-flight accounting, which is the
// isolation that matters for serving).
func NewReplicas(shardID, n int, src query.Source, cfg EngineConfig) []*Engine {
	if n < 1 {
		n = 1
	}
	out := make([]*Engine, n)
	for r := range out {
		out[r] = NewEngine(shardID, r, src, cfg)
	}
	return out
}

// Shard returns the shard id this engine replicates.
func (e *Engine) Shard() int { return e.shard }

// Replica returns the replica index within the shard.
func (e *Engine) Replica() int { return e.replica }

// NumNodes returns the shard's local row count.
func (e *Engine) NumNodes() int { return e.src.NumNodes() }

// Inflight returns the number of legs currently executing on this replica
// — the load signal the router's least-loaded pick compares.
func (e *Engine) Inflight() int64 { return e.inflight.Load() }

// CacheStats snapshots this replica's row-table counters (zero when the
// table is disabled).
func (e *Engine) CacheStats() query.CacheStats {
	st, _ := e.TryCacheStats()
	return st
}

// TryCacheStats is CacheStats plus whether a row table is configured at
// all, for stats endpoints that should omit rather than zero-fill.
func (e *Engine) TryCacheStats() (query.CacheStats, bool) {
	if e.tab == nil {
		return query.CacheStats{}, false
	}
	return e.tab.Stats(), true
}

// Source returns the shard's rows as the engine was built over them, for
// stats endpoints that read optional methods such as NumEdges or
// SizeBytes.
func (e *Engine) Source() query.Source { return e.src }

// Neighbors answers a batch of row decodes for local ids. With a row table
// the rows are the table's own (query.StableRower): shared, read-only.
func (e *Engine) Neighbors(locals []edgelist.NodeID) [][]uint32 {
	return query.NeighborsBatch(e.rows, locals, e.procs)
}

// Degrees answers a batch of degree lookups for local ids.
func (e *Engine) Degrees(locals []edgelist.NodeID) []int {
	return query.CountBatch(e.src, locals, e.procs)
}

// EdgesExist answers a batch of existence probes; U is a local row id, V a
// global neighbor id (rows store global values, so no translation). Every
// probe searches the shard's packed rows in place (csr.Packed.SearchBatch
// behind query.Searcher): existence decodes nothing and never admits a row
// to the table, which holds rows for Neighbors only.
func (e *Engine) EdgesExist(edges []edgelist.Edge) []bool {
	return query.EdgesExistBatchSearch(e.src, edges, e.procs)
}

// Row decodes one local row (BFS expansion path); dst is grown as needed.
func (e *Engine) Row(dst []uint32, local edgelist.NodeID) []uint32 {
	return e.src.Row(dst, local)
}

// enter/leave bracket a leg execution for the load signal.
func (e *Engine) enter() { e.inflight.Add(1) }
func (e *Engine) leave() { e.inflight.Add(-1) }
