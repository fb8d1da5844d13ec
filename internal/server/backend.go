// Backend seam between the HTTP handlers and the query engines: the same
// routes serve one in-process engine (New) or the sharded scatter-gather
// tier (NewSharded). Handlers parse and validate; backends answer.
package server

import (
	"fmt"
	"io"

	"csrgraph/internal/algo"
	"csrgraph/internal/edgelist"
	"csrgraph/internal/frontier"
	"csrgraph/internal/query"
	"csrgraph/internal/shard"
	"csrgraph/internal/trace"
)

// backend answers the query endpoints over one immutable graph. The tr
// parameter is the request's live trace — nil on untraced requests, which
// is the common case and costs each stamping site one pointer compare.
type backend interface {
	numNodes() int
	neighbors(ids []edgelist.NodeID, tr *trace.Trace) ([][]uint32, error)
	degrees(ids []edgelist.NodeID, tr *trace.Trace) ([]int, error)
	edgesExist(edges []edgelist.Edge, tr *trace.Trace) ([]bool, error)
	bfs(src edgelist.NodeID, tr *trace.Trace) (bfsTraversal, error)
	// statsInto adds backend-specific fields to the /stats payload.
	statsInto(out map[string]any)
	// healthInto adds backend-specific readiness fields to /healthz.
	healthInto(out map[string]any)
	// metricsInto appends backend-specific exposition lines to /metrics.
	metricsInto(w io.Writer)
}

// bfsTraversal is one BFS answer plus its round accounting. The sparse and
// dense counts only exist for the frontier-switching engine; the sharded
// traversal is expansion-only (hasPhases false).
type bfsTraversal struct {
	dist      []int32
	rounds    int
	sparse    int
	dense     int
	hasPhases bool
}

// singleBackend serves from one in-process engine: the pre-sharding data
// path. The hot-row cache fronts /neighbors only; existence probes search
// the rows in place.
type singleBackend struct {
	g     query.Source // raw source: BFS, degrees, existence probes
	rows  query.Source // g, fronted by the hot-row cache for /neighbors
	cache *query.RowCache
	procs int
}

func newSingleBackend(g query.Source, cacheBytes int64, procs int) *singleBackend {
	b := &singleBackend{g: g, cache: query.NewRowCache(cacheBytes), procs: procs}
	b.rows = query.Cached(g, b.cache)
	return b
}

func (b *singleBackend) numNodes() int { return b.g.NumNodes() }

func (b *singleBackend) neighbors(ids []edgelist.NodeID, tr *trace.Trace) ([][]uint32, error) {
	return query.NeighborsBatchTraced(b.rows, ids, b.procs, tr), nil
}

func (b *singleBackend) degrees(ids []edgelist.NodeID, tr *trace.Trace) ([]int, error) {
	return query.CountBatchTraced(b.g, ids, b.procs, tr), nil
}

func (b *singleBackend) edgesExist(edges []edgelist.Edge, tr *trace.Trace) ([]bool, error) {
	return query.EdgesExistBatchSearchTraced(b.g, edges, b.procs, tr), nil
}

func (b *singleBackend) bfs(src edgelist.NodeID, tr *trace.Trace) (bfsTraversal, error) {
	x := tr.Now()
	dist, st := algo.BFSFrontierStats(b.g, nil, src, frontier.DefaultPolicy(), b.procs)
	tr.Span(trace.StageExec, st.Rounds, x)
	return bfsTraversal{
		dist: dist, rounds: st.Rounds,
		sparse: st.SparseRounds, dense: st.DenseRounds, hasPhases: true,
	}, nil
}

// healthInto: a single in-process engine is ready by construction (the
// graph loaded before the handler existed).
func (b *singleBackend) healthInto(out map[string]any) {
	out["backend"] = "single"
}

func (b *singleBackend) statsInto(out map[string]any) {
	if ec, ok := b.g.(interface{ NumEdges() int }); ok {
		out["edges"] = ec.NumEdges()
	}
	if sz, ok := b.g.(interface{ SizeBytes() int64 }); ok {
		// For a packed CSR this is the bit-packed payload footprint —
		// Table II's "CSR" column for the graph being served.
		out["size_bytes"] = sz.SizeBytes()
	}
	if b.cache != nil {
		out["cache"] = b.cache.Stats()
	}
}

func (b *singleBackend) metricsInto(w io.Writer) {
	if b.cache != nil {
		writeCacheMetrics(w, b.cache.Stats())
	}
}

// shardBackend serves through the scatter-gather router. Batch validation
// happens twice by design — the handler rejects early with a proper 400,
// and the router revalidates because it is also a library entry point.
type shardBackend struct {
	rt *shard.Router
}

func (b *shardBackend) numNodes() int { return b.rt.Partition().NumNodes() }

func (b *shardBackend) neighbors(ids []edgelist.NodeID, tr *trace.Trace) ([][]uint32, error) {
	return b.rt.NeighborsBatchTraced(ids, tr)
}

func (b *shardBackend) degrees(ids []edgelist.NodeID, tr *trace.Trace) ([]int, error) {
	return b.rt.DegreeBatchTraced(ids, tr)
}

func (b *shardBackend) edgesExist(edges []edgelist.Edge, tr *trace.Trace) ([]bool, error) {
	return b.rt.EdgesExistBatchTraced(edges, tr)
}

func (b *shardBackend) bfs(src edgelist.NodeID, tr *trace.Trace) (bfsTraversal, error) {
	dist, rounds, err := b.rt.BFSTraced(src, tr)
	if err != nil {
		return bfsTraversal{}, err
	}
	return bfsTraversal{dist: dist, rounds: rounds}, nil
}

// healthInto reports per-shard readiness: replica count, whether the shard
// payloads' checksums were verified at load, the live queue depth, and the
// queue-depth high-watermark since start — the shard-level signal for "is
// one shard quietly drowning".
func (b *shardBackend) healthInto(out map[string]any) {
	out["backend"] = "sharded"
	out["verified"] = b.rt.Verified()
	shards := make([]map[string]any, b.rt.NumShards())
	for s := range shards {
		replicas := b.rt.Replicas(s)
		shards[s] = map[string]any{
			"shard":           s,
			"ready":           len(replicas) > 0,
			"verified":        b.rt.Verified(),
			"replicas":        len(replicas),
			"queue_depth":     b.rt.QueueDepth(s),
			"queue_depth_max": b.rt.QueueDepthMax(s),
		}
	}
	out["shards"] = shards
}

// statsInto reports the shard topology: per shard, the owned range and
// per-replica row-cache counters, so operators see which shard's cache is
// absorbing the hub traffic instead of one process-wide aggregate.
func (b *shardBackend) statsInto(out map[string]any) {
	part := b.rt.Partition()
	out["strategy"] = part.Strategy().String()
	out["shards"] = b.topology()
	edges := 0
	for s := 0; s < b.rt.NumShards(); s++ {
		for _, e := range b.rt.Replicas(s)[:1] {
			if ec, ok := e.SourceEdges(); ok {
				edges += ec
			}
		}
	}
	if edges > 0 {
		out["edges"] = edges
	}
}

func (b *shardBackend) topology() []map[string]any {
	part := b.rt.Partition()
	shards := make([]map[string]any, b.rt.NumShards())
	for s := range shards {
		lo, hi := part.Bounds(s)
		replicas := b.rt.Replicas(s)
		reps := make([]map[string]any, len(replicas))
		for r, e := range replicas {
			rep := map[string]any{"inflight": e.Inflight()}
			if st, ok := e.TryCacheStats(); ok {
				rep["cache"] = st
			}
			reps[r] = rep
		}
		shards[s] = map[string]any{
			"shard":       s,
			"lo":          lo,
			"hi":          hi,
			"nodes":       part.ShardNodes(s),
			"queue_depth": b.rt.QueueDepth(s),
			"replicas":    reps,
		}
	}
	return shards
}

// metricsInto emits per-shard, per-replica row-cache series with shard and
// replica labels — the sharded analogue of writeCacheMetrics.
func (b *shardBackend) metricsInto(w io.Writer) {
	for s := 0; s < b.rt.NumShards(); s++ {
		for _, e := range b.rt.Replicas(s) {
			st, ok := e.TryCacheStats()
			if !ok {
				continue
			}
			writeShardCacheMetrics(w, s, e.Replica(), st)
		}
	}
}

// writeShardCacheMetrics is writeCacheMetrics with shard/replica labels.
func writeShardCacheMetrics(w io.Writer, s, r int, st query.CacheStats) {
	lbl := fmt.Sprintf(`{shard="%d",replica="%d"}`, s, r)
	_, _ = fmt.Fprintf(w, //csr:errok best-effort exposition; client disconnect mid-scrape is benign
		"csrgraph_rowcache_hits_total%s %d\ncsrgraph_rowcache_misses_total%s %d\ncsrgraph_rowcache_entries%s %d\ncsrgraph_rowcache_bytes%s %d\n",
		lbl, st.Hits, lbl, st.Misses, lbl, st.Entries, lbl, st.Bytes)
}
