// Package server exposes a compressed graph over HTTP — the "social
// network with millions of users querying at once" scenario of Section V.
// Incoming query batches are answered with the parallel querying
// algorithms; responses are JSON. New serves one static graph as a
// one-shard scatter-gather router (internal/shard), NewSharded a router the
// caller built, and NewTemporal a time-evolving TCSR (Section IV); all
// three build the same Handler. Each shard engine's decoded-row table
// (WithRowCache for New) serves /neighbors rows; /exists always searches
// the packed rows in place.
//
// Endpoints:
//
//	GET /healthz, /stats               liveness and graph metadata
//	GET /neighbors?nodes=1,2,3         static: Algorithm 6 batch
//	GET /degree?nodes=1,2,3            static: degree batch
//	GET /exists?edges=1:2,3:4          static: Algorithm 7 batch
//	GET /bfs?src=7                     static: hop distances from src
//	GET /analytics/bfs?src=7&src=9,12  static: batched BFS with per-traversal round stats
//	GET /active?queries=u:v:t,...      temporal: batched activity queries
//	GET /neighbors?node=u&frame=t      temporal: active neighbors of u at frame t
//	GET /bfs?src=u&frame=t             temporal: hop distances over the frame's active edges
//	GET /metrics                       Prometheus exposition (WithMetrics)
//	GET /debug/pprof/...               profiling (WithPprof)
//	GET /debug/traces[/summary]        retained request traces (WithTracing)
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"time"

	"csrgraph/internal/algo"
	"csrgraph/internal/edgelist"
	"csrgraph/internal/obs"
	"csrgraph/internal/query"
	"csrgraph/internal/shard"
	"csrgraph/internal/tcsr"
	"csrgraph/internal/trace"
)

// maxBatch bounds one request's query count to keep a single request from
// monopolizing the process.
const maxBatch = 100_000

// maxReplyNeighbors bounds one /neighbors answer. maxBatch bounds the ids
// asked for, not the rows they name: a batch that repeats a hub can ask for
// gigabytes. The response buffer is reserved at neighborMax bytes per
// neighbour before encoding, so this keeps the reservation at 22 MB; a
// larger answer is refused before any of it is reserved.
const maxReplyNeighbors = 2_000_000

// maxBFSNodes bounds the graph size for the BFS endpoint, whose response
// is O(nodes).
const maxBFSNodes = 50_000_000

// maxBFSSources bounds one /analytics/bfs request's source count: each
// source is a full traversal with an O(nodes) distance array in the
// response.
const maxBFSSources = 64

// Per-request frontier analytics series: how many sources a batched BFS
// request carries, and how many frontier rounds one traversal takes.
var (
	bfsSources = obs.GetHistogram("csrgraph_http_bfs_sources")
	bfsRounds  = obs.GetHistogram("csrgraph_http_bfs_rounds")
)

// Handler serves queries over one immutable graph: a static graph through
// the scatter-gather router, or a temporal one. Batch validation happens
// twice by design: the handler rejects early with a proper 400, and the
// router revalidates because it is also a library entry point.
type Handler struct {
	rt      *shard.Router // nil for a temporal graph
	pt      *tcsr.Packed  // nil for a static graph
	queries grammar[tcsr.ActivityQuery]
	procs   int
	mux     *http.ServeMux
	o       *httpObs
}

// New builds a Handler answering from g with the given parallelism, through
// a one-shard router over g itself (no copy): one engine with procs-way
// batches and the WithRowCache budget for its /neighbors row table. See
// WithRowCache, WithMetrics, WithPprof, and WithAccessLog for the options.
func New(g query.Source, procs int, opts ...Option) *Handler {
	if procs < 1 {
		procs = 1
	}
	cfg := newConfig(opts)
	part, err := shard.Range([]uint32{0, uint32(g.NumNodes())})
	if err != nil {
		panic(err) // one ascending range from 0 is always a valid partition
	}
	e := shard.NewEngine(0, 0, g, shard.EngineConfig{CacheBytes: cfg.cacheBytes, Procs: procs})
	rt, err := shard.NewRouter(part, [][]*shard.Engine{{e}}, shard.RouterConfig{})
	if err != nil {
		panic(err) // the engine has exactly the partition's row count
	}
	return NewSharded(rt, procs, opts...)
}

// NewSharded builds a Handler answering through the scatter-gather router.
// Row-table budgets are per shard engine (set at engine build), so
// WithRowCache is ignored here; the other options apply unchanged.
func NewSharded(rt *shard.Router, procs int, opts ...Option) *Handler {
	cfg := newConfig(opts)
	h := newHandler(procs, cfg)
	h.rt = rt
	h.o.handle(h.mux, "GET /healthz", h.healthz)
	h.o.handle(h.mux, "GET /stats", h.stats)
	h.o.handle(h.mux, "GET /neighbors", h.neighbors)
	h.o.handle(h.mux, "GET /degree", h.degree)
	h.o.handle(h.mux, "GET /exists", h.exists)
	h.o.handle(h.mux, "GET /bfs", h.bfs)
	h.o.handle(h.mux, "GET /analytics/bfs", h.analyticsBFS)
	h.mountObs(cfg, h.rowTableMetrics)
	return h
}

// newHandler is the graph-free part of every constructor; the caller sets
// the graph, mounts its routes, then calls mountObs.
func newHandler(procs int, cfg config) *Handler {
	if procs < 1 {
		procs = 1
	}
	return &Handler{procs: procs, mux: http.NewServeMux(), o: newHTTPObs(cfg)}
}

// mountObs mounts the observability endpoints every Handler shares, extra
// adding its graph's series to /metrics.
func (h *Handler) mountObs(cfg config, extra func(io.Writer)) {
	if cfg.metrics {
		h.o.mountMetrics(h.mux, extra)
	}
	if cfg.pprof {
		mountPprof(h.mux)
	}
	if cfg.tracer != nil {
		h.mountTraces(cfg.tracer)
		// Tail-based slow-query capture: every trace over its op's slow
		// threshold is logged as a structured warn record (full span detail)
		// through the access logger, or slog.Default without one.
		log := h.o.errLog()
		cfg.tracer.SetOnSlow(func(t *trace.Trace) {
			log.LogAttrs(context.Background(), slog.LevelWarn, "slow query",
				slog.String("id", t.IDString()),
				slog.String("op", t.Op().String()),
				slog.Duration("total", time.Duration(t.TotalNS())),
				slog.Int("truncated_spans", t.TruncatedSpans()),
				slog.Any("spans", t.Spans()),
			)
		})
	}
}

// healthz reports liveness plus per-shard readiness: always 200 with
// ok=true once the handler exists (graphs load before the mux is built),
// and per shard the replica count, checksum verification, live queue
// depth, and the queue-depth high-watermark since start — the shard-level
// signal for "is one shard quietly drowning".
func (h *Handler) healthz(w http.ResponseWriter, r *http.Request) {
	shards := make([]map[string]any, h.rt.NumShards())
	for s := range shards {
		replicas := h.rt.Replicas(s)
		shards[s] = map[string]any{
			"shard":           s,
			"ready":           len(replicas) > 0,
			"verified":        h.rt.Verified(),
			"replicas":        len(replicas),
			"queue_depth":     h.rt.QueueDepth(s),
			"queue_depth_max": h.rt.QueueDepthMax(s),
		}
	}
	h.writeJSON(w, map[string]any{
		"ok":             true,
		"uptime_seconds": time.Since(h.o.start).Seconds(),
		"verified":       h.rt.Verified(),
		"shards":         shards,
	})
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

// numNodes is the global id space the batch endpoints validate against.
func (h *Handler) numNodes() int { return h.rt.Partition().NumNodes() }

// stats reports the graph and the shard topology: edge count and packed
// footprint (Table II's "CSR" column) summed over the shards, and per
// shard the owned range and per-replica row-table counters, so operators
// see which shard's table is absorbing the hub traffic.
func (h *Handler) stats(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{
		"nodes":          h.numNodes(),
		"procs":          h.procs,
		"uptime_seconds": time.Since(h.o.start).Seconds(),
		"shards":         h.topology(),
	}
	edges, size := 0, int64(0)
	hasEdges, hasSize := true, true
	for s := 0; s < h.rt.NumShards(); s++ {
		src := h.rt.Replicas(s)[0].Source()
		if ec, ok := src.(interface{ NumEdges() int }); ok {
			edges += ec.NumEdges()
		} else {
			hasEdges = false
		}
		if sz, ok := src.(interface{ SizeBytes() int64 }); ok {
			size += sz.SizeBytes()
		} else {
			hasSize = false
		}
	}
	if hasEdges {
		out["edges"] = edges
	}
	if hasSize {
		out["size_bytes"] = size
	}
	h.writeJSON(w, out)
}

func (h *Handler) topology() []map[string]any {
	part := h.rt.Partition()
	shards := make([]map[string]any, h.rt.NumShards())
	for s := range shards {
		lo, hi := part.Bounds(s)
		replicas := h.rt.Replicas(s)
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
			"queue_depth": h.rt.QueueDepth(s),
			"replicas":    reps,
		}
	}
	return shards
}

// rowTableMetrics appends the per-shard, per-replica row-table counters to
// /metrics, labelled by shard and replica; they live outside the obs
// registry because the tables belong to the handler's engines.
func (h *Handler) rowTableMetrics(w io.Writer) {
	for s := 0; s < h.rt.NumShards(); s++ {
		for _, e := range h.rt.Replicas(s) {
			st, ok := e.TryCacheStats()
			if !ok {
				continue
			}
			lbl := fmt.Sprintf(`{shard="%d",replica="%d"}`, s, e.Replica())
			_, _ = fmt.Fprintf(w, //csr:errok best-effort exposition; client disconnect mid-scrape is benign
				"csrgraph_rowcache_hits_total%s %d\ncsrgraph_rowcache_misses_total%s %d\ncsrgraph_rowcache_entries%s %d\ncsrgraph_rowcache_bytes%s %d\n",
				lbl, st.Hits, lbl, st.Misses, lbl, st.Entries, lbl, st.Bytes)
		}
	}
}

// The three batch endpoints share one shape, each stage on pooled memory
// (wire.go): scan the query string, ask the router, encode, write once.

func (h *Handler) neighbors(w http.ResponseWriter, r *http.Request) {
	tr := trace.FromContext(r.Context())
	sc := wirePool.Get().(*wireScratch)
	defer wirePool.Put(sc)
	p := tr.Now()
	var err error
	sc.nodes, err = parseBatch(sc.nodes, r.URL.RawQuery, &nodeGrammar, h.numNodes())
	tr.Span(trace.StageParse, len(sc.nodes), p)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	rows, err := h.rt.NeighborsBatchTraced(sc.nodes, tr)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	e := tr.Now()
	total := 0
	for _, row := range rows {
		total += len(row)
	}
	if total > maxReplyNeighbors {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("reply of %d neighbours exceeds limit %d", total, maxReplyNeighbors))
		return
	}
	size := 2 + neighborItemMax*len(rows) + neighborMax*total + wireSlack
	b := slices.Grow(sc.buf[:0], size)[:size]
	sc.buf = b[:encodeNeighbors(b, sc.nodes, rows)]
	tr.Span(trace.StageEncode, len(rows), e)
	h.writeBody(w, sc, tr)
}

func (h *Handler) degree(w http.ResponseWriter, r *http.Request) {
	tr := trace.FromContext(r.Context())
	sc := wirePool.Get().(*wireScratch)
	defer wirePool.Put(sc)
	p := tr.Now()
	var err error
	sc.nodes, err = parseBatch(sc.nodes, r.URL.RawQuery, &nodeGrammar, h.numNodes())
	tr.Span(trace.StageParse, len(sc.nodes), p)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	degrees, err := h.rt.DegreeBatchTraced(sc.nodes, tr)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	e := tr.Now()
	size := 2 + degreeItemMax*len(degrees) + wireSlack
	b := slices.Grow(sc.buf[:0], size)[:size]
	sc.buf = b[:encodeDegrees(b, sc.nodes, degrees)]
	tr.Span(trace.StageEncode, len(degrees), e)
	h.writeBody(w, sc, tr)
}

func (h *Handler) exists(w http.ResponseWriter, r *http.Request) {
	tr := trace.FromContext(r.Context())
	sc := wirePool.Get().(*wireScratch)
	defer wirePool.Put(sc)
	p := tr.Now()
	var err error
	sc.edges, err = parseBatch(sc.edges, r.URL.RawQuery, &edgeGrammar, h.numNodes())
	tr.Span(trace.StageParse, len(sc.edges), p)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	exists, err := h.rt.EdgesExistBatchTraced(sc.edges, tr)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	e := tr.Now()
	size := 2 + existsItemMax*len(exists) + wireSlack
	b := slices.Grow(sc.buf[:0], size)[:size]
	sc.buf = b[:encodeExists(b, sc.edges, exists)]
	tr.Span(trace.StageEncode, len(exists), e)
	h.writeBody(w, sc, tr)
}

func (h *Handler) bfs(w http.ResponseWriter, r *http.Request) {
	if h.numNodes() > maxBFSNodes {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("graph too large for the bfs endpoint (%d nodes)", h.numNodes()))
		return
	}
	tr := trace.FromContext(r.Context())
	p := tr.Now()
	nodes, err := h.parseNodes(r.URL.Query().Get("src"))
	tr.Span(trace.StageParse, len(nodes), p)
	if err != nil || len(nodes) != 1 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("src must be a single node id"))
		return
	}
	out, err := h.bfsResult(nodes[0], tr)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	h.writeJSON(w, out)
}

// analyticsBFS runs one frontier-core BFS per requested source and returns
// the distances plus the per-traversal round breakdown (total, sparse,
// dense) the switching policy produced. Sources come from repeated src
// parameters, each optionally comma-separated: ?src=7&src=9,12.
func (h *Handler) analyticsBFS(w http.ResponseWriter, r *http.Request) {
	if h.numNodes() > maxBFSNodes {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("graph too large for the bfs endpoint (%d nodes)", h.numNodes()))
		return
	}
	tr := trace.FromContext(r.Context())
	p := tr.Now()
	var srcs []edgelist.NodeID
	for _, raw := range r.URL.Query()["src"] {
		nodes, err := h.parseNodes(raw)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		srcs = append(srcs, nodes...)
	}
	tr.Span(trace.StageParse, len(srcs), p)
	if len(srcs) == 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("missing src parameter"))
		return
	}
	if len(srcs) > maxBFSSources {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("batch of %d sources exceeds limit %d", len(srcs), maxBFSSources))
		return
	}
	bfsSources.Observe(int64(len(srcs)))
	out := make([]map[string]any, len(srcs))
	for i, src := range srcs {
		res, err := h.bfsResult(src, tr)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		out[i] = res
	}
	h.writeJSON(w, out)
}

// bfsResult runs one BFS from src through the router (the frontier core's
// traversal over every shard's rows) and folds it and its round breakdown
// into the response shape shared by /bfs and /analytics/bfs.
func (h *Handler) bfsResult(src edgelist.NodeID, tr *trace.Trace) (map[string]any, error) {
	dist, st, err := h.rt.BFSTraced(src, tr)
	if err != nil {
		return nil, err
	}
	bfsRounds.Observe(int64(st.Rounds))
	reached := 0
	for _, d := range dist {
		if d != algo.Unreached {
			reached++
		}
	}
	return map[string]any{
		"src":           src,
		"reached":       reached,
		"rounds":        st.Rounds,
		"sparse_rounds": st.SparseRounds,
		"dense_rounds":  st.DenseRounds,
		"distances":     dist,
	}, nil
}

// parseNodes decodes an already-unescaped node list for the traversal
// endpoints, which take a handful of sources and keep url.Values.
func (h *Handler) parseNodes(s string) ([]edgelist.NodeID, error) {
	nodes, _, err := parseList(nil, s, &nodeGrammar, h.numNodes(), false)
	return nodes, err
}

// writeJSON encodes v as the response body. Headers are already sent by the
// time an encode error surfaces, so the response cannot be repaired — but
// the failure is counted (csrgraph_http_json_encode_errors_total) and
// logged at warn, where it used to vanish in an empty return.
func (h *Handler) writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		jsonEncodeErrors.Inc()
		h.o.errLog().Warn("json encode failed", "err", err)
	}
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()}) //csr:errok error response is best-effort; status code already sent
}
