// Package server exposes a compressed CSR graph over HTTP — the "social
// network with millions of users querying at once" scenario of Section V.
// Incoming query batches are answered with the parallel querying
// algorithms; responses are JSON. An optional decoded-row cache
// (WithRowCache, or each shard engine's row table) serves /neighbors rows;
// /exists always searches the packed rows in place.
//
// Endpoints:
//
//	GET /stats                         graph metadata
//	GET /neighbors?nodes=1,2,3         Algorithm 6 batch
//	GET /degree?nodes=1,2,3            degree batch
//	GET /exists?edges=1:2,3:4          Algorithm 7 batch
//	GET /bfs?src=7                     hop distances from src
//	GET /analytics/bfs?src=7&src=9,12  batched BFS with per-traversal round stats
//	GET /metrics                       Prometheus exposition (WithMetrics)
//	GET /debug/pprof/...               profiling (WithPprof)
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"time"

	"csrgraph/internal/algo"
	"csrgraph/internal/edgelist"
	"csrgraph/internal/obs"
	"csrgraph/internal/query"
	"csrgraph/internal/shard"
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

// Handler serves queries over one immutable graph through a backend — one
// in-process engine (New) or the sharded scatter-gather tier (NewSharded).
type Handler struct {
	b     backend
	procs int
	mux   *http.ServeMux
	o     *httpObs
}

// New builds a Handler answering from g with the given parallelism. See
// WithRowCache, WithMetrics, WithPprof, and WithAccessLog for the
// observability options.
func New(g query.Source, procs int, opts ...Option) *Handler {
	if procs < 1 {
		procs = 1
	}
	cfg := newConfig(opts)
	return newHandler(newSingleBackend(g, cfg.cacheBytes, procs), procs, cfg)
}

// NewSharded builds a Handler answering through the scatter-gather router.
// Row-cache budgets are per shard engine (set at engine build), so
// WithRowCache is ignored here; the other options apply unchanged.
func NewSharded(rt *shard.Router, procs int, opts ...Option) *Handler {
	if procs < 1 {
		procs = 1
	}
	return newHandler(&shardBackend{rt: rt}, procs, newConfig(opts))
}

func newHandler(b backend, procs int, cfg config) *Handler {
	h := &Handler{
		b:     b,
		procs: procs,
		mux:   http.NewServeMux(),
		o:     newHTTPObs(cfg),
	}
	h.o.handle(h.mux, "GET /healthz", h.healthz)
	h.o.handle(h.mux, "GET /stats", h.stats)
	h.o.handle(h.mux, "GET /neighbors", h.neighbors)
	h.o.handle(h.mux, "GET /degree", h.degree)
	h.o.handle(h.mux, "GET /exists", h.exists)
	h.o.handle(h.mux, "GET /bfs", h.bfs)
	h.o.handle(h.mux, "GET /analytics/bfs", h.analyticsBFS)
	if cfg.metrics {
		h.o.mountMetrics(h.mux, h.b.metricsInto)
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
	return h
}

// healthz reports liveness plus backend readiness: always 200 with ok=true
// once the handler exists (graphs load before the mux is built), and for
// sharded backends a per-shard readiness array — replica count, checksum
// verification, live queue depth, and the queue-depth high-watermark since
// start.
func (h *Handler) healthz(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{
		"ok":             true,
		"uptime_seconds": time.Since(h.o.start).Seconds(),
	}
	h.b.healthInto(out)
	h.writeJSON(w, out)
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

func (h *Handler) stats(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{
		"nodes":          h.b.numNodes(),
		"procs":          h.procs,
		"uptime_seconds": time.Since(h.o.start).Seconds(),
	}
	h.b.statsInto(out)
	h.writeJSON(w, out)
}

// The three batch endpoints share one shape, each stage on pooled memory
// (wire.go): scan the query string, ask the backend, encode, write once.

func (h *Handler) neighbors(w http.ResponseWriter, r *http.Request) {
	tr := trace.FromContext(r.Context())
	sc := wirePool.Get().(*wireScratch)
	defer wirePool.Put(sc)
	p := tr.Now()
	var err error
	sc.nodes, err = parseBatch(sc.nodes, r.URL.RawQuery, &nodeGrammar, h.b.numNodes())
	tr.Span(trace.StageParse, len(sc.nodes), p)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	rows, err := h.b.neighbors(sc.nodes, tr)
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
	sc.nodes, err = parseBatch(sc.nodes, r.URL.RawQuery, &nodeGrammar, h.b.numNodes())
	tr.Span(trace.StageParse, len(sc.nodes), p)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	degrees, err := h.b.degrees(sc.nodes, tr)
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
	sc.edges, err = parseBatch(sc.edges, r.URL.RawQuery, &edgeGrammar, h.b.numNodes())
	tr.Span(trace.StageParse, len(sc.edges), p)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	exists, err := h.b.edgesExist(sc.edges, tr)
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
	if h.b.numNodes() > maxBFSNodes {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("graph too large for the bfs endpoint (%d nodes)", h.b.numNodes()))
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
	if h.b.numNodes() > maxBFSNodes {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("graph too large for the bfs endpoint (%d nodes)", h.b.numNodes()))
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

// bfsResult runs one BFS from src through the backend (frontier-switching
// in-process, distributed per-round exchange when sharded) and folds it
// into the response shape shared by /bfs and /analytics/bfs. The
// sparse/dense round breakdown only appears when the engine has switching
// phases to report.
func (h *Handler) bfsResult(src edgelist.NodeID, tr *trace.Trace) (map[string]any, error) {
	res, err := h.b.bfs(src, tr)
	if err != nil {
		return nil, err
	}
	bfsRounds.Observe(int64(res.rounds))
	reached := 0
	for _, d := range res.dist {
		if d != algo.Unreached {
			reached++
		}
	}
	out := map[string]any{
		"src":       src,
		"reached":   reached,
		"rounds":    res.rounds,
		"distances": res.dist,
	}
	if res.hasPhases {
		out["sparse_rounds"] = res.sparse
		out["dense_rounds"] = res.dense
	}
	return out, nil
}

// parseNodes decodes an already-unescaped node list for the traversal
// endpoints, which take a handful of sources and keep url.Values.
func (h *Handler) parseNodes(s string) ([]edgelist.NodeID, error) {
	nodes, _, err := parseList(nil, s, &nodeGrammar, h.b.numNodes(), false)
	return nodes, err
}

// writeJSON encodes v as the response body. Headers are already sent by the
// time an encode error surfaces, so the response cannot be repaired — but
// the failure is counted (csrgraph_http_json_encode_errors_total) and
// logged at warn, where it used to vanish in an empty return.
func writeJSON(log *slog.Logger, w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		jsonEncodeErrors.Inc()
		log.Warn("json encode failed", "err", err)
	}
}

func (h *Handler) writeJSON(w http.ResponseWriter, v any) {
	writeJSON(h.o.errLog(), w, v)
}

func httpError(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()}) //csr:errok error response is best-effort; status code already sent
}
