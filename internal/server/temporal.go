package server

import (
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"csrgraph/internal/algo"
	"csrgraph/internal/edgelist"
	"csrgraph/internal/frontier"
	"csrgraph/internal/tcsr"
	"csrgraph/internal/trace"
)

// NewTemporal builds a Handler answering point-in-time queries over a
// packed differential TCSR (Section IV), batched in parallel. It takes the
// options New does; WithRowCache has nothing to cache and is ignored.
func NewTemporal(pt *tcsr.Packed, procs int, opts ...Option) *Handler {
	cfg := newConfig(opts)
	h := newHandler(procs, cfg)
	h.pt, h.queries = pt, queryGrammar(pt.NumFrames())
	h.o.handle(h.mux, "GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		h.writeJSON(w, map[string]bool{"ok": true})
	})
	h.o.handle(h.mux, "GET /stats", h.temporalStats)
	h.o.handle(h.mux, "GET /active", h.active)
	h.o.handle(h.mux, "GET /neighbors", h.frameNeighbors)
	h.o.handle(h.mux, "GET /bfs", h.frameBFS)
	h.mountObs(cfg, nil)
	return h
}

// queryGrammar is the /active grammar over frames frames: items are
// "u:v:t", both ids below the node count and t below frames.
func queryGrammar(frames int) grammar[tcsr.ActivityQuery] {
	return grammar[tcsr.ActivityQuery]{
		key: "queries",
		// No hand scanner: every item takes the tolerant decoder, which
		// /active used before it shared the batch path.
		scan: func(dst []tcsr.ActivityQuery, _ string, pos int, _ uint64) (int, int, scanState) {
			if len(dst) == 0 {
				return 0, pos, scanFull
			}
			return 0, pos, scanSlow
		},
		item: func(part string, n int) (tcsr.ActivityQuery, error) {
			return tcsr.ParseQueryItem(part, n, frames)
		},
		missing: errors.New("missing queries parameter"),
	}
}

func (h *Handler) temporalStats(w http.ResponseWriter, r *http.Request) {
	h.writeJSON(w, map[string]any{
		"nodes":          h.pt.NumNodes(),
		"frames":         h.pt.NumFrames(),
		"bytes":          h.pt.SizeBytes(),
		"procs":          h.procs,
		"uptime_seconds": time.Since(h.o.start).Seconds(),
	})
}

// active answers a batch of activity queries with the batch endpoints'
// shape: scan into pooled memory, answer, append the body, write once.
func (h *Handler) active(w http.ResponseWriter, r *http.Request) {
	tr := trace.FromContext(r.Context())
	sc := wirePool.Get().(*wireScratch)
	defer wirePool.Put(sc)
	p := tr.Now()
	var err error
	sc.queries, err = parseBatch(sc.queries, r.URL.RawQuery, &h.queries, h.pt.NumNodes())
	tr.Span(trace.StageParse, len(sc.queries), p)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	x := tr.Now()
	results := h.pt.ActiveBatch(sc.queries, h.procs)
	tr.Span(trace.StageExec, len(results), x)
	e := tr.Now()
	sc.buf = appendActive(sc.buf[:0], sc.queries, results)
	tr.Span(trace.StageEncode, len(results), e)
	h.writeBody(w, sc, tr)
}

// appendActive appends the /active body: the objects encoding/json makes
// of {u, v, t, active}, keys sorted, in query order.
func appendActive(b []byte, queries []tcsr.ActivityQuery, active []bool) []byte {
	b = append(b, '[')
	for k, q := range queries {
		if k > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendBool(append(b, `{"active":`...), active[k])
		b = strconv.AppendInt(append(b, `,"t":`...), int64(q.T), 10)
		b = strconv.AppendUint(append(b, `,"u":`...), uint64(q.U), 10)
		b = strconv.AppendUint(append(b, `,"v":`...), uint64(q.V), 10)
		b = append(b, '}')
	}
	return append(b, "]\n"...)
}

func (h *Handler) frameNeighbors(w http.ResponseWriter, r *http.Request) {
	u, t, err := h.parseNodeFrame(r, "node")
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	h.writeJSON(w, map[string]any{"node": u, "frame": t, "neighbors": h.pt.ActiveNeighbors(nil, u, t)})
}

// parseNodeFrame decodes a point-in-time request's node (under the
// parameter name key) and frame with the batch endpoints' item decoders.
func (h *Handler) parseNodeFrame(r *http.Request, key string) (uint32, int, error) {
	q := r.URL.Query()
	u, err := edgelist.ParseNodeItem(q.Get(key), h.pt.NumNodes())
	if err != nil {
		return 0, 0, err
	}
	t, err := tcsr.ParseFrameItem(q.Get("frame"), h.pt.NumFrames())
	return u, t, err
}

// frameSource adapts one TCSR frame to the frontier core's graph surface:
// rows are the frame's active neighbor sets. No edge count is exposed, so
// traversals stay in push mode (no transpose exists for a frame either),
// and push mode never asks for a Degree.
type frameSource struct {
	pt *tcsr.Packed
	t  int
}

func (f frameSource) NumNodes() int       { return f.pt.NumNodes() }
func (f frameSource) Degree(u uint32) int { return len(f.pt.ActiveNeighbors(nil, u, f.t)) }
func (f frameSource) Row(dst []uint32, u uint32) []uint32 {
	return f.pt.ActiveNeighbors(dst, u, f.t)
}

// frameBFS answers point-in-time hop distances: a frontier BFS over the
// edges active at the requested frame. Out-of-range src or frame is a 400,
// like every other malformed request.
func (h *Handler) frameBFS(w http.ResponseWriter, r *http.Request) {
	if h.pt.NumNodes() > maxBFSNodes {
		httpError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("graph too large for the bfs endpoint (%d nodes)", h.pt.NumNodes()))
		return
	}
	src, t, err := h.parseNodeFrame(r, "src")
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	dist, st := algo.BFSFrontierStats(frameSource{pt: h.pt, t: t}, nil, src, frontier.DefaultPolicy(), h.procs)
	bfsRounds.Observe(int64(st.Rounds))
	reached := 0
	for _, d := range dist {
		if d != algo.Unreached {
			reached++
		}
	}
	h.writeJSON(w, map[string]any{
		"src": src, "frame": t, "reached": reached, "rounds": st.Rounds, "distances": dist,
	})
}
