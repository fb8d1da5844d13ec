// HTTP-layer observability: option plumbing shared by the static and
// temporal forms of Handler, the per-endpoint instrumentation middleware,
// the Prometheus /metrics endpoint, opt-in pprof mounting, and structured
// access logging.
//
// Per-endpoint series (latency histogram + response counters by status
// class) are created once at route registration and captured in the
// wrapper closure, so a request never touches the metric registry. Request
// instrumentation reads the clock only when an access logger is configured
// or metric collection is enabled.
package server

import (
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync/atomic"
	"time"

	"csrgraph/internal/obs"
	"csrgraph/internal/trace"
)

// Option customizes New and NewTemporal.
type Option func(*config)

// config collects the cross-handler options.
type config struct {
	cacheBytes int64
	metrics    bool
	pprof      bool
	accessLog  *slog.Logger
	tracer     *trace.Recorder
}

// WithRowCache gives New's engine a decoded-row table for /neighbors
// bounded by maxBytes, 8 bytes per node of slot array included (<= 0, or a
// budget the array alone exceeds, disables it). Rows are admitted on first
// touch until the budget fills. It caches /neighbors rows only: /exists
// searches the rows in place and never reads or fills it. The counters
// appear under shards[0].replicas[0].cache in /stats and as
// csrgraph_rowcache_*{shard="0",replica="0"} series in /metrics.
// NewSharded and NewTemporal ignore it.
func WithRowCache(maxBytes int64) Option {
	return func(c *config) { c.cacheBytes = maxBytes }
}

// WithMetrics turns metric collection on process-wide (internal/obs) and
// mounts GET /metrics serving the Prometheus text exposition: pool, build,
// query, cache, and per-endpoint HTTP series.
func WithMetrics() Option {
	return func(c *config) { c.metrics = true }
}

// WithPprof mounts net/http/pprof under GET /debug/pprof/ for CPU, heap,
// mutex, and execution-trace profiling of a live server.
func WithPprof() Option {
	return func(c *config) { c.pprof = true }
}

// WithTracing attaches a request-scoped span recorder (internal/trace):
// head-sampled requests and requests carrying "X-Trace: 1" record per-stage
// spans, retrievable from GET /debug/traces and summarized by GET
// /debug/traces/summary. Traced requests echo their trace id in
// X-Request-ID (16 hex digits) so responses, the access log, and the trace
// store join on one key; traces over the recorder's slow threshold are
// additionally logged as structured warn records through the access logger.
// A nil recorder disables tracing (the same as omitting the option).
func WithTracing(rec *trace.Recorder) Option {
	return func(c *config) { c.tracer = rec }
}

// WithAccessLog enables structured per-request logging to log: one Info
// record per request with a request id (echoed in the X-Request-ID response
// header), method, path, status, bytes, and duration. A nil log disables
// access logging but handlers still report internal errors through
// slog.Default.
func WithAccessLog(log *slog.Logger) Option {
	return func(c *config) { c.accessLog = log }
}

// newConfig folds opts into a config.
func newConfig(opts []Option) config {
	var c config
	for _, o := range opts {
		o(&c)
	}
	if c.metrics {
		obs.SetEnabled(true)
	}
	return c
}

// httpObs is the per-handler instrumentation state: the access logger, the
// trace recorder, the request-id sequence, and the start time /stats and
// /metrics report uptime against. hists collects each route's latency
// histogram at registration (construction-time only, read-only while
// serving) so /debug/traces/summary can surface per-path exemplars.
type httpObs struct {
	log   *slog.Logger    // nil: access logging off
	rec   *trace.Recorder // nil: tracing off
	reqID atomic.Uint64
	start time.Time
	hists map[string]*obs.Histogram
}

func newHTTPObs(c config) *httpObs {
	return &httpObs{
		log:   c.accessLog,
		rec:   c.tracer,
		start: time.Now(),
		hists: make(map[string]*obs.Histogram),
	}
}

// opForPath maps a registered route to the trace op its requests record
// under. Routes outside the query surface trace as OpOther.
func opForPath(path string) trace.Op {
	switch path {
	case "/exists":
		return trace.OpExists
	case "/neighbors":
		return trace.OpNeighbors
	case "/degree":
		return trace.OpDegree
	case "/bfs":
		return trace.OpBFS
	case "/analytics/bfs":
		return trace.OpAnalyticsBFS
	case "/active":
		return trace.OpActive
	}
	return trace.OpOther
}

// errLog returns the logger handler internals (encode failures) should
// complain to: the access logger when configured, slog.Default otherwise.
func (o *httpObs) errLog() *slog.Logger {
	if o.log != nil {
		return o.log
	}
	return slog.Default()
}

// jsonEncodeErrors counts writeJSON failures — responses that started
// streaming and then died (client gone, marshal failure). Before this
// counter the error branch was an empty return and encode failures were
// invisible.
var jsonEncodeErrors = obs.GetCounter("csrgraph_http_json_encode_errors_total")

// statusWriter captures status code and body size for the middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// handle registers fn on mux wrapped with per-endpoint instrumentation.
// pattern is a method-qualified ServeMux pattern ("GET /neighbors"); the
// path part becomes the metric label, which keeps cardinality bounded by
// the route table (unmatched paths never reach these wrappers).
func (o *httpObs) handle(mux *http.ServeMux, pattern string, fn http.HandlerFunc) {
	path := pattern
	if i := strings.IndexByte(pattern, ' '); i >= 0 {
		path = pattern[i+1:]
	}
	hist := obs.GetDurationHistogram(`csrgraph_http_request_seconds{path="` + path + `"}`)
	o.hists[path] = hist
	op := opForPath(path)
	byClass := [6]*obs.Counter{}
	byClass[2] = obs.GetCounter(`csrgraph_http_responses_total{path="` + path + `",code="2xx"}`)
	byClass[4] = obs.GetCounter(`csrgraph_http_responses_total{path="` + path + `",code="4xx"}`)
	byClass[5] = obs.GetCounter(`csrgraph_http_responses_total{path="` + path + `",code="5xx"}`)
	mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		logging := o.log != nil
		// Start costs one atomic add on an unsampled request; nil when the
		// request is neither head-sampled nor forced via X-Trace: 1.
		tr := o.rec.Start(op, r.Header.Get("X-Trace") == "1")
		if !logging && !obs.Enabled() && tr == nil {
			// Fully dark: no clock reads, no wrapper allocation.
			fn(w, r)
			return
		}
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w}
		var idAttr slog.Attr
		if tr != nil {
			// Traced requests echo the trace id so the response header, the
			// access log, and /debug/traces?id=... join on one key.
			sw.Header().Set("X-Request-ID", tr.IDString())
			idAttr = slog.String("id", tr.IDString())
			r = r.WithContext(trace.NewContext(r.Context(), tr))
		} else if logging {
			id := o.reqID.Add(1)
			sw.Header().Set("X-Request-ID", fmt.Sprintf("%08x", id))
			idAttr = slog.Uint64("id", id)
		}
		fn(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		elapsed := time.Since(start)
		if tr != nil {
			hist.ObserveExemplar(elapsed.Nanoseconds(), tr.ID())
		} else {
			hist.ObserveDuration(elapsed)
		}
		if class := sw.status / 100; class >= 0 && class < len(byClass) && byClass[class] != nil {
			byClass[class].Inc()
		}
		if logging {
			o.log.LogAttrs(r.Context(), slog.LevelInfo, "request",
				idAttr,
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", sw.status),
				slog.Int64("bytes", sw.bytes),
				slog.Duration("duration", elapsed),
			)
		}
		o.rec.Finish(tr)
	})
}

// mountMetrics serves the Prometheus text exposition: every series in the
// obs registry plus the handler-local extras (uptime, row-cache counters).
func (o *httpObs) mountMetrics(mux *http.ServeMux, extra func(io.Writer)) {
	o.handle(mux, "GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := obs.WritePrometheus(w); err != nil {
			return
		}
		if _, err := fmt.Fprintf(w, "# TYPE csrgraph_uptime_seconds gauge\ncsrgraph_uptime_seconds %g\n",
			time.Since(o.start).Seconds()); err != nil {
			return // client went away mid-scrape
		}
		if extra != nil {
			extra(w)
		}
	})
}

// mountPprof exposes the net/http/pprof handlers on the handler's own mux
// (the import's side-effect registrations on http.DefaultServeMux are not
// served unless the caller serves that mux).
func mountPprof(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
}
