package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"csrgraph/internal/trace"
)

// getTraced issues a request with X-Trace: 1 and returns the recorder plus
// the echoed trace id.
func getTraced(t *testing.T, h http.Handler, url string) (*httptest.ResponseRecorder, string) {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	req.Header.Set("X-Trace", "1")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec, rec.Header().Get("X-Request-ID")
}

func fetchTrace(t *testing.T, h http.Handler, id string) traceJSON {
	t.Helper()
	rec, body := get(t, h, "/debug/traces?id="+id)
	if rec.Code != 200 {
		t.Fatalf("/debug/traces?id=%s -> %d: %s", id, rec.Code, body)
	}
	var out struct {
		Count  int `json:"count"`
		Traces []struct {
			ID        string `json:"id"`
			Op        string `json:"op"`
			TotalNS   int64  `json:"total_ns"`
			Slow      bool   `json:"slow"`
			Truncated int    `json:"truncated_spans"`
			Spans     []struct {
				Stage    string `json:"stage"`
				Shard    int    `json:"shard"`
				Replica  int    `json:"replica"`
				Items    int    `json:"items"`
				Extra    int64  `json:"extra"`
				OffsetNS int64  `json:"offset_ns"`
				DurNS    int64  `json:"dur_ns"`
			} `json:"spans"`
		} `json:"traces"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("decode: %v\n%s", err, body)
	}
	if out.Count != 1 || len(out.Traces) != 1 {
		t.Fatalf("count = %d", out.Count)
	}
	got := out.Traces[0]
	tj := traceJSON{ID: got.ID, TotalNS: got.TotalNS, Slow: got.Slow, Truncated: got.Truncated}
	tj.Op = trace.ParseOp(got.Op)
	for _, sp := range got.Spans {
		st := stageByName(t, sp.Stage)
		tj.Spans = append(tj.Spans, trace.Span{
			Stage: st, Shard: int16(sp.Shard), Replica: int16(sp.Replica),
			Items: int32(sp.Items), Extra: sp.Extra, OffsetNS: sp.OffsetNS, DurNS: sp.DurNS,
		})
	}
	return tj
}

func stageByName(t *testing.T, name string) trace.Stage {
	t.Helper()
	for _, st := range trace.Stages() {
		if st.String() == name {
			return st
		}
	}
	t.Fatalf("unknown stage %q", name)
	return 0
}

// TestForcedTraceUnsharded: an X-Trace: 1 exists batch on the single-engine
// path must be retrievable by the echoed id with parse, schedule, and a
// search/decode stage.
func TestForcedTraceUnsharded(t *testing.T) {
	rec := trace.NewRecorder(trace.RecorderConfig{})
	l := testHandler(t) // no tracer: header must be absent
	r1, id1 := getTraced(t, l, "/exists?edges=0:1,1:0")
	if r1.Code != 200 || id1 != "" {
		t.Fatalf("untraced handler echoed id %q (code %d)", id1, r1.Code)
	}

	h, _ := shardedPair(t, 60, 600, 4, WithTracing(rec))
	r2, id := getTraced(t, h, "/exists?edges=0:1,1:0,2:3")
	if r2.Code != 200 {
		t.Fatalf("status %d: %s", r2.Code, r2.Body.String())
	}
	if len(id) != 16 {
		t.Fatalf("X-Request-ID = %q, want 16 hex digits", id)
	}
	tj := fetchTrace(t, h, id)
	if tj.Op != trace.OpExists {
		t.Fatalf("op = %v", tj.Op)
	}
	stages := map[trace.Stage]bool{}
	for _, sp := range tj.Spans {
		stages[sp.Stage] = true
	}
	for _, want := range []trace.Stage{trace.StageParse, trace.StageSchedule, trace.StageSearch, trace.StageEncode, trace.StageWrite} {
		if !stages[want] {
			t.Fatalf("missing stage %v in %+v", want, tj.Spans)
		}
	}
	if tj.TotalNS <= 0 {
		t.Fatalf("total = %d", tj.TotalNS)
	}
}

// TestForcedTraceSharded is the acceptance check: a batch with X-Trace: 1
// through an 8-shard router must yield a retrievable trace with >= 5
// distinct span stages, per-leg shard attribution, and a queue-wait vs
// exec split per shard touched.
func TestForcedTraceSharded(t *testing.T) {
	rec := trace.NewRecorder(trace.RecorderConfig{})
	_, sharded := shardedPair(t, 64, 800, 8, WithTracing(rec))
	// Probe every shard: ids 0..63 span all 8 shards of a 64-node graph.
	var probes []string
	for u := 0; u < 64; u++ {
		probes = append(probes, strconv.Itoa(u)+":"+strconv.Itoa((u+1)%64))
	}
	r, id := getTraced(t, sharded, "/exists?edges="+strings.Join(probes, ","))
	if r.Code != 200 {
		t.Fatalf("status %d: %s", r.Code, r.Body.String())
	}
	tj := fetchTrace(t, sharded, id)
	stages := map[trace.Stage]bool{}
	shardsSeen := map[int16]bool{}
	var waits, execs int
	for _, sp := range tj.Spans {
		stages[sp.Stage] = true
		if sp.Shard >= 0 {
			shardsSeen[sp.Shard] = true
		}
		switch sp.Stage {
		case trace.StageQueueWait:
			waits++
		case trace.StageExec:
			execs++
			if sp.Replica < 0 {
				t.Fatalf("exec span without replica: %+v", sp)
			}
		}
	}
	if len(stages) < 5 {
		t.Fatalf("only %d distinct stages: %+v", len(stages), tj.Spans)
	}
	for _, want := range []trace.Stage{trace.StageParse, trace.StageGroup, trace.StageQueueWait, trace.StageExec, trace.StageMerge, trace.StageEncode, trace.StageWrite} {
		if !stages[want] {
			t.Fatalf("missing stage %v", want)
		}
	}
	// The write span counts the body's bytes, so a trace says how large the
	// reply it timed was.
	for _, sp := range tj.Spans {
		if sp.Stage == trace.StageWrite && int(sp.Items) != r.Body.Len() {
			t.Fatalf("write span covers %d bytes, body has %d", sp.Items, r.Body.Len())
		}
	}
	if len(shardsSeen) != 8 {
		t.Fatalf("legs touched %d shards, want 8: %v", len(shardsSeen), shardsSeen)
	}
	if waits != execs {
		t.Fatalf("queue-wait/exec split broken: %d waits, %d execs", waits, execs)
	}
}

// TestTraceSampledOff: without sampling and without X-Trace, no id is
// echoed and nothing lands in the ring.
func TestTraceSampledOff(t *testing.T) {
	rec := trace.NewRecorder(trace.RecorderConfig{})
	_, sharded := shardedPair(t, 60, 600, 4, WithTracing(rec))
	r, _ := get(t, sharded, "/exists?edges=0:1")
	if r.Code != 200 {
		t.Fatalf("status %d", r.Code)
	}
	if got := r.Header().Get("X-Request-ID"); got != "" {
		t.Fatalf("unsampled request echoed id %q", got)
	}
	if got := rec.Recent(-1, 10, false); len(got) != 0 {
		t.Fatalf("ring holds %d traces", len(got))
	}
}

// TestTraceHeadSampling: with 1-in-1 sampling every request traces even
// without the header.
func TestTraceHeadSampling(t *testing.T) {
	rec := trace.NewRecorder(trace.RecorderConfig{Sample: 1})
	_, sharded := shardedPair(t, 60, 600, 4, WithTracing(rec))
	r, _ := get(t, sharded, "/degree?nodes=0,1,2")
	if id := r.Header().Get("X-Request-ID"); len(id) != 16 {
		t.Fatalf("sampled request id = %q", id)
	}
	traces := rec.Recent(int(trace.OpDegree), 10, false)
	if len(traces) != 1 {
		t.Fatalf("ring holds %d degree traces", len(traces))
	}
}

// TestSlowQueryLog: a threshold of 1ns classifies everything slow; the
// structured warn record must carry the trace id and spans.
func TestSlowQueryLog(t *testing.T) {
	rec := trace.NewRecorder(trace.RecorderConfig{SlowThreshold: time.Nanosecond})
	var buf bytes.Buffer
	log := slog.New(slog.NewJSONHandler(&buf, nil))
	_, sharded := shardedPair(t, 60, 600, 4, WithTracing(rec), WithAccessLog(log))
	_, id := getTraced(t, sharded, "/exists?edges=0:1,5:9")
	out := buf.String()
	if !strings.Contains(out, `"msg":"slow query"`) {
		t.Fatalf("no slow query record:\n%s", out)
	}
	if !strings.Contains(out, id) {
		t.Fatalf("slow record missing trace id %s:\n%s", id, out)
	}
	if !strings.Contains(out, "queue_wait") || !strings.Contains(out, "exec") {
		t.Fatalf("slow record missing span detail:\n%s", out)
	}
	// The access log line joins on the same id.
	if !strings.Contains(out, `"msg":"request"`) {
		t.Fatalf("no access record:\n%s", out)
	}
	// Slow traces are retained in the slow ring.
	slow := rec.Recent(-1, 10, true)
	if len(slow) == 0 || !slow[0].Slow() {
		t.Fatalf("slow ring = %+v", slow)
	}
}

// TestTraceSummary exercises /debug/traces/summary: per-op stage tables
// with sane percentiles and shares, plus the per-path exemplar join.
func TestTraceSummary(t *testing.T) {
	rec := trace.NewRecorder(trace.RecorderConfig{Sample: 1})
	_, sharded := shardedPair(t, 60, 600, 4, WithTracing(rec))
	for i := 0; i < 8; i++ {
		get(t, sharded, "/exists?edges=0:1,5:9,12:3")
		get(t, sharded, "/neighbors?nodes=0,7,14")
	}
	r, body := get(t, sharded, "/debug/traces/summary")
	if r.Code != 200 {
		t.Fatalf("summary -> %d: %s", r.Code, body)
	}
	var out struct {
		Window int `json:"window"`
		Ops    map[string]struct {
			Count    int   `json:"count"`
			TotalP50 int64 `json:"total_p50_ns"`
			TotalP99 int64 `json:"total_p99_ns"`
			Stages   map[string]struct {
				Count int     `json:"count"`
				P50NS int64   `json:"p50_ns"`
				P99NS int64   `json:"p99_ns"`
				Share float64 `json:"share"`
			} `json:"stages"`
		} `json:"ops"`
		SlowestByPath map[string]struct {
			ID      string  `json:"id"`
			Seconds float64 `json:"seconds"`
		} `json:"slowest_by_path"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("decode: %v\n%s", err, body)
	}
	if out.Window < 16 {
		t.Fatalf("window = %d, want >= 16", out.Window)
	}
	ex, ok := out.Ops["exists"]
	if !ok || ex.Count != 8 {
		t.Fatalf("exists summary = %+v", out.Ops)
	}
	if ex.TotalP50 <= 0 || ex.TotalP99 < ex.TotalP50 {
		t.Fatalf("percentiles not monotone: p50=%d p99=%d", ex.TotalP50, ex.TotalP99)
	}
	var share float64
	for name, st := range ex.Stages {
		if st.Count == 0 {
			t.Fatalf("stage %s count 0", name)
		}
		if st.P99NS < st.P50NS {
			t.Fatalf("stage %s percentiles not monotone", name)
		}
		share += st.Share
	}
	if share < 0.99 || share > 1.01 {
		t.Fatalf("stage shares sum to %g, want ~1", share)
	}
	if _, ok := ex.Stages["queue_wait"]; !ok {
		t.Fatalf("summary missing queue_wait: %+v", ex.Stages)
	}
	// Exemplars: the slowest /exists request's id is a retained trace.
	slowest, ok := out.SlowestByPath["/exists"]
	if !ok || len(slowest.ID) != 16 || slowest.Seconds <= 0 {
		t.Fatalf("slowest_by_path = %+v", out.SlowestByPath)
	}
}

// TestHealthzSingle: the single-engine health payload.
func TestHealthzSingle(t *testing.T) {
	rec, body := get(t, testHandler(t), "/healthz")
	if rec.Code != 200 {
		t.Fatalf("healthz -> %d", rec.Code)
	}
	var out map[string]any
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out["ok"] != true || out["backend"] != "single" {
		t.Fatalf("healthz = %s", body)
	}
	if _, ok := out["uptime_seconds"].(float64); !ok {
		t.Fatalf("healthz missing uptime: %s", body)
	}
}

// TestHealthzSharded: per-shard readiness with replica counts, queue depth,
// and the high-watermark.
func TestHealthzSharded(t *testing.T) {
	_, sharded := shardedPair(t, 60, 600, 4)
	// Drive some traffic so the watermark is nonzero.
	get(t, sharded, "/exists?edges=0:1,5:9,12:3,33:2,59:0")
	rec, body := get(t, sharded, "/healthz")
	if rec.Code != 200 {
		t.Fatalf("healthz -> %d", rec.Code)
	}
	var out struct {
		OK      bool   `json:"ok"`
		Backend string `json:"backend"`
		Shards  []struct {
			Shard         int   `json:"shard"`
			Ready         bool  `json:"ready"`
			Verified      bool  `json:"verified"`
			Replicas      int   `json:"replicas"`
			QueueDepth    int64 `json:"queue_depth"`
			QueueDepthMax int64 `json:"queue_depth_max"`
		} `json:"shards"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("decode: %v\n%s", err, body)
	}
	if !out.OK || out.Backend != "sharded" || len(out.Shards) != 4 {
		t.Fatalf("healthz = %s", body)
	}
	sawWatermark := false
	for i, s := range out.Shards {
		if s.Shard != i || !s.Ready || s.Replicas != 1 {
			t.Fatalf("shard %d = %+v", i, s)
		}
		if s.QueueDepthMax > 0 {
			sawWatermark = true
		}
	}
	if !sawWatermark {
		t.Fatalf("no shard recorded a queue-depth watermark: %s", body)
	}
}

// TestDebugTracesNotMounted: without WithTracing the endpoints 404.
func TestDebugTracesNotMounted(t *testing.T) {
	rec, _ := get(t, testHandler(t), "/debug/traces")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("untraced /debug/traces -> %d", rec.Code)
	}
}

// TestDebugTracesErrors: bad parameters and missing ids fail cleanly.
func TestDebugTracesErrors(t *testing.T) {
	rec := trace.NewRecorder(trace.RecorderConfig{})
	_, sharded := shardedPair(t, 60, 600, 4, WithTracing(rec))
	for url, want := range map[string]int{
		"/debug/traces?id=zzzz":             http.StatusBadRequest,
		"/debug/traces?id=00000000000000ff": http.StatusNotFound,
		"/debug/traces?n=bogus":             http.StatusBadRequest,
		"/debug/traces/summary?n=-1":        http.StatusBadRequest,
		"/debug/traces":                     http.StatusOK,
	} {
		r, body := get(t, sharded, url)
		if r.Code != want {
			t.Fatalf("%s -> %d, want %d: %s", url, r.Code, want, body)
		}
	}
}

// TestTracedBFS: a forced BFS trace through the router records exec legs
// and per-round absorb spans.
func TestTracedBFS(t *testing.T) {
	rec := trace.NewRecorder(trace.RecorderConfig{})
	_, sharded := shardedPair(t, 60, 600, 4, WithTracing(rec))
	r, id := getTraced(t, sharded, "/bfs?src=0")
	if r.Code != 200 {
		t.Fatalf("bfs -> %d", r.Code)
	}
	tj := fetchTrace(t, sharded, id)
	if tj.Op != trace.OpBFS {
		t.Fatalf("op = %v", tj.Op)
	}
	var execs, absorbs int
	for _, sp := range tj.Spans {
		switch sp.Stage {
		case trace.StageExec:
			execs++
		case trace.StageAbsorb:
			absorbs++
		}
	}
	if execs == 0 || absorbs == 0 {
		t.Fatalf("bfs trace: %d execs, %d absorbs: %+v", execs, absorbs, tj.Spans)
	}
}
