package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"csrgraph/internal/csr"
	"csrgraph/internal/edgelist"
	"csrgraph/internal/obs"
	"csrgraph/internal/shard"
	"csrgraph/internal/tcsr"
)

func testGraph() *csr.Packed {
	l := edgelist.List{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}, {U: 2, V: 3},
	}
	return csr.BuildPacked(l, 4, 2)
}

// TestStatsObservabilityFields holds /stats of New and of a four-shard
// NewSharded to one shape: node and edge counts, the packed footprint summed
// over the shards, and uptime.
func TestStatsObservabilityFields(t *testing.T) {
	pk := testGraph()
	part, pks, err := shard.PartitionSource(pk, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([][]*shard.Engine, len(pks))
	size := int64(0)
	for s, spk := range pks {
		engines[s] = shard.NewReplicas(s, 1, spk, shard.EngineConfig{})
		size += spk.SizeBytes()
	}
	rt, err := shard.NewRouter(part, engines, shard.RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		h    *Handler
		size int64
	}{"New": {New(pk, 2), pk.SizeBytes()}, "NewSharded": {NewSharded(rt, 2), size}} {
		rec, body := get(t, c.h, "/stats")
		if rec.Code != 200 {
			t.Fatalf("%s: status %d: %s", name, rec.Code, body)
		}
		var out struct {
			Nodes     int      `json:"nodes"`
			Edges     *int     `json:"edges"`
			SizeBytes *int64   `json:"size_bytes"`
			Uptime    *float64 `json:"uptime_seconds"`
		}
		if err := json.Unmarshal([]byte(body), &out); err != nil {
			t.Fatal(err)
		}
		if out.Nodes != pk.NumNodes() {
			t.Fatalf("%s: stats node count: %s", name, body)
		}
		if out.Edges == nil || *out.Edges != pk.NumEdges() {
			t.Fatalf("%s: stats missing edge count: %s", name, body)
		}
		if out.SizeBytes == nil || *out.SizeBytes != c.size {
			t.Fatalf("%s: stats missing packed footprint %d: %s", name, c.size, body)
		}
		if out.Uptime == nil || *out.Uptime < 0 {
			t.Fatalf("%s: stats missing uptime: %s", name, body)
		}
	}
}

func TestErrorPathBodies(t *testing.T) {
	h := testHandler(t)
	cases := []struct {
		url  string
		code int
		want string // substring of the JSON error body
	}{
		{"/neighbors?nodes=abc", http.StatusBadRequest, "bad node id"},
		{"/exists?edges=1-2", http.StatusBadRequest, "want u:v"},
		{"/exists?edges=0:99", http.StatusBadRequest, "out of range"},
		{"/bfs?src=99", http.StatusBadRequest, "src must be a single node id"},
		{"/neighbors?nodes=7", http.StatusBadRequest, "out of range"},
	}
	for _, c := range cases {
		rec, body := get(t, h, c.url)
		if rec.Code != c.code {
			t.Errorf("%s: status %d, want %d (%s)", c.url, rec.Code, c.code, body)
			continue
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q, want application/json", c.url, ct)
		}
		var out struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal([]byte(body), &out); err != nil {
			t.Errorf("%s: body is not a JSON error object: %s", c.url, body)
			continue
		}
		if !strings.Contains(out.Error, c.want) {
			t.Errorf("%s: error %q does not mention %q", c.url, out.Error, c.want)
		}
	}
}

func TestOversizedBatchBody(t *testing.T) {
	h := testHandler(t)
	var sb strings.Builder
	for i := 0; i <= maxBatch; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteByte('0')
	}
	rec, body := get(t, h, "/exists?edges="+strings.ReplaceAll(sb.String(), "0", "0:1"))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 for oversized batch", rec.Code)
	}
	var out struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil || !strings.Contains(out.Error, "exceeds limit") {
		t.Fatalf("oversized batch body = %s", body)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	h := New(testGraph(), 2, WithMetrics(), WithRowCache(1<<20))
	defer obs.SetEnabled(false)

	// Drive traffic through every instrumented subsystem first.
	for _, url := range []string{"/neighbors?nodes=0,1,2", "/exists?edges=0:1,2:3", "/stats"} {
		if rec, body := get(t, h, url); rec.Code != 200 {
			t.Fatalf("%s: status %d: %s", url, rec.Code, body)
		}
	}

	rec, body := get(t, h, "/metrics")
	if rec.Code != 200 {
		t.Fatalf("GET /metrics = %d: %s", rec.Code, body)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	for _, want := range []string{
		"# TYPE csrgraph_pool_dyn_jobs_total counter",
		"csrgraph_pool_grabs_total ",
		`csrgraph_query_batch_size_count{op="neighbors"}`,
		`csrgraph_query_dispatch_total{path="search"}`,
		`csrgraph_http_request_seconds_bucket{path="/neighbors",le="+Inf"}`,
		`csrgraph_http_responses_total{path="/neighbors",code="2xx"}`,
		"csrgraph_rowcache_hits_total",
		"csrgraph_uptime_seconds",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestMetricsAbsentByDefault(t *testing.T) {
	rec, _ := get(t, testHandler(t), "/metrics")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("GET /metrics without WithMetrics = %d, want 404", rec.Code)
	}
}

func TestPprofMount(t *testing.T) {
	h := New(testGraph(), 1, WithPprof())
	rec, body := get(t, h, "/debug/pprof/")
	if rec.Code != 200 || !strings.Contains(body, "profile") {
		t.Fatalf("pprof index = %d: %.120s", rec.Code, body)
	}
	rec, _ = get(t, testHandler(t), "/debug/pprof/")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("pprof without WithPprof = %d, want 404", rec.Code)
	}
}

func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	log := slog.New(slog.NewJSONHandler(&buf, nil))
	h := New(testGraph(), 1, WithAccessLog(log))

	rec, _ := get(t, h, "/degree?nodes=0")
	if id := rec.Header().Get("X-Request-ID"); id == "" {
		t.Fatal("no X-Request-ID header")
	}
	get(t, h, "/neighbors?nodes=abc") // 400: still logged

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 access-log records, got %d: %s", len(lines), buf.String())
	}
	var entry struct {
		Msg    string `json:"msg"`
		Method string `json:"method"`
		Path   string `json:"path"`
		Status int    `json:"status"`
		Bytes  int64  `json:"bytes"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &entry); err != nil {
		t.Fatal(err)
	}
	if entry.Msg != "request" || entry.Method != "GET" || entry.Path != "/degree" ||
		entry.Status != 200 || entry.Bytes == 0 {
		t.Fatalf("access log record = %+v", entry)
	}
	if err := json.Unmarshal([]byte(lines[1]), &entry); err != nil {
		t.Fatal(err)
	}
	if entry.Path != "/neighbors" || entry.Status != http.StatusBadRequest {
		t.Fatalf("error record = %+v", entry)
	}
}

func TestWriteJSONEncodeFailure(t *testing.T) {
	var buf bytes.Buffer
	log := slog.New(slog.NewTextHandler(&buf, nil))
	before := jsonEncodeErrors.Value()

	obs.SetEnabled(true)
	defer obs.SetEnabled(false)

	rec, _ := get(t, testHandler(t), "/healthz") // sanity: normal encode is silent
	if rec.Code != 200 {
		t.Fatal("healthz failed")
	}
	if jsonEncodeErrors.Value() != before {
		t.Fatal("successful encode counted as failure")
	}

	h := &Handler{o: newHTTPObs(config{accessLog: log})}
	h.writeJSON(httptest.NewRecorder(), func() {}) // funcs are not JSON-encodable
	if jsonEncodeErrors.Value() != before+1 {
		t.Fatalf("encode failure not counted: %d -> %d", before, jsonEncodeErrors.Value())
	}
	if !strings.Contains(buf.String(), "json encode failed") {
		t.Fatalf("encode failure not logged: %s", buf.String())
	}
}

func TestTemporalHandlerMetrics(t *testing.T) {
	snaps := []edgelist.List{
		{{U: 0, V: 1}},
		{{U: 0, V: 1}, {U: 1, V: 2}},
	}
	pt := tcsr.BuildFromSnapshots(snaps, 3, 2)
	h := NewTemporal(pt, 2, WithMetrics())
	defer obs.SetEnabled(false)

	rec, body := get(t, h, "/active?queries=0:1:0,1:2:0,1:2:1")
	if rec.Code != 200 {
		t.Fatalf("active = %d: %s", rec.Code, body)
	}
	rec, body = get(t, h, "/stats")
	if rec.Code != 200 || !strings.Contains(body, "uptime_seconds") {
		t.Fatalf("temporal stats missing uptime: %s", body)
	}
	rec, body = get(t, h, "/metrics")
	if rec.Code != 200 ||
		!strings.Contains(body, `csrgraph_http_request_seconds_count{path="/active"}`) {
		t.Fatalf("temporal /metrics = %d: %.200s", rec.Code, body)
	}
}
