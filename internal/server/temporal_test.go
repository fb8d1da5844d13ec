package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"testing"
	"time"

	"csrgraph/internal/edgelist"
	"csrgraph/internal/gen"
	"csrgraph/internal/tcsr"
	"csrgraph/internal/trace"
)

func temporalHandler(t *testing.T) *Handler {
	t.Helper()
	events := edgelist.TemporalList{
		{U: 0, V: 1, T: 0}, {U: 1, V: 2, T: 0},
		{U: 0, V: 1, T: 1}, // deletion
		{U: 0, V: 1, T: 2}, // re-add
	}
	tc, err := tcsr.BuildFromEvents(events, 3, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	return NewTemporal(tc, 2)
}

func TestTemporalHealthAndStats(t *testing.T) {
	h := temporalHandler(t)
	rec, body := get(t, h, "/healthz")
	if rec.Code != 200 || body == "" {
		t.Fatalf("healthz: %d %s", rec.Code, body)
	}
	rec, body = get(t, h, "/stats")
	if rec.Code != 200 {
		t.Fatal(body)
	}
	var out map[string]any
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out["frames"].(float64) != 3 || out["nodes"].(float64) != 3 {
		t.Fatalf("stats = %v", out)
	}
}

func TestTemporalActiveBatch(t *testing.T) {
	h := temporalHandler(t)
	rec, body := get(t, h, "/active?queries=0:1:0,0:1:1,0:1:2,1:2:2")
	if rec.Code != 200 {
		t.Fatal(body)
	}
	var out []struct {
		Active bool `json:"active"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	want := []bool{true, false, true, true}
	for i, w := range want {
		if out[i].Active != w {
			t.Fatalf("query %d: active = %v, want %v", i, out[i].Active, w)
		}
	}
}

func TestTemporalNeighbors(t *testing.T) {
	h := temporalHandler(t)
	rec, body := get(t, h, "/neighbors?node=0&frame=2")
	if rec.Code != 200 {
		t.Fatal(body)
	}
	var out struct {
		Neighbors []uint32 `json:"neighbors"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Neighbors) != 1 || out.Neighbors[0] != 1 {
		t.Fatalf("neighbors = %v", out.Neighbors)
	}
	// Empty row still yields an array, not null.
	_, body = get(t, h, "/neighbors?node=2&frame=0")
	if body == "" || body[0] == 0 {
		t.Fatal("no body")
	}
	var out2 struct {
		Neighbors []uint32 `json:"neighbors"`
	}
	if err := json.Unmarshal([]byte(body), &out2); err != nil {
		t.Fatal(err)
	}
	if out2.Neighbors == nil {
		t.Fatal("null neighbors array")
	}
}

// TestTemporalProbeBodies pins bodies the handler gave before it joined
// Handler, byte for byte.
func TestTemporalProbeBodies(t *testing.T) {
	h := temporalHandler(t)
	for _, c := range []struct {
		url  string
		code int
		body string
	}{
		{"/active?queries=0:1:0,1:2:2", 200, `[{"active":true,"t":0,"u":0,"v":1},{"active":true,"t":2,"u":1,"v":2}]` + "\n"},
		{"/neighbors?node=0&frame=2", 200, `{"frame":2,"neighbors":[1],"node":0}` + "\n"},
		{"/neighbors?node=2&frame=0", 200, `{"frame":0,"neighbors":[],"node":2}` + "\n"},
		{"/bfs?src=0&frame=2", 200, `{"distances":[0,1,2],"frame":2,"reached":3,"rounds":3,"src":0}` + "\n"},
		{"/active?queries=0:1:+1", 400, `{"error":"bad query \"0:1: 1\""}` + "\n"},
	} {
		rec, body := get(t, h, c.url)
		if rec.Code != c.code || body != c.body {
			t.Errorf("%s: %d %q, want %d %q", c.url, rec.Code, body, c.code, c.body)
		}
	}
}

func TestTemporalBadRequests(t *testing.T) {
	h := temporalHandler(t)
	for _, url := range []string{
		"/active",                   // missing
		"/active?queries=1:2",       // wrong arity
		"/active?queries=a:b:c",     // not numeric
		"/active?queries=0:1:99",    // frame out of range
		"/active?queries=9:9:0",     // node out of range
		"/neighbors?node=0",         // missing frame
		"/neighbors?node=9&frame=0", // node out of range
		"/neighbors?node=0&frame=9", // frame out of range
	} {
		rec, _ := get(t, h, url)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", url, rec.Code)
		}
	}
}

func TestGraphHandlerHealthz(t *testing.T) {
	h := testHandler(t)
	rec, _ := get(t, h, "/healthz")
	if rec.Code != 200 {
		t.Fatalf("healthz = %d", rec.Code)
	}
}

func TestTemporalBFS(t *testing.T) {
	h := temporalHandler(t)
	// Frame 0: edges 0-1 and 1-2 active (events are undirected adds at t=0).
	rec, body := get(t, h, "/bfs?src=0&frame=0")
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var out struct {
		Src       uint32  `json:"src"`
		Frame     int     `json:"frame"`
		Reached   int     `json:"reached"`
		Rounds    int     `json:"rounds"`
		Distances []int32 `json:"distances"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out.Src != 0 || out.Frame != 0 || len(out.Distances) != 3 {
		t.Fatalf("out = %+v", out)
	}
	if out.Distances[0] != 0 {
		t.Fatalf("src distance = %d, want 0", out.Distances[0])
	}
	// Frame 1 deleted edge 0-1: vertex 1 must now be farther or unreachable
	// from 0 than at frame 0.
	rec, body2 := get(t, h, "/bfs?src=0&frame=1")
	if rec.Code != 200 {
		t.Fatalf("frame 1 status %d: %s", rec.Code, body2)
	}
}

func TestTemporalBFSBadRequests(t *testing.T) {
	h := temporalHandler(t)
	for _, url := range []string{
		"/bfs",                // missing params
		"/bfs?src=0",          // missing frame
		"/bfs?src=0&frame=zz", // malformed frame
		"/bfs?src=99&frame=0", // src out of range
		"/bfs?src=0&frame=99", // frame out of range
		"/bfs?src=0&frame=-1", // negative frame
	} {
		rec, body := get(t, h, url)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", url, rec.Code, body)
		}
	}
}

// TestTemporalTraced: a temporal Handler built WithTracing serves
// /debug/traces, where an /active trace carries the batch endpoints'
// parse, exec, encode and write spans, and logs slow queries.
func TestTemporalTraced(t *testing.T) {
	rec := trace.NewRecorder(trace.RecorderConfig{SlowThreshold: time.Nanosecond})
	var buf bytes.Buffer
	tc, err := tcsr.BuildFromEvents(edgelist.TemporalList{{U: 0, V: 1, T: 0}, {U: 1, V: 2, T: 1}}, 3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	h := NewTemporal(tc, 2, WithTracing(rec), WithAccessLog(slog.New(slog.NewJSONHandler(&buf, nil))))
	r, id := getTraced(t, h, "/active?queries=0:1:0,1:2:1,1:2:0")
	if r.Code != 200 || len(id) != 16 {
		t.Fatalf("traced /active: code %d, id %q", r.Code, id)
	}
	tj := fetchTrace(t, h, id)
	if tj.Op != trace.OpActive {
		t.Fatalf("op = %v", tj.Op)
	}
	stages := map[trace.Stage]int{}
	for _, sp := range tj.Spans {
		stages[sp.Stage] = int(sp.Items)
	}
	for _, st := range []trace.Stage{trace.StageParse, trace.StageExec, trace.StageEncode} {
		if stages[st] != 3 {
			t.Fatalf("stage %v items = %d, want 3: %+v", st, stages[st], tj.Spans)
		}
	}
	if stages[trace.StageWrite] != r.Body.Len() {
		t.Fatalf("write span items = %d, want the %d body bytes", stages[trace.StageWrite], r.Body.Len())
	}
	if r, body := get(t, h, "/debug/traces/summary?op=active"); r.Code != 200 || !strings.Contains(body, `"active"`) {
		t.Fatalf("summary: %d %s", r.Code, body)
	}
	if !strings.Contains(buf.String(), `"msg":"slow query"`) || !strings.Contains(buf.String(), id) {
		t.Fatalf("no slow query record for %s:\n%s", id, buf.String())
	}
}

// TestFrameRowReusesBuffer: a /bfs?frame=t traversal decodes each row into
// the buffer it passes back, so a warm frameSource.Row allocates nothing.
func TestFrameRowReusesBuffer(t *testing.T) {
	events, err := gen.TemporalStream(300, 3000, 100, 8, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := tcsr.BuildFromEvents(events, 300, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, interval := range []int{8, 3} {
		ck, err := pt.Checkpoint(interval, 2)
		if err != nil {
			t.Fatal(err)
		}
		f := frameSource{pt: ck, t: 7}
		var buf []uint32
		for u := uint32(0); u < 300; u++ {
			buf = f.Row(buf, u)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			for u := uint32(0); u < 300; u++ {
				buf = f.Row(buf, u)
			}
		}); allocs != 0 {
			t.Fatalf("interval %d: warm Row allocates %.1f times per pass", interval, allocs)
		}
	}
}
