package server

import (
	"encoding/json"
	"net/http"
	"testing"

	"csrgraph/internal/edgelist"
	"csrgraph/internal/tcsr"
)

func temporalHandler(t *testing.T) *TemporalHandler {
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
