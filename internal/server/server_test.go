package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"csrgraph/internal/csr"
	"csrgraph/internal/edgelist"
)

func testHandler(t *testing.T) *Handler {
	t.Helper()
	l := edgelist.List{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}, {U: 2, V: 3},
	}
	pk := csr.BuildPacked(l, 4, 2)
	return New(pk, 2)
}

func get(t *testing.T, h http.Handler, url string) (*httptest.ResponseRecorder, string) {
	t.Helper()
	req := httptest.NewRequest("GET", url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec, rec.Body.String()
}

func TestStats(t *testing.T) {
	rec, body := get(t, testHandler(t), "/stats")
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var out map[string]any
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out["nodes"].(float64) != 4 {
		t.Fatalf("stats = %v", out)
	}
}

func TestNeighbors(t *testing.T) {
	rec, body := get(t, testHandler(t), "/neighbors?nodes=0,3")
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var out []struct {
		Node      uint32   `json:"node"`
		Neighbors []uint32 `json:"neighbors"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || len(out[0].Neighbors) != 2 || len(out[1].Neighbors) != 0 {
		t.Fatalf("out = %+v", out)
	}
}

func TestDegree(t *testing.T) {
	rec, body := get(t, testHandler(t), "/degree?nodes=0,1,3")
	if rec.Code != 200 {
		t.Fatal(body)
	}
	var out []struct {
		Node   uint32 `json:"node"`
		Degree int    `json:"degree"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out[0].Degree != 2 || out[1].Degree != 1 || out[2].Degree != 0 {
		t.Fatalf("out = %+v", out)
	}
}

func TestExists(t *testing.T) {
	rec, body := get(t, testHandler(t), "/exists?edges=0:1,1:0,2:3")
	if rec.Code != 200 {
		t.Fatal(body)
	}
	var out []struct {
		U, V   uint32
		Exists bool `json:"exists"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if !out[0].Exists || out[1].Exists || !out[2].Exists {
		t.Fatalf("out = %+v", out)
	}
}

func TestBFSEndpoint(t *testing.T) {
	rec, body := get(t, testHandler(t), "/bfs?src=0")
	if rec.Code != 200 {
		t.Fatal(body)
	}
	var out struct {
		Src       uint32  `json:"src"`
		Reached   int     `json:"reached"`
		Distances []int32 `json:"distances"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out.Reached != 4 || out.Distances[3] != 2 {
		t.Fatalf("out = %+v", out)
	}
}

func TestBadRequests(t *testing.T) {
	h := testHandler(t)
	for _, url := range []string{
		"/neighbors",           // missing param
		"/neighbors?nodes=abc", // not a number
		"/neighbors?nodes=99",  // out of range
		"/degree?nodes=",       // empty
		"/exists?edges=1",      // missing colon
		"/exists?edges=1:x",    // bad v
		"/exists?edges=9:9",    // out of range
		"/bfs?src=1,2",         // multiple sources
		"/bfs",                 // missing
	} {
		rec, body := get(t, h, url)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", url, rec.Code, body)
		}
		if !strings.Contains(body, "error") {
			t.Errorf("%s: no error payload: %s", url, body)
		}
	}
}

func TestBatchLimit(t *testing.T) {
	h := testHandler(t)
	var sb strings.Builder
	for i := 0; i <= maxBatch; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteByte('0')
	}
	rec, _ := get(t, h, "/neighbors?nodes="+sb.String())
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 for oversized batch", rec.Code)
	}
}

func TestMethodRouting(t *testing.T) {
	h := testHandler(t)
	req := httptest.NewRequest("POST", "/stats", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /stats = %d, want 405", rec.Code)
	}
}

// rowTableStats is one replica's row-table counters as /stats reports them.
type rowTableStats struct {
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Entries int64 `json:"entries"`
	Bytes   int64 `json:"bytes"`
	MaxB    int64 `json:"max_bytes"`
}

// firstReplicaCache reads shards[0].replicas[0].cache from h's /stats; nil
// when the replica has no row table.
func firstReplicaCache(t *testing.T, h *Handler) *rowTableStats {
	t.Helper()
	_, body := get(t, h, "/stats")
	var out struct {
		Shards []struct {
			Replicas []struct {
				Cache *rowTableStats `json:"cache"`
			} `json:"replicas"`
		} `json:"shards"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Shards) == 0 || len(out.Shards[0].Replicas) == 0 {
		t.Fatalf("stats without shard 0 replica 0: %s", body)
	}
	return out.Shards[0].Replicas[0].Cache
}

func TestRowCacheStatsEndpoint(t *testing.T) {
	l := edgelist.List{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}, {U: 2, V: 3},
	}
	pk := csr.BuildPacked(l, 4, 2)
	h := New(pk, 2, WithRowCache(1<<20))
	// First fetch misses, repeats hit.
	for i := 0; i < 3; i++ {
		if rec, body := get(t, h, "/neighbors?nodes=0,1"); rec.Code != 200 {
			t.Fatalf("status %d: %s", rec.Code, body)
		}
	}
	st := firstReplicaCache(t, h)
	if st == nil || st.Misses != 2 || st.Hits != 4 || st.Entries != 2 || st.MaxB != 1<<20 {
		t.Fatalf("row table stats = %+v", st)
	}
	// Cached responses must match uncached ones.
	_, cached := get(t, h, "/neighbors?nodes=0,1,3")
	_, plain := get(t, New(pk, 2), "/neighbors?nodes=0,1,3")
	if cached != plain {
		t.Fatalf("cached response diverged:\n%s\n%s", cached, plain)
	}
}

// TestExistsLeavesRowCacheEmpty pins the row table to /neighbors: repeated
// /exists probes on a hub row admit nothing and count no lookups, and the
// answers match a server without a table.
func TestExistsLeavesRowCacheEmpty(t *testing.T) {
	var l edgelist.List
	for v := uint32(1); v < 600; v += 2 {
		l = append(l, edgelist.Edge{U: 0, V: v})
	}
	l = append(l, edgelist.Edge{U: 5, V: 0})
	pk := csr.BuildPacked(l, 600, 2)
	h := New(pk, 2, WithRowCache(64<<20))
	const url = "/exists?edges=0:1,0:2,0:599,0:598,5:0,5:1,7:0"
	var body string
	for i := 0; i < 3; i++ {
		var rec *httptest.ResponseRecorder
		if rec, body = get(t, h, url); rec.Code != 200 {
			t.Fatalf("status %d: %s", rec.Code, body)
		}
	}
	if _, plain := get(t, New(pk, 2), url); body != plain {
		t.Fatalf("table-fronted server answered differently:\n%s\n%s", body, plain)
	}
	// The slot array (8 B per row) is all the table holds.
	st := firstReplicaCache(t, h)
	if st == nil || st.Entries != 0 || st.Bytes != 600*8 || st.Hits+st.Misses != 0 {
		t.Fatalf("row table after /exists only = %+v", st)
	}
}

// TestRowCacheDisabled: a zero budget, or one the slot array alone exceeds,
// builds no table, and /stats shows none.
func TestRowCacheDisabled(t *testing.T) {
	l := edgelist.List{{U: 0, V: 1}}
	for _, budget := range []int64{0, 15} {
		h := New(csr.BuildPacked(l, 2, 1), 1, WithRowCache(budget))
		if rec, _ := get(t, h, "/neighbors?nodes=0"); rec.Code != 200 {
			t.Fatalf("budget %d: neighbors failed without a table", budget)
		}
		if st := firstReplicaCache(t, h); st != nil {
			t.Fatalf("budget %d: stats advertise a disabled table: %+v", budget, st)
		}
	}
}

func TestAnalyticsBFSBatch(t *testing.T) {
	// Repeated src params and comma lists both contribute sources.
	rec, body := get(t, testHandler(t), "/analytics/bfs?src=0&src=2,3")
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var out []struct {
		Src          uint32  `json:"src"`
		Reached      int     `json:"reached"`
		Rounds       int     `json:"rounds"`
		SparseRounds int     `json:"sparse_rounds"`
		DenseRounds  int     `json:"dense_rounds"`
		Distances    []int32 `json:"distances"`
	}
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("got %d results, want 3", len(out))
	}
	// Graph: 0→1, 0→2, 1→2, 2→3.
	if out[0].Src != 0 || out[0].Reached != 4 || len(out[0].Distances) != 4 {
		t.Fatalf("src 0: %+v", out[0])
	}
	if out[1].Src != 2 || out[1].Reached != 2 {
		t.Fatalf("src 2: %+v", out[1])
	}
	if out[2].Src != 3 || out[2].Reached != 1 {
		t.Fatalf("src 3: %+v", out[2])
	}
	for _, r := range out {
		if r.Rounds != r.SparseRounds+r.DenseRounds {
			t.Fatalf("round stats inconsistent: %+v", r)
		}
		if r.Rounds == 0 && r.Reached > 1 {
			t.Fatalf("missing round stats: %+v", r)
		}
	}
}

func TestAnalyticsBFSBadRequests(t *testing.T) {
	h := testHandler(t)
	for _, url := range []string{
		"/analytics/bfs",          // missing src
		"/analytics/bfs?src=",     // empty src
		"/analytics/bfs?src=999",  // out of range
		"/analytics/bfs?src=0,zz", // malformed
	} {
		rec, body := get(t, h, url)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", url, rec.Code, body)
		}
	}
	// Source-count cap.
	srcs := make([]string, maxBFSSources+1)
	for i := range srcs {
		srcs[i] = "0"
	}
	rec, body := get(t, h, "/analytics/bfs?src="+strings.Join(srcs, ","))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized batch: status %d, want 400: %s", rec.Code, body)
	}
}

func TestBFSSingleSrcOutOfRangeIs400(t *testing.T) {
	rec, body := get(t, testHandler(t), "/bfs?src=999")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", rec.Code, body)
	}
}
