package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"csrgraph/internal/algo"
	"csrgraph/internal/csr"
	"csrgraph/internal/edgelist"
	"csrgraph/internal/frontier"
	"csrgraph/internal/gen"
	"csrgraph/internal/tcsr"
)

// The wire path this package had before wire.go, kept as the reference the
// scanner and the encoders are held against: url.Values + strings.Split
// parsers, and []map[string]any through encoding/json.

func refParseNodes(s string, n int) ([]edgelist.NodeID, error) {
	if s == "" {
		return nil, fmt.Errorf("missing nodes parameter")
	}
	parts := strings.Split(s, ",")
	if len(parts) > maxBatch {
		return nil, fmt.Errorf("batch of %d exceeds limit %d", len(parts), maxBatch)
	}
	out := make([]edgelist.NodeID, len(parts))
	for i, part := range parts {
		v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad node id %q", part)
		}
		if int(v) >= n {
			return nil, fmt.Errorf("node %d out of range [0,%d)", v, n)
		}
		out[i] = uint32(v)
	}
	return out, nil
}

func refParseEdges(s string, n int) ([]edgelist.Edge, error) {
	if s == "" {
		return nil, fmt.Errorf("missing edges parameter")
	}
	parts := strings.Split(s, ",")
	if len(parts) > maxBatch {
		return nil, fmt.Errorf("batch of %d exceeds limit %d", len(parts), maxBatch)
	}
	out := make([]edgelist.Edge, len(parts))
	for i, part := range parts {
		uv := strings.SplitN(strings.TrimSpace(part), ":", 2)
		if len(uv) != 2 {
			return nil, fmt.Errorf("bad edge %q, want u:v", part)
		}
		u, err := strconv.ParseUint(uv[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad edge %q", part)
		}
		v, err := strconv.ParseUint(uv[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad edge %q", part)
		}
		if int(u) >= n || int(v) >= n {
			return nil, fmt.Errorf("edge %q out of range [0,%d)", part, n)
		}
		out[i] = edgelist.Edge{U: uint32(u), V: uint32(v)}
	}
	return out, nil
}

// refParseActive is the /active parser of the handler before it joined the
// wire path, the reference the queries grammar is held against.
func refParseActive(s string, n, frames int) ([]tcsr.ActivityQuery, error) {
	if s == "" {
		return nil, fmt.Errorf("missing queries parameter")
	}
	parts := strings.Split(s, ",")
	if len(parts) > maxBatch {
		return nil, fmt.Errorf("batch of %d exceeds limit %d", len(parts), maxBatch)
	}
	queries := make([]tcsr.ActivityQuery, len(parts))
	for i, part := range parts {
		fields := strings.Split(strings.TrimSpace(part), ":")
		if len(fields) != 3 {
			return nil, fmt.Errorf("bad query %q, want u:v:t", part)
		}
		u, err1 := strconv.ParseUint(fields[0], 10, 32)
		v, err2 := strconv.ParseUint(fields[1], 10, 32)
		t, err3 := strconv.Atoi(fields[2])
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("bad query %q", part)
		}
		if t < 0 || t >= frames {
			return nil, fmt.Errorf("frame %d out of range [0,%d)", t, frames)
		}
		if int(u) >= n || int(v) >= n {
			return nil, fmt.Errorf("query %q out of node range [0,%d)", part, n)
		}
		queries[i] = tcsr.ActivityQuery{U: uint32(u), V: uint32(v), T: t}
	}
	return queries, nil
}

func refQueryGet(rawQuery, key string) string {
	return (&url.URL{RawQuery: rawQuery}).Query().Get(key)
}

func refJSON(t testing.TB, v any) string {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// refResponse answers path?rawQuery the old way on h's router: status and
// body.
func refResponse(t testing.TB, h *Handler, path, rawQuery string) (int, string) {
	t.Helper()
	fail := func(err error) (int, string) {
		return http.StatusBadRequest, refJSON(t, map[string]string{"error": err.Error()})
	}
	n := h.numNodes()
	var out []map[string]any
	switch path {
	case "/exists":
		edges, err := refParseEdges(refQueryGet(rawQuery, "edges"), n)
		if err != nil {
			return fail(err)
		}
		results, err := h.rt.EdgesExistBatch(edges)
		if err != nil {
			return fail(err)
		}
		out = make([]map[string]any, len(edges))
		for i, e := range edges {
			out[i] = map[string]any{"u": e.U, "v": e.V, "exists": results[i]}
		}
	case "/degree":
		nodes, err := refParseNodes(refQueryGet(rawQuery, "nodes"), n)
		if err != nil {
			return fail(err)
		}
		results, err := h.rt.DegreeBatch(nodes)
		if err != nil {
			return fail(err)
		}
		out = make([]map[string]any, len(nodes))
		for i, u := range nodes {
			out[i] = map[string]any{"node": u, "degree": results[i]}
		}
	case "/neighbors":
		nodes, err := refParseNodes(refQueryGet(rawQuery, "nodes"), n)
		if err != nil {
			return fail(err)
		}
		results, err := h.rt.NeighborsBatch(nodes)
		if err != nil {
			return fail(err)
		}
		out = make([]map[string]any, len(nodes))
		for i, u := range nodes {
			row := results[i]
			if row == nil {
				row = []uint32{}
			}
			out[i] = map[string]any{"node": u, "neighbors": row}
		}
	default:
		t.Fatalf("no reference for %s", path)
	}
	return http.StatusOK, refJSON(t, out)
}

// serve runs one request built without net/http's request-line parser, so
// any byte sequence can stand in the query string.
func serve(h http.Handler, path, rawQuery string) *httptest.ResponseRecorder {
	req := httptest.NewRequest("GET", path, nil)
	req.URL.RawQuery = rawQuery
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// checkAgainstRef holds one request's status, headers and body against the
// reference.
func checkAgainstRef(t *testing.T, name string, h *Handler, path, rawQuery string) {
	t.Helper()
	wantCode, wantBody := refResponse(t, h, path, rawQuery)
	rec := serve(h, path, rawQuery)
	show := rawQuery
	if len(show) > 120 {
		show = show[:120] + "…"
	}
	if rec.Code != wantCode {
		t.Fatalf("%s %s?%s: status %d, want %d (%s)", name, path, show, rec.Code, wantCode, rec.Body.String())
	}
	if got := rec.Body.String(); got != wantBody {
		t.Fatalf("%s %s?%s: body differs from the reference:\n got %.300q\nwant %.300q", name, path, show, got, wantBody)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s %s?%s: Content-Type %q", name, path, show, ct)
	}
	if wantCode == http.StatusOK {
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(wantBody)) {
			t.Fatalf("%s %s?%s: Content-Length %q for a body of %d bytes", name, path, show, cl, len(wantBody))
		}
	}
}

// wireBackends is every backend form the batch endpoints run on: the plain
// engine with and without its row cache, and routers of one and four
// shards, all over the same sparse graph (a third of its nodes have no
// out-edges).
func wireBackends(t *testing.T) (names []string, hs []*Handler, n int) {
	t.Helper()
	const nodes, edges = 300, 900
	single, one := shardedPair(t, nodes, edges, 1)
	cached, four := shardedPair(t, nodes, edges, 4, WithRowCache(1<<20))
	return []string{"single", "single+rowcache", "sharded-1", "sharded-4"},
		[]*Handler{single, cached, one, four}, nodes
}

// Wide graph of wideBackends: a node space of seven digits, and a hub whose
// row runs through every digit count from one to seven.
const (
	wideNodes  = 1 << 20
	wideHub    = 654321
	wideDegree = 3000
)

// wideID draws an id of the wide graph with every digit count about
// equally likely.
func wideID(rng *rand.Rand) uint32 {
	hi := uint32(10)
	for d := rng.Intn(7); d > 0; d-- {
		hi *= 10
	}
	lo := hi / 10
	if lo == 1 {
		lo = 0
	}
	return lo + uint32(rng.Int63n(int64(min(hi, wideNodes)-lo)))
}

// wideBackends is wireBackends over the wide graph: ids the 300-node graph
// never shows the encoders, and a reply too large to go back to the pool.
func wideBackends(t *testing.T) (names []string, hs []*Handler) {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	l := edgelist.List{{U: wideHub, V: 0}, {U: wideHub, V: wideNodes - 1}}
	for seen := map[uint32]bool{0: true, wideNodes - 1: true}; len(seen) < wideDegree; {
		if v := wideID(rng); !seen[v] {
			seen[v] = true
			l = append(l, edgelist.Edge{U: wideHub, V: v})
		}
	}
	for i := 0; i < 4000; i++ {
		l = append(l, edgelist.Edge{U: wideID(rng), V: wideID(rng)})
	}
	single, one := handlerPair(t, l, wideNodes, 1)
	cached, four := handlerPair(t, l, wideNodes, 4, WithRowCache(1<<20))
	return []string{"wide-single", "wide-single+rowcache", "wide-sharded-1", "wide-sharded-4"},
		[]*Handler{single, cached, one, four}
}

// checkBodies holds random batches of the three endpoints, ids drawn from
// id, against the reference on every handler.
func checkBodies(t *testing.T, names []string, hs []*Handler, rounds, maxItems int, rng *rand.Rand, id func() uint32) {
	t.Helper()
	for round := 0; round < rounds; round++ {
		items := 1 + rng.Intn(maxItems)
		var nodes, edges []string
		for i := 0; i < items; i++ {
			u := id()
			if i > 0 && rng.Intn(6) == 0 {
				nodes = append(nodes, nodes[rng.Intn(i)]) // duplicate item
				edges = append(edges, edges[rng.Intn(i)])
				continue
			}
			nodes = append(nodes, strconv.Itoa(int(u)))
			edges = append(edges, fmt.Sprintf("%d:%d", u, id()))
		}
		for i, h := range hs {
			// Twice: the second pass reads the row tables and caches the
			// first one filled, the copy-free rows.
			for pass := 0; pass < 2; pass++ {
				checkAgainstRef(t, names[i], h, "/neighbors", "nodes="+strings.Join(nodes, ","))
				checkAgainstRef(t, names[i], h, "/degree", "nodes="+strings.Join(nodes, ","))
				checkAgainstRef(t, names[i], h, "/exists", "edges="+strings.Join(edges, ","))
			}
		}
	}
}

func TestWireBodiesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	names, hs, n := wireBackends(t)
	checkBodies(t, names, hs, 60, 300, rng, func() uint32 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return uint32(n - 1)
		}
		return uint32(rng.Intn(n))
	})
	names, hs = wideBackends(t)
	checkBodies(t, names, hs, 10, 100, rng, func() uint32 {
		switch rng.Intn(16) {
		case 0:
			return wideHub
		case 1:
			return wideNodes - 1
		}
		return wideID(rng)
	})
}

// TestWireGrammarMatchesReference walks the corners of what
// r.URL.Query().Get + strings.Split accepted and refused: same status, same
// body, same error text.
func TestWireGrammarMatchesReference(t *testing.T) {
	names, hs, _ := wireBackends(t)
	nodeQueries := []string{
		"", "nodes", "nodes=", "x=1", "nodes=0", "nodes=0,299", "nodes=300", "nodes=4294967296",
		"nodes=99999999999999999999999", "nodes=0000000000000000000000007", "nodes=1,,2", "nodes=1,", "nodes=,1",
		"nodes=abc", "nodes=-1", "nodes=+1", "nodes=%2B1", "nodes=1_0", "nodes=0x1", "nodes=1.0",
		"nodes=1%2C2", "nodes=1%2c2,3", "nodes=+1,2+,+3+", "nodes=%201%20,%092", "nodes=1 ,\t2", "nodes=1 , 2",
		"nodes=1%", "nodes=1%zz", "nodes=1%zz&nodes=2", "nodes=1;2", "nodes=1;2&nodes=3", "a;nodes=1&nodes=2",
		"x=1&nodes=5&nodes=6", "nodes=5&nodes=abc", "nodes=&nodes=5", "%6eodes=7", "%6Eodes=7&nodes=8", "n%6fdes=9",
		"nodes%3D1=2", "nodes=1=2", "nodes==1", "&&nodes=3&&", "Nodes=1", "nodes=1&", "nodes=1%26nodes=2",
		"nodes=12,300,abc", "nodes=12,abc,300", "nodes=7%2C8%2C9&x=%zz", "edges=1:2", "nodes=1:2",
		"nodes=" + strings.Repeat("1,", 70) + "2", "nodes=" + strings.Repeat("%31,", 70) + "2",
	}
	edgeQueries := []string{
		"", "edges=", "edges=0:1", "edges=0:1,299:299", "edges=0:300", "edges=300:0", "edges=1", "edges=1:", "edges=:1",
		"edges=:", "edges=1:2:3", "edges=1::2", "edges=1-2", "edges=1:x", "edges=x:1", "edges=1:2,", "edges=,1:2",
		"edges=1:2,,3:4", "edges=4294967296:1", "edges=1:4294967296", "edges=1:99999999999999999999",
		"edges=001:0002", "edges=1%3A2", "edges=1%3a2,3:4", "edges=+1:2+", "edges=1+:2", "edges=1:+2", "edges=%201:2",
		"edges=1:2 ,3:4", "edges=1:2;3:4", "edges=1:2;3:4&edges=5:6", "edges=1:2%", "edges=1:2&edges=zz",
		"%65dges=1:2", "edges=1:2=3", "nodes=1&edges=2:3", "edges=1,2:3", "edges=1:2,3", "edges=1:2,300:1,x",
	}
	for i, h := range hs {
		for _, q := range nodeQueries {
			checkAgainstRef(t, names[i], h, "/neighbors", q)
			checkAgainstRef(t, names[i], h, "/degree", q)
		}
		for _, q := range edgeQueries {
			checkAgainstRef(t, names[i], h, "/exists", q)
		}
	}
}

// overLimit is a batch one item past maxBatch.
func overLimit(item string) string {
	return strings.Repeat(item+",", maxBatch) + item
}

// TestBatchLimitOrder pins the order of refusal around maxBatch: exactly
// the limit is served, one more is refused with the full count, the limit
// outranks a bad item anywhere, and a dropped pair outranks both.
func TestBatchLimitOrder(t *testing.T) {
	names, hs, _ := wireBackends(t)
	atLimit := overLimit("7")[2:]
	for i, h := range hs[:1] {
		checkAgainstRef(t, names[i], h, "/degree", "nodes="+atLimit)
		checkAgainstRef(t, names[i], h, "/degree", "nodes="+overLimit(" 7")[3:]) // every item the tolerant way
		for _, q := range []string{
			"nodes=" + overLimit("7"),
			"nodes=abc," + overLimit("7"),
			"nodes=" + overLimit("7") + ",abc",
			"nodes=" + overLimit("7") + ";",
			"nodes=" + overLimit("7") + "%2C1",
			"nodes=" + overLimit(" 7"),
			"nodes=" + overLimit("7") + "&nodes=1",
		} {
			checkAgainstRef(t, names[i], h, "/degree", q)
		}
		checkAgainstRef(t, names[i], h, "/exists", "edges="+overLimit("1:2"))
		checkAgainstRef(t, names[i], h, "/exists", "edges="+overLimit("1:2")+",1")
	}
}

// nullWriter is a ResponseWriter that keeps only the status.
type nullWriter struct {
	h    http.Header
	code int
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) WriteHeader(code int)        { w.code = code }
func (w *nullWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestOversizedBatchIsRefusedCheaply is the regression test for the parser
// that split a 1 MB query line into half a million strings before counting
// them: the refusal must not allocate in proportion to the input.
func TestOversizedBatchIsRefusedCheaply(t *testing.T) {
	h := testHandler(t)
	query := "edges=" + strings.Repeat("0:1,", 1<<18) + "0:1" // 1 MiB, 262145 items
	rec := serve(h, "/exists", query)
	want := fmt.Sprintf("{\"error\":\"batch of %d exceeds limit %d\"}\n", 1<<18+1, maxBatch)
	if rec.Code != http.StatusBadRequest || rec.Body.String() != want {
		t.Fatalf("status %d body %.200q, want 400 %q", rec.Code, rec.Body.String(), want)
	}

	req := httptest.NewRequest("GET", "/exists", nil)
	req.URL.RawQuery = query
	w := &nullWriter{h: make(http.Header)}
	run := func() {
		clear(w.h)
		h.ServeHTTP(w, req)
		if w.code != http.StatusBadRequest {
			t.Fatalf("status %d", w.code)
		}
	}
	run() // the pooled item slice grows to maxBatch once
	if raceEnabled {
		return
	}
	if allocs := testing.AllocsPerRun(20, run); allocs > 16 {
		t.Errorf("refusing an oversized batch makes %.0f allocations, want <= 16", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 20
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 16<<10 {
		t.Errorf("refusing a 1 MiB batch allocates %d bytes, want <= 16 KiB", per)
	}
}

// TestOversizedReplyIsRefusedCheaply is the regression test for the
// /neighbors answer nothing bounded: a batch inside maxBatch that repeats a
// hub asked for 11 bytes of buffer per neighbour of the sum. It is refused
// with 413 before the buffer is reserved, on rows the row table shares, so
// the refusal allocates nothing in proportion to the answer.
func TestOversizedReplyIsRefusedCheaply(t *testing.T) {
	const degree = 2500
	l := make(edgelist.List, degree)
	for v := range l {
		l[v] = edgelist.Edge{U: 0, V: uint32(v + 1)}
	}
	single, router := handlerPair(t, l, degree+1, 1)
	batch := func(repeats int) string { return "nodes=" + strings.Repeat("0,", repeats-1) + "0" }

	const over = maxReplyNeighbors/degree + 1
	want := fmt.Sprintf("{\"error\":\"reply of %d neighbours exceeds limit %d\"}\n", over*degree, maxReplyNeighbors)
	for _, h := range []*Handler{single, router} {
		rec := serve(h, "/neighbors", batch(over))
		if rec.Code != http.StatusRequestEntityTooLarge || rec.Body.String() != want {
			t.Fatalf("status %d body %.200q, want 413 %q", rec.Code, rec.Body.String(), want)
		}
	}

	w := &nullWriter{h: make(http.Header)}
	run := func(repeats, wantCode int) {
		req := httptest.NewRequest("GET", "/neighbors", nil)
		req.URL.RawQuery = batch(repeats)
		clear(w.h)
		w.code = http.StatusOK
		router.ServeHTTP(w, req)
		if w.code != wantCode {
			t.Fatalf("%d neighbours: status %d, want %d", repeats*degree, w.code, wantCode)
		}
	}
	run(over-1, http.StatusOK) // exactly the limit is served
	if raceEnabled {
		return
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 10
	for i := 0; i < runs; i++ {
		run(over, http.StatusRequestEntityTooLarge)
	}
	runtime.ReadMemStats(&after)
	// 801 row headers and the request, against 22 MB of buffer.
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 128<<10 {
		t.Errorf("refusing a reply of %d neighbours allocates %d bytes, want <= 128 KiB", over*degree, per)
	}
}

// TestWarmExistsAllocs bounds what a warm 256-probe /exists costs through
// New and a four-shard NewSharded: a constant handful of allocations, not a
// dozen per probe.
func TestWarmExistsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	single, sharded := shardedPair(t, 2000, 40000, 4)
	rng := rand.New(rand.NewSource(3))
	probes := make([]string, 256)
	for i := range probes {
		probes[i] = fmt.Sprintf("%d:%d", rng.Intn(2000), rng.Intn(2000))
	}
	req := httptest.NewRequest("GET", "/exists?edges="+strings.Join(probes, ","), nil)
	w := &nullWriter{h: make(http.Header)}
	for name, h := range map[string]*Handler{"New": single, "NewSharded": sharded} {
		run := func() {
			clear(w.h)
			h.ServeHTTP(w, req)
		}
		run()
		run()
		if allocs := testing.AllocsPerRun(100, run); allocs > 16 {
			t.Errorf("%s: warm 256-probe /exists makes %.0f allocations, want <= 16", name, allocs)
		}
	}
}

// TestLargeResponseBufferIsDropped checks the pool retention rule: a reply
// over maxPooledBuf leaves no buffer behind in its scratch.
func TestLargeResponseBufferIsDropped(t *testing.T) {
	h := testHandler(t)
	sc := &wireScratch{buf: make([]byte, 10, maxPooledBuf+1)}
	h.writeBody(httptest.NewRecorder(), sc, nil)
	if sc.buf != nil {
		t.Fatalf("a %d-byte buffer stayed in the scratch", cap(sc.buf))
	}
	small := &wireScratch{buf: make([]byte, 10, maxPooledBuf)}
	h.writeBody(httptest.NewRecorder(), small, nil)
	if small.buf == nil {
		t.Fatal("a buffer at the limit was dropped")
	}
}

func TestPutUintMatchesStrconv(t *testing.T) {
	check := func(v uint64) {
		t.Helper()
		want := strconv.AppendUint([]byte("xx"), v, 10)
		got := make([]byte, 2+20)
		copy(got, "xx")
		var end int
		if v <= math.MaxUint32 {
			end = putUint32(got, 2, uint32(v))
			if e64 := putUint64(append([]byte(nil), got...), 2, v); e64 != end {
				t.Fatalf("putUint64(%d) ends at %d, putUint32 at %d", v, e64, end)
			}
		} else {
			end = putUint64(got, 2, v)
		}
		if string(got[:end]) != string(want) {
			t.Fatalf("%d encodes as %q, want %q", v, got[:end], want)
		}
	}
	rng := rand.New(rand.NewSource(11))
	// Every digit count an id can have: the powers of ten, their
	// neighbours, and random values in between.
	for p, lo := 0, uint64(1); p <= 9; p, lo = p+1, lo*10 {
		hi := min(lo*10-1, math.MaxUint32)
		check(lo - 1)
		check(lo)
		check(lo + 1)
		check(hi)
		for i := 0; i < 2000; i++ {
			check(lo + uint64(rng.Int63n(int64(hi-lo+1))))
		}
	}
	check(math.MaxUint32)
	for v := uint64(0); v < 100000; v++ {
		check(v)
	}
	// Degrees past 32 bits: every further digit count of a uint64.
	for lo := uint64(math.MaxUint32) + 1; ; lo *= 10 {
		check(lo)
		check(lo + 999999999)
		check(lo + uint64(rng.Int63n(1<<32)))
		if lo > math.MaxUint64/10 {
			break
		}
	}
	check(1000000000000000000)
	check(math.MaxInt64)
	check(math.MaxUint64)
}

// checkPutRow holds putRow to strconv.AppendUint on one row, in a buffer of
// exactly the size the kernels are promised: the text plus wireSlack. What
// lies before and behind it must not change.
func checkPutRow(t testing.TB, row []uint32) {
	t.Helper()
	want := []byte("xx")
	for k, v := range row {
		if k > 0 {
			want = append(want, ',')
		}
		want = strconv.AppendUint(want, uint64(v), 10)
	}
	const canary = 0xA5
	room := len(want) + wireSlack
	full := bytes.Repeat([]byte{canary}, room+16)
	copy(full, "xx")
	end := putRow(full[:room], 2, row)
	if end != len(want) || string(full[:end]) != string(want) {
		t.Fatalf("row %v encodes as %.200q (end %d), want %.200q (end %d)", row, full[:max(end, 0)], end, want, len(want))
	}
	for _, c := range full[room:] {
		if c != canary {
			t.Fatalf("row %v: putRow wrote past the %d bytes of slack", row, wireSlack)
		}
	}
}

func TestPutRowMatchesStrconv(t *testing.T) {
	// The powers of ten and their neighbours: every first and last value
	// of every digit class.
	var edges []uint32
	for p := uint64(1); p <= math.MaxUint32; p *= 10 {
		edges = append(edges, uint32(p-1), uint32(p), uint32(p+1))
	}
	edges = append(edges, math.MaxUint32-1, math.MaxUint32)
	checkPutRow(t, nil)
	checkPutRow(t, []uint32{})
	for _, v := range edges {
		checkPutRow(t, []uint32{v})
		checkPutRow(t, []uint32{v, v})
	}
	checkPutRow(t, edges) // ascending through every boundary, one value a side
	down := slices.Clone(edges)
	slices.Reverse(down)
	checkPutRow(t, down)

	rng := rand.New(rand.NewSource(13))
	anyDigits := func() uint32 { // every digit count about equally likely
		return uint32(rng.Int63n(1<<33) >> rng.Intn(33))
	}
	for round := 0; round < 300; round++ {
		row := make([]uint32, 1+rng.Intn(400))
		for k := range row {
			row[k] = anyDigits()
		}
		checkPutRow(t, row) // bouncing between classes at every step
		slices.Sort(row)
		checkPutRow(t, row) // a CSR row: long runs, every boundary crossed once
	}
	// Long runs inside one class, left by a value of every other class.
	for _, lo := range []uint32{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9} {
		for _, out := range edges {
			row := make([]uint32, 40)
			for k := range row {
				row[k] = lo + uint32(rng.Intn(int(lo)))
			}
			row[rng.Intn(len(row))] = out
			row[len(row)-1-rng.Intn(2)] = out
			checkPutRow(t, row)
		}
	}
}

// FuzzPutRow holds the row kernel to strconv on arbitrary rows — data read
// as little-endian values, as they come and sorted.
func FuzzPutRow(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 0, 0, 0})
	f.Add(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, 99999), 100000))
	f.Add(bytes.Repeat([]byte{0xff, 0xe0, 0xf5, 0x05, 0x00, 0xe1, 0xf5, 0x05}, 9)) // 99999999, 100000000, …
	f.Add([]byte("0123456789abcdefghijklmnopqrstuvwxyz"))
	f.Fuzz(func(t *testing.T, data []byte) {
		row := make([]uint32, len(data)/4)
		for k := range row {
			row[k] = binary.LittleEndian.Uint32(data[4*k:])
		}
		checkPutRow(t, row)
		slices.Sort(row)
		checkPutRow(t, row)
	})
}

// FuzzParseBatch holds the scanner against the reference on arbitrary
// query strings, node counts and frame counts: the same items, or the same
// refusal.
func FuzzParseBatch(f *testing.F) {
	for _, seed := range []string{
		"nodes=1,2,3", "edges=1:2,3:4", "nodes=1%2C2&edges=1%3A2", "nodes=+1&edges=1:2+", "nodes=1;2&nodes=3",
		"edges=1:2:3", "nodes=4294967295&edges=0:4294967295", "nodes=&edges=", "%6eodes=1&%65dges=1:1", "nodes=1,,2&edges=,",
		"queries=0:1:0,4:3:2", "queries=0:1:+1", "queries=0:1:%2B1", "queries=%200:1:2%20,1:2:0", "queries=0:1:0;1:2:0&queries=1:1:1",
		"queries=0:1:-1", "queries=0:1:-0", "queries=0:1:+0", "queries=5:0:0", "queries=0:4294967296:0", "queries=0:1:3",
		"queries=0:1:99999999999999999999", "queries=0:1", "queries=0:1:2:3", "queries=::", "queries=0:1:0,", "%71ueries=1:1:1",
		"queries=" + strings.Repeat(",", maxBatch),
	} {
		f.Add(seed, uint32(5), uint8(3))
	}
	f.Fuzz(func(t *testing.T, rawQuery string, n uint32, frames uint8) {
		wantNodes, wantErr := refParseNodes(refQueryGet(rawQuery, "nodes"), int(n))
		gotNodes, gotErr := parseBatch(nil, rawQuery, &nodeGrammar, int(n))
		compareParse(t, rawQuery, wantNodes, gotNodes, wantErr, gotErr)
		wantEdges, wantErr := refParseEdges(refQueryGet(rawQuery, "edges"), int(n))
		// A dirty pooled slice must not show through.
		gotEdges, gotErr := parseBatch(make([]edgelist.Edge, 3, 5), rawQuery, &edgeGrammar, int(n))
		compareParse(t, rawQuery, wantEdges, gotEdges, wantErr, gotErr)
		wantQueries, wantErr := refParseActive(refQueryGet(rawQuery, "queries"), int(n), int(frames))
		g := queryGrammar(int(frames))
		gotQueries, gotErr := parseBatch(make([]tcsr.ActivityQuery, 2, 3), rawQuery, &g, int(n))
		compareParse(t, rawQuery, wantQueries, gotQueries, wantErr, gotErr)
	})
}

func compareParse[T comparable](t *testing.T, rawQuery string, want, got []T, wantErr, gotErr error) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
		t.Fatalf("%q: error %v, reference %v", rawQuery, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%q: %d items, reference %d", rawQuery, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%q: item %d is %v, reference %v", rawQuery, i, got[i], want[i])
		}
	}
}

// refTemporalResponse answers path?rawQuery the way the temporal handler
// did before it joined Handler: url.Values and strings.Split parsing, one
// map per item through encoding/json. Answers come from snaps, each
// frame's Snapshot built into a plain CSR, not from the packed frames the
// handler reads.
func refTemporalResponse(t testing.TB, snaps []*csr.Matrix, path, rawQuery string) (int, string) {
	t.Helper()
	fail := func(err error) (int, string) {
		return http.StatusBadRequest, refJSON(t, map[string]string{"error": err.Error()})
	}
	n, frames := snaps[0].NumNodes(), len(snaps)
	q := (&url.URL{RawQuery: rawQuery}).Query()
	switch path {
	case "/active":
		queries, err := refParseActive(q.Get("queries"), n, frames)
		if err != nil {
			return fail(err)
		}
		out := make([]map[string]any, len(queries))
		for i, qu := range queries {
			active := slices.Contains(snaps[qu.T].Neighbors(qu.U), qu.V)
			out[i] = map[string]any{"u": qu.U, "v": qu.V, "t": qu.T, "active": active}
		}
		return http.StatusOK, refJSON(t, out)
	case "/neighbors":
		u, err1 := strconv.ParseUint(q.Get("node"), 10, 32)
		tf, err2 := strconv.Atoi(q.Get("frame"))
		if err1 != nil || err2 != nil {
			return fail(fmt.Errorf("need numeric node and frame parameters"))
		}
		if int(u) >= n || tf < 0 || tf >= frames {
			return fail(fmt.Errorf("node %d / frame %d out of range", u, tf))
		}
		row := append([]uint32{}, snaps[tf].Neighbors(uint32(u))...)
		return http.StatusOK, refJSON(t, map[string]any{"node": u, "frame": tf, "neighbors": row})
	case "/bfs":
		src, err1 := strconv.ParseUint(q.Get("src"), 10, 32)
		tf, err2 := strconv.Atoi(q.Get("frame"))
		if err1 != nil || err2 != nil {
			return fail(fmt.Errorf("need numeric src and frame parameters"))
		}
		if int(src) >= n {
			return fail(fmt.Errorf("src %d out of range [0,%d)", src, n))
		}
		if tf < 0 || tf >= frames {
			return fail(fmt.Errorf("frame %d out of range [0,%d)", tf, frames))
		}
		dist, st := algo.BFSFrontierStats(snaps[tf], nil, uint32(src), frontier.DefaultPolicy(), 2)
		reached := 0
		for _, d := range dist {
			if d != algo.Unreached {
				reached++
			}
		}
		return http.StatusOK, refJSON(t, map[string]any{
			"src": src, "frame": tf, "reached": reached, "rounds": st.Rounds, "distances": dist,
		})
	}
	t.Fatalf("no reference for %s", path)
	return 0, ""
}

// checkTemporalAgainstRef holds one temporal request's status and body
// against the reference.
func checkTemporalAgainstRef(t *testing.T, h *Handler, snaps []*csr.Matrix, path, rawQuery string) {
	t.Helper()
	wantCode, wantBody := refTemporalResponse(t, snaps, path, rawQuery)
	rec := serve(h, path, rawQuery)
	if rec.Code != wantCode || rec.Body.String() != wantBody {
		t.Fatalf("%s?%.120s: %d %.300q, reference %d %.300q", path, rawQuery, rec.Code, rec.Body.String(), wantCode, wantBody)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s?%.120s: Content-Type %q", path, rawQuery, ct)
	}
}

// TestTemporalBodiesMatchReference sends random /active, /neighbors and
// /bfs requests, in range and out, to a temporal Handler over a churning
// stream, and a table of malformed and escaped /active queries: same
// status, same bytes as the reference. So /bfs?frame=t distances are those
// of a BFS over the frame's Snapshot.
func TestTemporalBodiesMatchReference(t *testing.T) {
	const nodes, frames = 200, 6
	events, err := gen.TemporalStream(nodes, 1200, 60, frames, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := tcsr.BuildFromEvents(events, nodes, frames, 2)
	if err != nil {
		t.Fatal(err)
	}
	h := NewTemporal(pt, 2)
	snaps := make([]*csr.Matrix, frames)
	for tf := range snaps {
		snaps[tf] = csr.Build(pt.Snapshot(tf, 2), nodes, 2)
	}
	rng := rand.New(rand.NewSource(11))
	id := func() int { return rng.Intn(nodes + 2) } // now and then out of range
	frame := func() int { return rng.Intn(frames+2) - 1 }
	for round := 0; round < 40; round++ {
		items := make([]string, 1+rng.Intn(50))
		for i := range items {
			items[i] = fmt.Sprintf("%d:%d:%d", id()%nodes, id()%nodes, rng.Intn(frames))
		}
		if round%4 == 3 {
			items[rng.Intn(len(items))] = fmt.Sprintf("%d:%d:%d", id(), id(), frame())
		}
		checkTemporalAgainstRef(t, h, snaps, "/active", "queries="+strings.Join(items, ","))
		checkTemporalAgainstRef(t, h, snaps, "/neighbors", fmt.Sprintf("node=%d&frame=%d", id(), frame()))
		checkTemporalAgainstRef(t, h, snaps, "/bfs", fmt.Sprintf("src=%d&frame=%d", id(), frame()))
	}
	for tf := 0; tf < frames; tf++ {
		checkTemporalAgainstRef(t, h, snaps, "/bfs", fmt.Sprintf("src=0&frame=%d", tf))
	}
	for _, q := range []string{
		"", "queries", "queries=", "x=1", "queries=0:1:0", "queries=0:1:+1", "queries=0:1:%2B1", "queries=+0:1:1",
		"queries=0:1:-1", "queries=0:1:-0", "queries=0:1:+0", "queries=0:1:6", "queries=0:200:0", "queries=200:0:0",
		"queries=0:1:99999999999999999999", "queries=4294967296:0:0", "queries=0:1", "queries=0:1:2:3", "queries=::",
		"queries=0:1:0,", "queries=,0:1:0", "queries=0:1:0,,1:2:3", "queries=%200:1:2%20,1:2:0", "queries=0:1:2 , 3:4:5",
		"queries=0%3A1%3A2", "queries=0:1:0;1:2:0", "queries=0:1:0;1:2:0&queries=1:1:1", "queries=0:1:2%", "queries=0:1:2%zz",
		"%71ueries=1:1:1", "queries=0:1:0&queries=x", "queries=007:0008:00005", "queries=0:1:0x1", "queries=a:b:c",
		"queries=" + overLimit("0:1:0"), "queries=" + overLimit("0:1:0")[6:],
	} {
		checkTemporalAgainstRef(t, h, snaps, "/active", q)
	}
	for _, q := range []string{"", "node=0", "frame=0", "node=0&frame=", "node=-1&frame=0", "node=+1&frame=0", "node=1&frame=+1", "node=1&frame=-1"} {
		checkTemporalAgainstRef(t, h, snaps, "/neighbors", q)
		checkTemporalAgainstRef(t, h, snaps, "/bfs", strings.Replace(q, "node", "src", 1))
	}
}
