package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"csrgraph/internal/bitpack"
	"csrgraph/internal/csr"
	"csrgraph/internal/edgelist"
	"csrgraph/internal/gen"
	"csrgraph/internal/mgraph"
	"csrgraph/internal/obs"
	"csrgraph/internal/tcsr"
)

func TestBuildHandlerGraph(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.csrc")
	pk := csr.BuildPacked(edgelist.List{{U: 0, V: 1}}, 2, 1)
	if err := mgraph.WritePackedFile(path, pk); err != nil {
		t.Fatal(err)
	}
	h, desc, err := buildHandler(serveConfig{graphPath: path, procs: 2, cacheMB: 1})
	if err != nil {
		t.Fatal(err)
	}
	if desc == "" {
		t.Fatal("empty description")
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/stats", nil))
	if rec.Code != 200 {
		t.Fatalf("stats = %d", rec.Code)
	}
}

func TestBuildHandlerTemporal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csrc")
	tc, err := tcsr.BuildFromEvents(edgelist.TemporalList{{U: 0, V: 1, T: 0}}, 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgraph.WriteTemporalFile(path, tc); err != nil {
		t.Fatal(err)
	}
	// -graph serves a temporal container with the temporal endpoints, and a
	// static one without them.
	h, _, err := buildHandler(serveConfig{graphPath: path, procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/active?queries=0:1:0", nil))
	if rec.Code != 200 {
		t.Fatalf("active = %d: %s", rec.Code, rec.Body.String())
	}
	static := filepath.Join(dir, "g.csrc")
	if err := mgraph.WritePackedFile(static, csr.BuildPacked(edgelist.List{{U: 0, V: 1}}, 2, 1)); err != nil {
		t.Fatal(err)
	}
	h, _, err = buildHandler(serveConfig{graphPath: static, procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/active?queries=0:1:0", nil))
	if rec.Code != 404 {
		t.Fatalf("static container: /active = %d, want 404", rec.Code)
	}
}

// TestBuildHandlerTemporalBackings: a temporal -graph answers the same
// bodies read into memory, mapped, and mapped and verified.
func TestBuildHandlerTemporalBackings(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.csrc")
	events, err := gen.TemporalStream(60, 400, 20, 5, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := tcsr.BuildFromEvents(events, 60, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgraph.WriteTemporalFile(path, pt); err != nil {
		t.Fatal(err)
	}
	urls := []string{
		"/active?queries=0:1:0,3:4:2,59:0:4,7:8:1", "/active?queries=0:1:5", "/neighbors?node=3&frame=2",
		"/neighbors?node=59&frame=4", "/bfs?src=0&frame=4", "/bfs?src=17&frame=1", "/bfs?src=60&frame=0",
	}
	var want []string
	for _, c := range []serveConfig{
		{graphPath: path, procs: 2},
		{graphPath: path, procs: 2, mmapOn: true},
		{graphPath: path, procs: 2, mmapOn: true, verify: true},
	} {
		h, desc, err := buildHandler(c)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		if c.mmapOn != strings.Contains(desc, "mmap") {
			t.Fatalf("%+v: description %q", c, desc)
		}
		for i, url := range urls {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
			got := fmt.Sprintf("%d %s", rec.Code, rec.Body)
			if len(want) < len(urls) {
				want = append(want, got)
			} else if got != want[i] {
				t.Fatalf("%+v %s: %s, heap read %s", c, url, got, want[i])
			}
		}
	}
}

// oneEdgeTemporal writes a one-frame temporal container over n nodes
// whose only edge is (0, v).
func oneEdgeTemporal(t *testing.T, path string, n int, v uint32) {
	t.Helper()
	offsets := make([]uint32, n+1)
	for i := 1; i <= n; i++ {
		offsets[i] = 1
	}
	frame, err := csr.AssemblePacked(bitpack.Pack(offsets, 1), bitpack.Pack([]uint32{v}, 1))
	if err != nil {
		t.Fatal(err)
	}
	pt, err := tcsr.AssemblePacked(n, []*csr.Packed{frame})
	if err != nil {
		t.Fatal(err)
	}
	if err := mgraph.WriteTemporalFile(path, pt); err != nil {
		t.Fatal(err)
	}
}

// TestBuildHandlerTemporalBadFrames: a temporal file whose header claims
// fewer nodes than its frames have rows, or whose frame holds a neighbor
// outside the node space, fails at load; what loads answers /bfs with 200
// or 400 and never panics.
func TestBuildHandlerTemporalBadFrames(t *testing.T) {
	dir := t.TempDir()
	lying := filepath.Join(dir, "lying.csrc")
	oneEdgeTemporal(t, lying, 10, 9)
	data, err := os.ReadFile(lying)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(data[24:], 2) // header nodes = 2
	binary.LittleEndian.PutUint32(data[44:], crc32.Checksum(data[:44], crc32.MakeTable(crc32.Castagnoli)))
	if err := os.WriteFile(lying, data, 0o644); err != nil {
		t.Fatal(err)
	}
	wild := filepath.Join(dir, "wild.csrc")
	oneEdgeTemporal(t, wild, 2, 9)
	for _, c := range []serveConfig{{procs: 2}, {procs: 2, mmapOn: true, verify: true}} {
		c.graphPath = lying
		if _, _, err := buildHandler(c); err == nil {
			t.Fatalf("%+v: loaded a temporal file whose frame has 10 rows under nodes=2", c)
		}
		c.graphPath = wild
		if _, _, err := buildHandler(c); err == nil {
			t.Fatalf("%+v: loaded a temporal file with neighbor 9 under nodes=2", c)
		}
	}

	good := filepath.Join(dir, "good.csrc")
	oneEdgeTemporal(t, good, 10, 9)
	h, _, err := buildHandler(serveConfig{graphPath: good, procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	for src := 0; src <= 11; src++ {
		for frame := -1; frame <= 1; frame++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/bfs?src=%d&frame=%d", src, frame), nil))
			want := 200
			if src >= 10 || frame != 0 {
				want = 400
			}
			if rec.Code != want {
				t.Fatalf("/bfs?src=%d&frame=%d = %d, want %d: %s", src, frame, rec.Code, want, rec.Body.String())
			}
		}
	}
}

func TestObsOptions(t *testing.T) {
	for _, format := range []string{"off", "", "text", "json"} {
		if _, err := obsOptions(false, false, format); err != nil {
			t.Errorf("log-format %q rejected: %v", format, err)
		}
	}
	if _, err := obsOptions(false, false, "xml"); err == nil {
		t.Fatal("want error for unknown log format")
	}
	opts, err := obsOptions(true, true, "json")
	if err != nil || len(opts) != 3 {
		t.Fatalf("opts = %d, err = %v; want 3 options", len(opts), err)
	}
}

func TestBuildHandlerWithMetrics(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.csrc")
	pk := csr.BuildPacked(edgelist.List{{U: 0, V: 1}}, 2, 1)
	if err := mgraph.WritePackedFile(path, pk); err != nil {
		t.Fatal(err)
	}
	opts, err := obsOptions(true, true, "off")
	if err != nil {
		t.Fatal(err)
	}
	defer obs.SetEnabled(false)
	h, _, err := buildHandler(serveConfig{graphPath: path, procs: 2, cacheMB: 1}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, url := range []string{"/metrics", "/debug/pprof/"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if rec.Code != 200 {
			t.Errorf("%s = %d, want 200", url, rec.Code)
		}
	}
}

func TestTraceOption(t *testing.T) {
	for _, off := range []string{"off", "", "0"} {
		opts, err := traceOption(off, 1024, 0)
		if err != nil || len(opts) != 0 {
			t.Errorf("trace-sample %q: opts = %d, err = %v; want none", off, len(opts), err)
		}
	}
	for _, on := range []string{"always", "1", "force", "1/256", "256"} {
		opts, err := traceOption(on, 64, time.Millisecond)
		if err != nil || len(opts) != 1 {
			t.Errorf("trace-sample %q: opts = %d, err = %v; want 1 option", on, len(opts), err)
		}
	}
	for _, bad := range []string{"sometimes", "1/0", "-4", "1/2.5"} {
		if _, err := traceOption(bad, 64, 0); err == nil {
			t.Errorf("trace-sample %q accepted", bad)
		}
	}
}

// TestBuildHandlerTraced drives a forced trace through a flag-built sharded
// handler and reads it back from /debug/traces — the csrserver analogue of
// the curl quick-start in the README.
func TestBuildHandlerTraced(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.csrc")
	l := edgelist.List{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0}}
	pk := csr.BuildPacked(l, 4, 2)
	if err := mgraph.WritePackedFile(path, pk); err != nil {
		t.Fatal(err)
	}
	opts, err := traceOption("force", 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	h, _, err := buildHandler(serveConfig{graphPath: path, procs: 2, cacheMB: 1, shards: 2, replicas: 1}, opts...)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("GET", "/exists?edges=0:1,2:3", nil)
	req.Header.Set("X-Trace", "1")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	id := rec.Header().Get("X-Request-ID")
	if rec.Code != 200 || len(id) != 16 {
		t.Fatalf("traced exists: code %d, id %q", rec.Code, id)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces?id="+id, nil))
	if rec.Code != 200 || !strings.Contains(rec.Body.String(), `"queue_wait"`) {
		t.Fatalf("/debug/traces?id=%s = %d: %s", id, rec.Code, rec.Body.String())
	}
}

func TestBuildHandlerErrors(t *testing.T) {
	if _, _, err := buildHandler(serveConfig{procs: 2}); err == nil {
		t.Fatal("want error for no input")
	}
	if _, _, err := buildHandler(serveConfig{graphPath: "/nonexistent.csrc", procs: 2}); err == nil {
		t.Fatal("want error for missing graph file")
	}
}

func TestBuildHandlerMmap(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.csrc")
	pk := csr.BuildPacked(edgelist.List{{U: 0, V: 1}, {U: 1, V: 0}, {U: 1, V: 2}}, 3, 1)
	if err := mgraph.WritePackedFile(path, pk); err != nil {
		t.Fatal(err)
	}
	for _, verify := range []bool{false, true} {
		h, desc, err := buildHandler(serveConfig{graphPath: path, procs: 2, cacheMB: 1, mmapOn: true, verify: verify})
		if err != nil {
			t.Fatalf("verify=%v: %v", verify, err)
		}
		if !strings.Contains(desc, "mmap") {
			t.Fatalf("desc %q does not mention mmap", desc)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/neighbors?nodes=1", nil))
		if rec.Code != 200 {
			t.Fatalf("neighbors = %d: %s", rec.Code, rec.Body.String())
		}
	}
	// -mmap without -graph, and a legacy stream file with or without
	// -mmap, all fail early.
	if _, _, err := buildHandler(serveConfig{procs: 2, cacheMB: 1, mmapOn: true}); err == nil {
		t.Fatal("want error for -mmap without -graph")
	}
	for _, magic := range []string{"PCSR", "TCSR"} {
		legacy := filepath.Join(dir, "legacy")
		if err := os.WriteFile(legacy, append([]byte(magic), make([]byte, 124)...), 0o644); err != nil {
			t.Fatal(err)
		}
		for _, c := range []serveConfig{
			{graphPath: legacy, procs: 2, cacheMB: 1, mmapOn: true},
			{graphPath: legacy, procs: 2, cacheMB: 1},
		} {
			if _, _, err := buildHandler(c); !errors.Is(err, mgraph.ErrLegacyStream) {
				t.Fatalf("%s file, %+v: %v, want ErrLegacyStream", magic, c, err)
			}
		}
	}
}
