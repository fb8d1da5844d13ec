package main

import (
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"

	"csrgraph/internal/csr"
	"csrgraph/internal/edgelist"
	"csrgraph/internal/server"
	"csrgraph/internal/shard"
	"csrgraph/internal/trace"
)

// tracedServer serves a small 4-shard graph with force-only tracing.
func tracedServer(t *testing.T) *httptest.Server {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	l := make(edgelist.List, 400)
	for i := range l {
		l[i] = edgelist.Edge{U: rng.Uint32() % 40, V: rng.Uint32() % 40}
	}
	l.SortByUV(1)
	// Cut as csrconvert -partition 4 does: CutByEdges, Split, PackMatrix.
	m := csr.Build(l.Dedup(), 40, 2)
	part, err := shard.CutByEdges(m.RowOffsets, 4)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := shard.Split(m, part)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([][]*shard.Engine, 4)
	for s, sm := range ms {
		engines[s] = shard.NewReplicas(s, 1, csr.PackMatrix(sm, 2), shard.EngineConfig{})
	}
	rt, err := shard.NewRouter(part, engines, shard.RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder(trace.RecorderConfig{})
	srv := httptest.NewServer(server.NewSharded(rt, 2, server.WithTracing(rec)))
	t.Cleanup(srv.Close)
	return srv
}

func TestRemoteTraceBreakdown(t *testing.T) {
	srv := tracedServer(t)
	var out strings.Builder
	if err := runRemote(srv.URL, true, []string{"exists", "0:1", "7:12", "33:2"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"trace ", "op=exists", "STAGE", "parse", "group", "queue_wait", "exec", "merge"} {
		if !strings.Contains(got, want) {
			t.Errorf("breakdown missing %q:\n%s", want, got)
		}
	}
}

func TestRemoteUntraced(t *testing.T) {
	srv := tracedServer(t)
	var out strings.Builder
	if err := runRemote(srv.URL, false, []string{"degree", "0", "7"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); !strings.Contains(got, `"degree"`) || strings.Contains(got, "STAGE") {
		t.Fatalf("untraced output wrong:\n%s", got)
	}
}

func TestRemoteSubcommands(t *testing.T) {
	srv := tracedServer(t)
	for name, args := range map[string][]string{
		"stats":     {"stats"},
		"neighbors": {"neighbors", "0", "7"},
		"bfs":       {"bfs", "0"},
	} {
		var out strings.Builder
		if err := runRemote(srv.URL, true, args, &out); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestRemoteErrors(t *testing.T) {
	srv := tracedServer(t)
	for name, args := range map[string][]string{
		"no subcommand":  {},
		"bad subcommand": {"explode"},
		"no nodes":       {"neighbors"},
		"no edges":       {"exists"},
		"bfs usage":      {"bfs"},
		"out of range":   {"degree", "999"},
	} {
		var out strings.Builder
		if err := runRemote(srv.URL, false, args, &out); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
	// -trace against a server without a recorder reports the missing id.
	pk := csr.BuildPacked(edgelist.List{{U: 0, V: 1}}, 2, 1)
	plain := httptest.NewServer(server.New(pk, 1))
	defer plain.Close()
	var out strings.Builder
	err := runRemote(plain.URL, true, []string{"degree", "0"}, &out)
	if err == nil || !strings.Contains(err.Error(), "did not trace") {
		t.Fatalf("untraced server: err = %v", err)
	}
}

func TestRemoteFlagExclusivity(t *testing.T) {
	if err := run([]string{"-server", "http://x", "-graph", "g.csrc", "stats"}); err == nil {
		t.Fatal("want error for -server with -graph")
	}
	if err := run([]string{"-trace", "-graph", "g.csrc", "stats"}); err == nil {
		t.Fatal("want error for -trace without -server")
	}
}
