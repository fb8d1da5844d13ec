// Command csrserver serves a graph container — static, or a packed
// time-evolving TCSR — over HTTP with the parallel querying algorithms of
// Section V:
//
//	csrserver -graph g.csrc -addr :8080 -procs 8 -cache-mb 64
//	csrserver -graph g.csrc -mmap
//	csrserver -graph g.shards.json -replicas 2
//	csrserver -graph t.csrc -addr :8080
//	csrserver -graph g.csrc -metrics -pprof -log-format json
//
// Every graph file is a container (csrconvert -out g.csrc), or a shard
// manifest (csrconvert -partition K), the one sharded form: K edge-balanced
// vertex ranges cut offline, each shard a container mapped on its own and
// served by -replicas engines (a single container refuses -replicas above
// 1). The container's header says whether it holds a static or a temporal
// graph, and that picks the endpoints.
// Without -mmap the container is read into memory and verified — section
// checksums and neighbor ids — before serving. With -mmap it is
// memory-mapped and served zero-copy, so startup cost is page-table setup
// instead of a full file read — build once, serve many; -verify then adds
// the same checksum and bounds pass over the mapping.
//
// Static endpoints: /healthz, /stats, /neighbors?nodes=...,
// /degree?nodes=..., /exists?edges=u:v,..., /bfs?src=n, and
// /analytics/bfs?src=n&src=m,... (batched frontier BFS with per-traversal
// round stats). Every static graph is served through the scatter-gather
// router, a single container as one shard over the whole graph, no copy. -cache-mb is the budget of the
// engines' decoded-row tables for /neighbors rows (split across the shards
// of a sharded graph; each table's slot array, 8 bytes per row, counts
// against it); /exists searches the packed rows in place.
// Temporal endpoints: /healthz, /stats, /active?queries=u:v:t,...,
// /neighbors?node=u&frame=t, /bfs?src=u&frame=t.
// Observability: -metrics mounts GET /metrics (Prometheus text), -pprof
// mounts GET /debug/pprof/, and -log-format selects structured access
// logging (text, json, or off). -trace-sample enables request tracing:
//
//	csrserver -graph g.csrc -trace-sample 1/256 -trace-slow 250ms
//
// "1/256" head-samples one request in 256 (rounded up to a power of two),
// "always" traces everything, "force" traces only requests carrying an
// "X-Trace: 1" header, and "off" disables tracing. Traced requests echo
// their trace id in X-Request-ID; retained traces are served by GET
// /debug/traces and GET /debug/traces/summary. -trace-buf sizes the
// retained ring and -trace-slow logs any trace over the threshold as a
// structured warn record through the access logger.
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"csrgraph/internal/harness"
	"csrgraph/internal/mgraph"
	"csrgraph/internal/server"
	"csrgraph/internal/shard"
	"csrgraph/internal/trace"
)

// gcHeadroom is the size of gcBallast, heap the server allocates once and
// never writes. A served graph lives in mapped pages or one packed slab, so
// the live heap of a serving process can be a few MB, and Go's default
// pacing then collects after every few MB of request garbage (the request
// line of a 256-probe /exists is ~3 KB): ~50 collections a second on the
// benchmark's skewed existence workload, and 40% more p99 latency than
// with the ballast. The ballast adds gcHeadroom to the live heap the pacer
// sees, so a cycle waits for at least that much garbage. Its cost is that
// much more resident garbage between cycles; its own pages stay untouched.
const gcHeadroom = 6 << 20

// gcBallast holds gcHeadroom for the life of the process.
var gcBallast []byte

func main() {
	gcBallast = make([]byte, gcHeadroom)
	fs := flag.NewFlagSet("csrserver", flag.ExitOnError)
	graphPath := fs.String("graph", "", "graph container, static or temporal, or shard manifest (.shards.json)")
	addr := fs.String("addr", ":8080", "listen address")
	procs := fs.Int("procs", 4, "processors per query batch")
	cacheMB := fs.Int("cache-mb", 64, "decoded-row table budget for /neighbors rows, in MiB, split across the shards; 8 bytes per node of slot array count against it (0 disables); /exists searches the packed rows and never uses it")
	mmapOn := fs.Bool("mmap", false, "memory-map the -graph container instead of reading it into memory")
	verify := fs.Bool("verify", false, "with -mmap or a manifest: checksum sections and bounds-check neighbors before serving (heap loads always do)")
	replicas := fs.Int("replicas", 1, "replica engines per shard (manifest -graph only)")
	metrics := fs.Bool("metrics", false, "collect metrics and serve GET /metrics (Prometheus text)")
	pprofOn := fs.Bool("pprof", false, "serve GET /debug/pprof/ profiling endpoints")
	logFormat := fs.String("log-format", "off", "access log format: text, json, or off")
	traceSample := fs.String("trace-sample", "off", `request tracing: "off", "always", "force" (X-Trace: 1 only), or a head-sampling rate like "1/256"`)
	traceBuf := fs.Int("trace-buf", 1024, "retained-trace ring capacity (rounded up to a power of two)")
	traceSlow := fs.Duration("trace-slow", 250*time.Millisecond, "log traces over this total as slow-query records (0 disables)")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	opts, err := obsOptions(*metrics, *pprofOn, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "csrserver:", err)
		os.Exit(2)
	}
	tropt, err := traceOption(*traceSample, *traceBuf, *traceSlow)
	if err != nil {
		fmt.Fprintln(os.Stderr, "csrserver:", err)
		os.Exit(2)
	}
	opts = append(opts, tropt...)
	handler, desc, err := buildHandler(serveConfig{
		graphPath: *graphPath,
		procs:     *procs,
		cacheMB:   *cacheMB,
		mmapOn:    *mmapOn,
		verify:    *verify,
		replicas:  *replicas,
	}, opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "csrserver:", err)
		os.Exit(2)
	}
	log.Printf("serving %s on %s", desc, *addr)
	srv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	log.Fatal(srv.ListenAndServe())
}

// obsOptions translates the observability flags into server options.
func obsOptions(metrics, pprofOn bool, logFormat string) ([]server.Option, error) {
	var opts []server.Option
	if metrics {
		opts = append(opts, server.WithMetrics())
	}
	if pprofOn {
		opts = append(opts, server.WithPprof())
	}
	switch logFormat {
	case "off", "":
	case "text":
		opts = append(opts, server.WithAccessLog(slog.New(slog.NewTextHandler(os.Stderr, nil))))
	case "json":
		opts = append(opts, server.WithAccessLog(slog.New(slog.NewJSONHandler(os.Stderr, nil))))
	default:
		return nil, fmt.Errorf("unknown -log-format %q (want text, json, or off)", logFormat)
	}
	return opts, nil
}

// traceOption translates the -trace-sample/-trace-buf/-trace-slow flags
// into a server.WithTracing option ("off" yields none). "force" builds a
// recorder with sampling disabled, so only X-Trace: 1 requests trace.
func traceOption(sample string, buf int, slow time.Duration) ([]server.Option, error) {
	var rate uint64
	switch sample {
	case "off", "", "0":
		return nil, nil
	case "always", "1":
		rate = 1
	case "force":
		rate = 0
	default:
		s := strings.TrimPrefix(sample, "1/")
		v, err := strconv.ParseUint(s, 10, 32)
		if err != nil || v == 0 {
			return nil, fmt.Errorf(`bad -trace-sample %q (want "off", "always", "force", or a rate like "1/256")`, sample)
		}
		rate = v
	}
	rec := trace.NewRecorder(trace.RecorderConfig{
		Capacity:      buf,
		Sample:        rate,
		SlowThreshold: slow,
	})
	return []server.Option{server.WithTracing(rec)}, nil
}

// serveConfig is the resolved flag set buildHandler dispatches on.
type serveConfig struct {
	graphPath      string
	procs, cacheMB int
	mmapOn, verify bool
	replicas       int
}

// buildHandler resolves the flag combination into an http.Handler. A
// manifest is served through the router of its shards; a container is
// opened once, and its form picks the handler: temporal, or static
// through the router of one shard over the whole graph, with no copy.
// A container has no replicas, so -replicas above 1 refuses it.
func buildHandler(c serveConfig, opts ...server.Option) (http.Handler, string, error) {
	switch {
	case c.graphPath == "":
		return nil, "", fmt.Errorf("-graph is required")
	case shard.IsManifestPath(c.graphPath):
		return buildManifestHandler(c, opts...)
	case c.replicas > 1:
		return nil, "", fmt.Errorf("-replicas %d applies to a manifest -graph only; %s is a container", c.replicas, c.graphPath)
	}
	g, backing, err := openContainer(c.graphPath, c.mmapOn, c.verify)
	if err != nil {
		return nil, "", err
	}
	if g.GraphForm() == mgraph.FormTemporal {
		pt := g.Temporal()
		desc := fmt.Sprintf("%d nodes / %d frames (temporal container, %s)", pt.NumNodes(), pt.NumFrames(), backing)
		return server.NewTemporal(pt, c.procs, opts...), desc, nil
	}
	src := g.Source()
	desc := fmt.Sprintf("%d nodes / %d edges (%s container, %s)", src.NumNodes(), g.NumEdges, g.GraphForm(), backing)
	opts = append(opts, server.WithRowCache(int64(c.cacheMB)<<20))
	return server.New(src, c.procs, opts...), desc, nil
}

// openContainer loads a whole graph container, static or temporal: mapped
// with -mmap, otherwise read into memory and verified. A mapping lives for
// the whole process — the handler's graph aliases it, and the process exit
// unmaps.
func openContainer(path string, mmapOn, verify bool) (*mgraph.Container, string, error) {
	if !mmapOn {
		g, err := mgraph.ReadFile(path)
		return g, "heap", err
	}
	var mopts []mgraph.OpenOption
	if verify {
		mopts = append(mopts, mgraph.WithVerify())
	}
	m, err := mgraph.Open(path, mopts...)
	if err != nil {
		return nil, "", err
	}
	return m.Container, "mmap, " + harness.HumanBytes(m.SizeBytes()), nil
}

// buildManifestHandler serves an offline-partitioned graph: every shard
// container in the manifest is mapped independently and replicas share
// each mapping (the page cache is shared; the caches and in-flight
// accounting are not).
func buildManifestHandler(c serveConfig, opts ...server.Option) (http.Handler, string, error) {
	mf, err := shard.LoadManifest(c.graphPath)
	if err != nil {
		return nil, "", err
	}
	part, err := mf.Partition()
	if err != nil {
		return nil, "", err
	}
	maps, err := shard.OpenShards(c.graphPath, mf, c.verify)
	if err != nil {
		return nil, "", err
	}
	// The mappings live for the whole process; exit unmaps. Replicas share
	// their shard's mapping, and the -cache-mb budget for /neighbors rows
	// is divided across the shards, so the total row-table footprint
	// matches the flag at any shard count.
	replicas := max(c.replicas, 1)
	perShard := (int64(c.cacheMB) << 20) / int64(len(maps))
	engines := make([][]*shard.Engine, len(maps))
	for s, m := range maps {
		engines[s] = shard.NewReplicas(s, replicas, m.Packed(), shard.EngineConfig{CacheBytes: perShard})
	}
	// Verified flows to /healthz: with -verify the shard payloads were
	// checksum-checked at load, and readiness reporting says so.
	rt, err := shard.NewRouter(part, engines, shard.RouterConfig{Verified: c.verify})
	if err != nil {
		return nil, "", err
	}
	desc := fmt.Sprintf("%d nodes / %d edges (%d shards x %d replicas, mmap, range cut)",
		mf.Nodes, mf.Edges, len(mf.Shards), replicas)
	return server.NewSharded(rt, c.procs, opts...), desc, nil
}
