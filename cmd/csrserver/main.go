// Command csrserver serves a packed CSR graph — or a packed time-evolving
// TCSR — over HTTP with the parallel querying algorithms of Section V:
//
//	csrserver -graph g.pcsr -addr :8080 -procs 8 -cache-mb 64
//	csrserver -graph g.csrc -mmap
//	csrserver -temporal t.tcsr -addr :8080
//	csrserver -graph g.pcsr -metrics -pprof -log-format json
//
// With -mmap the graph must be a container file (csrconvert -out g.csrc);
// it is memory-mapped and served zero-copy, so startup cost is page-table
// setup instead of a full file read — build once, serve many. -verify adds
// a checksum and bounds pass over the mapped file before serving.
//
// Static endpoints: /healthz, /stats, /neighbors?nodes=...,
// /degree?nodes=..., /exists?edges=u:v,..., /bfs?src=n, and
// /analytics/bfs?src=n&src=m,... (batched frontier BFS with per-traversal
// round stats). -cache-mb caches decoded /neighbors rows (split across the
// shards of a sharded graph); /exists searches the packed rows in place.
// Temporal endpoints: /healthz, /stats, /active?queries=u:v:t,...,
// /neighbors?node=u&frame=t, /bfs?src=u&frame=t.
// Observability: -metrics mounts GET /metrics (Prometheus text), -pprof
// mounts GET /debug/pprof/, and -log-format selects structured access
// logging (text, json, or off). -trace-sample enables request tracing:
//
//	csrserver -graph g.pcsr -trace-sample 1/256 -trace-slow 250ms
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

	"csrgraph/internal/csr"
	"csrgraph/internal/harness"
	"csrgraph/internal/mgraph"
	"csrgraph/internal/query"
	"csrgraph/internal/server"
	"csrgraph/internal/shard"
	"csrgraph/internal/tcsr"
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
	graphPath := fs.String("graph", "", "packed CSR file")
	temporalPath := fs.String("temporal", "", "packed TCSR file (mutually exclusive with -graph)")
	addr := fs.String("addr", ":8080", "listen address")
	procs := fs.Int("procs", 4, "processors per query batch")
	cacheMB := fs.Int("cache-mb", 64, "decoded-row cache for /neighbors rows, in MiB (0 disables); /exists searches the packed rows and never uses it")
	mmapOn := fs.Bool("mmap", false, "memory-map a container graph (-graph must be a .csrc container)")
	verify := fs.Bool("verify", false, "with -mmap: checksum sections and bounds-check neighbors before serving")
	shards := fs.Int("shards", 0, "serve through the sharded tier: cut -graph into K edge-balanced shards (0 = single engine; implied by a manifest -graph)")
	replicas := fs.Int("replicas", 1, "replica engines per shard (sharded tier only)")
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
		graphPath:    *graphPath,
		temporalPath: *temporalPath,
		procs:        *procs,
		cacheMB:      *cacheMB,
		mmapOn:       *mmapOn,
		verify:       *verify,
		shards:       *shards,
		replicas:     *replicas,
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
	graphPath, temporalPath string
	procs, cacheMB          int
	mmapOn, verify          bool
	shards, replicas        int
}

// buildHandler resolves the flag combination into an http.Handler.
func buildHandler(c serveConfig, opts ...server.Option) (http.Handler, string, error) {
	graphPath, temporalPath := c.graphPath, c.temporalPath
	procs, cacheMB := c.procs, c.cacheMB
	mmapOn, verify := c.mmapOn, c.verify
	manifest := graphPath != "" && shard.IsManifestPath(graphPath)
	switch {
	case graphPath != "" && temporalPath != "":
		return nil, "", fmt.Errorf("-graph and -temporal are mutually exclusive")
	case temporalPath != "" && c.shards > 0:
		return nil, "", fmt.Errorf("-shards needs -graph: the sharded tier serves static graphs")
	case mmapOn && graphPath == "":
		return nil, "", fmt.Errorf("-mmap needs -graph")
	case manifest:
		return buildManifestHandler(c, opts...)
	case graphPath != "" && c.shards > 0:
		src, desc, err := openSource(graphPath, mmapOn, verify)
		if err != nil {
			return nil, "", err
		}
		part, pks, err := shard.PartitionSource(src, c.shards, procs)
		if err != nil {
			return nil, "", err
		}
		rt, err := buildRouter(part, pks, c)
		if err != nil {
			return nil, "", err
		}
		return server.NewSharded(rt, procs, opts...),
			fmt.Sprintf("%s, %d shards x %d replicas", desc, c.shards, c.replicas), nil
	case graphPath != "" && mmapOn:
		var mopts []mgraph.OpenOption
		if verify {
			mopts = append(mopts, mgraph.WithVerify())
		}
		// The mapping lives for the whole process: the handler's query
		// source aliases it, and the process exit unmaps.
		m, err := mgraph.Open(graphPath, mopts...)
		if err != nil {
			return nil, "", err
		}
		src := m.Source()
		desc := fmt.Sprintf("%d nodes / %d edges (%s container, mmap, %s)",
			src.NumNodes(), m.NumEdges, m.GraphForm(), harness.HumanBytes(m.SizeBytes()))
		opts = append(opts, server.WithRowCache(int64(cacheMB)<<20))
		return server.New(src, procs, opts...), desc, nil
	case graphPath != "":
		pk, err := csr.LoadPackedFile(graphPath)
		if err != nil {
			return nil, "", err
		}
		desc := fmt.Sprintf("%d nodes / %d edges (%d-bit neighbors)",
			pk.NumNodes(), pk.NumEdges(), pk.NumBits())
		opts = append(opts, server.WithRowCache(int64(cacheMB)<<20))
		return server.New(pk, procs, opts...), desc, nil
	case temporalPath != "":
		f, err := os.Open(temporalPath)
		if err != nil {
			return nil, "", err
		}
		defer f.Close() //csr:errok read-only file; close cannot lose data
		pt, err := tcsr.ReadPacked(f)
		if err != nil {
			return nil, "", err
		}
		desc := fmt.Sprintf("%d nodes / %d frames (temporal)", pt.NumNodes(), pt.NumFrames())
		return server.NewTemporal(pt, procs, opts...), desc, nil
	}
	return nil, "", fmt.Errorf("one of -graph or -temporal is required")
}

// openSource loads a whole graph as a query source for in-process
// partitioning: mapped container or legacy packed stream.
func openSource(graphPath string, mmapOn, verify bool) (query.Source, string, error) {
	if mmapOn {
		var mopts []mgraph.OpenOption
		if verify {
			mopts = append(mopts, mgraph.WithVerify())
		}
		m, err := mgraph.Open(graphPath, mopts...)
		if err != nil {
			return nil, "", err
		}
		src := m.Source()
		return src, fmt.Sprintf("%d nodes / %d edges (%s container, mmap)",
			src.NumNodes(), m.NumEdges, m.GraphForm()), nil
	}
	pk, err := csr.LoadPackedFile(graphPath)
	if err != nil {
		return nil, "", err
	}
	return pk, fmt.Sprintf("%d nodes / %d edges (%d-bit neighbors)",
		pk.NumNodes(), pk.NumEdges(), pk.NumBits()), nil
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
	if c.shards > 0 && c.shards != len(mf.Shards) {
		return nil, "", fmt.Errorf("-shards %d conflicts with the manifest's %d shards", c.shards, len(mf.Shards))
	}
	part, err := mf.Partition()
	if err != nil {
		return nil, "", err
	}
	maps, err := shard.OpenShards(c.graphPath, mf, c.verify)
	if err != nil {
		return nil, "", err
	}
	// The mappings live for the whole process; exit unmaps.
	pks := make([]*csr.Packed, len(maps))
	for s, m := range maps {
		pks[s] = m.Packed()
	}
	rt, err := buildRouter(part, pks, c)
	if err != nil {
		return nil, "", err
	}
	desc := fmt.Sprintf("%d nodes / %d edges (%d shards x %d replicas, mmap, %s cut)",
		mf.Nodes, mf.Edges, len(mf.Shards), c.replicas, mf.Strategy)
	return server.NewSharded(rt, c.procs, opts...), desc, nil
}

// buildRouter assembles the replica engines and router over per-shard
// packed sources. The -cache-mb budget for /neighbors rows is divided
// across the shards so the sharded tier's total cache footprint matches the
// single-engine flag.
func buildRouter(part *shard.Partition, pks []*csr.Packed, c serveConfig) (*shard.Router, error) {
	replicas := c.replicas
	if replicas < 1 {
		replicas = 1
	}
	perShard := (int64(c.cacheMB) << 20) / int64(len(pks))
	engines := make([][]*shard.Engine, len(pks))
	for s, pk := range pks {
		engines[s] = shard.NewReplicas(s, replicas, pk, shard.EngineConfig{CacheBytes: perShard})
	}
	// Verified flows to /healthz: with -verify the shard payloads were
	// checksum-checked at load, and readiness reporting says so.
	return shard.NewRouter(part, engines, shard.RouterConfig{Verified: c.verify})
}
