package main

// The per-layer ledger. This is the only file of the benchmark that
// imports csrgraph/internal/...: every layer is timed from outside, by
// replaying the workload's first requests one depth lower each time and by
// running each package's kernels on the workload's keys and on G's data.
// Nothing inside the programs is instrumented.

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"csrgraph"
	"csrgraph/internal/algo"
	"csrgraph/internal/bitpack"
	"csrgraph/internal/csr"
	"csrgraph/internal/degree"
	"csrgraph/internal/edgelist"
	"csrgraph/internal/frontier"
	"csrgraph/internal/mgraph"
	"csrgraph/internal/parallel"
	"csrgraph/internal/prefixsum"
	"csrgraph/internal/query"
	"csrgraph/internal/radix"
	"csrgraph/internal/server"
	"csrgraph/internal/shard"
)

// sink keeps results alive so the compiler cannot drop a timed call.
var sink int

// layerInputs is what the traced run hands the ledger.
type layerInputs struct {
	prof         profile
	procs        int
	csrcFile     string // G.csrc
	manifestFile string // G.shards.json
	ownGraph     string // which of the two the workload serves from
	dir          string // scratch directory
	replay       []request
	edges        []csrgraph.Edge // G as graphgen wrote it
	seed         uint64
	socketCPUUS  float64 // measured server CPU per request at the socket
}

// ledgerRow is one line of the per-request CPU ledger.
type ledgerRow struct {
	Layer    string  `json:"layer"`
	USPerReq float64 `json:"us_per_req"`
}

// backends holds both serving chains, built the way cmd/csrserver builds
// them but with p = 1: the ledger times single-goroutine replays.
type backends struct {
	mapped  *mgraph.Mapped
	pk      *csr.Packed
	single  *server.Handler
	maps    []*mgraph.Mapped
	pks     []*csr.Packed
	part    *shard.Partition
	rt      *shard.Router
	sharded *server.Handler
}

func openBackends(in *layerInputs) (*backends, error) {
	b := new(backends)
	var err error
	if b.mapped, err = mgraph.Open(in.csrcFile); err != nil {
		return nil, err
	}
	if b.pk = b.mapped.Packed(); b.pk == nil {
		b.close()
		return nil, fmt.Errorf("%s is not a packed container", in.csrcFile)
	}
	cache := int64(in.prof.CacheMB) << 20
	b.single = server.New(b.mapped.Source(), 1, server.WithRowCache(cache))
	mf, err := shard.LoadManifest(in.manifestFile)
	if err != nil {
		b.close()
		return nil, err
	}
	if b.part, err = mf.Partition(); err != nil {
		b.close()
		return nil, err
	}
	if b.maps, err = shard.OpenShards(in.manifestFile, mf, false); err != nil {
		b.close()
		return nil, err
	}
	engines := make([][]*shard.Engine, len(b.maps))
	for s, m := range b.maps {
		b.pks = append(b.pks, m.Packed())
		engines[s] = shard.NewReplicas(s, 1, b.pks[s], shard.EngineConfig{CacheBytes: cache / int64(len(b.maps))})
	}
	if b.rt, err = shard.NewRouter(b.part, engines, shard.RouterConfig{}); err != nil {
		b.close()
		return nil, err
	}
	b.sharded = server.NewSharded(b.rt, 1)
	return b, nil
}

// own returns the handler of the chain the workload is served from.
func (b *backends) own(in *layerInputs) *server.Handler {
	if in.ownGraph == "mmap" {
		return b.single
	}
	return b.sharded
}

func (b *backends) close() {
	if b.mapped != nil {
		b.mapped.Close()
	}
	for _, m := range b.maps {
		m.Close()
	}
}

// discard is the byte-counting response writer ServeHTTP replays write to.
type discard struct {
	h     http.Header
	bytes int
}

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) WriteHeader(int)             {}
func (d *discard) Write(p []byte) (int, error) { d.bytes += len(p); return len(p), nil }

// The layers of the two chains, as indices into one pass's sums (ns over
// the whole replay set).
const (
	lServer = iota
	lRouter
	lEngine
	lShardCSR
	lShardLeaf
	lQuery
	lCSR
	lLeaf
	numLayers
)

// existsView and nodesView let every kernel run on every workload's keys:
// a nodes request probes its consecutive node pairs, an exists request
// decodes the rows of its sources.
func existsView(r *request) []csrgraph.Edge {
	if r.op == "exists" {
		return r.edges
	}
	out := make([]csrgraph.Edge, len(r.nodes))
	for i, u := range r.nodes {
		out[i] = csrgraph.Edge{U: u, V: r.nodes[(i+1)%len(r.nodes)]}
	}
	return out
}

func nodesView(r *request) []uint32 {
	if r.op != "exists" {
		return r.nodes
	}
	out := make([]uint32, len(r.edges))
	for i, e := range r.edges {
		out[i] = e.U
	}
	return out
}

// grouped is one request's items split by owning shard, in local ids.
type grouped struct {
	edges [][]csrgraph.Edge // exists: U local, V global
	nodes [][]uint32
}

func groupByShard(part *shard.Partition, r *request) grouped {
	g := grouped{edges: make([][]csrgraph.Edge, part.NumShards()), nodes: make([][]uint32, part.NumShards())}
	for _, e := range r.edges {
		s, local := part.ToLocal(e.U)
		g.edges[s] = append(g.edges[s], csrgraph.Edge{U: local, V: e.V})
	}
	for _, u := range r.nodes {
		s, local := part.ToLocal(u)
		g.nodes[s] = append(g.nodes[s], local)
	}
	return g
}

// legs returns how many shards a request touches and the largest leg over
// the mean leg.
func (g *grouped) legs() (touched int, imbalance float64) {
	total, largest := 0, 0
	for s := range g.edges {
		if n := len(g.edges[s]) + len(g.nodes[s]); n > 0 {
			touched++
			total += n
			largest = max(largest, n)
		}
	}
	return touched, float64(largest) * float64(touched) / float64(total)
}

// unpackRow decodes one packed row straight through the bitarray kernel.
func unpackRow(pk *csr.Packed, dst []uint32, u uint32) []uint32 {
	_, cols := pk.Parts()
	start, end := pk.RowBounds(u)
	dst = slices.Grow(dst[:0], end-start)[:end-start]
	cols.Bits().UnpackUints(dst, start*cols.Width(), cols.Width(), end-start)
	return dst
}

// replayPass replays every request through the workload's own handler and
// then one depth lower at a time through both chains, returning the
// per-layer sums of this pass in ns.
func (b *backends) replayPass(in *layerInputs, reqs []*http.Request, groups []grouped, log *spanLog) [numLayers]float64 {
	var sums [numLayers]float64
	own := b.own(in)
	shardParent, singleParent := "server", ""
	if in.ownGraph == "mmap" {
		shardParent, singleParent = "", "server"
	}
	var buf []uint32
	for i := range in.replay {
		r := &in.replay[i]
		n := r.items()
		w := &discard{h: make(http.Header)}
		sums[lServer] += log.timed("server", i, "http", n, func() { own.ServeHTTP(w, reqs[i]) })
		sink += w.bytes

		// Sharded chain: router, then the engines on the same grouping.
		g := &groups[i]
		sums[lRouter] += log.timed("shard.router", i, shardParent, n, func() {
			switch r.op {
			case "exists":
				out, _ := b.rt.EdgesExistBatch(r.edges)
				sink += len(out)
			case "degree":
				out, _ := b.rt.DegreeBatch(r.nodes)
				sink += len(out)
			default:
				out, _ := b.rt.NeighborsBatch(r.nodes)
				sink += len(out)
			}
		})
		for s := range b.pks {
			e := b.rt.Replicas(s)[0]
			if len(g.edges[s]) > 0 {
				sums[lEngine] += log.timed("shard.engine", i, "shard.router", len(g.edges[s]), func() {
					sink += len(e.EdgesExist(g.edges[s]))
				})
			}
			locals := g.nodes[s]
			if len(locals) == 0 {
				continue
			}
			if r.op == "degree" {
				sums[lEngine] += log.timed("shard.engine", i, "shard.router", len(locals), func() { sink += len(e.Degrees(locals)) })
				sums[lShardCSR] += log.timed("csr", i, "shard.engine", len(locals), func() {
					for _, u := range locals {
						sink += b.pks[s].Degree(u)
					}
				})
				continue
			}
			sums[lEngine] += log.timed("shard.engine", i, "shard.router", len(locals), func() { sink += len(e.Neighbors(locals)) })
			sums[lShardCSR] += log.timed("csr", i, "shard.engine", len(locals), func() {
				for _, u := range locals {
					buf = b.pks[s].Row(buf, u)
					sink += len(buf)
				}
			})
			sums[lShardLeaf] += log.timed("bitarray", i, "csr", len(locals), func() {
				for _, u := range locals {
					buf = unpackRow(b.pks[s], buf, u)
					sink += len(buf)
				}
			})
		}

		// Single-backend chain on the mapped container.
		off, cols := b.pk.Parts()
		switch r.op {
		case "exists":
			sums[lQuery] += log.timed("query", i, singleParent, n, func() { sink += len(query.EdgesExistBatchSearch(b.pk, r.edges, 1)) })
			sums[lCSR] += log.timed("csr", i, "query", n, func() {
				for _, e := range r.edges {
					if b.pk.SearchRow(e.U, e.V) {
						sink++
					}
				}
			})
			sums[lLeaf] += log.timed("bitpack", i, "csr", n, func() {
				for _, e := range r.edges {
					sink += cols.LowerBound(int(off.Get(int(e.U))), int(off.Get(int(e.U)+1)), e.V)
				}
			})
		case "degree":
			sums[lQuery] += log.timed("query", i, singleParent, n, func() { sink += len(query.CountBatch(b.pk, r.nodes, 1)) })
			sums[lCSR] += log.timed("csr", i, "query", n, func() {
				for _, u := range r.nodes {
					sink += b.pk.Degree(u)
				}
			})
			sums[lLeaf] += log.timed("bitpack", i, "csr", n, func() {
				for _, u := range r.nodes {
					sink += int(off.Get(int(u)+1) - off.Get(int(u)))
				}
			})
		default:
			sums[lQuery] += log.timed("query", i, singleParent, n, func() { sink += len(query.NeighborsBatch(b.pk, r.nodes, 1)) })
			sums[lCSR] += log.timed("csr", i, "query", n, func() {
				for _, u := range r.nodes {
					buf = b.pk.Row(buf, u)
					sink += len(buf)
				}
			})
			sums[lLeaf] += log.timed("bitarray", i, "csr", n, func() {
				for _, u := range r.nodes {
					buf = unpackRow(b.pk, buf, u)
					sink += len(buf)
				}
			})
		}
	}
	return sums
}

// medianOf times fn reps times and returns the median wall in ns.
func medianOf(reps int, fn func()) float64 {
	walls := make([]float64, reps)
	for i := range walls {
		t0 := time.Now()
		fn()
		walls[i] = float64(time.Since(t0).Nanoseconds())
	}
	return median(walls)
}

// measureLayers produces every per-layer metric that needs no socket, the
// ledger of the workload's own chain, and the spans of the last replay
// pass.
func measureLayers(in *layerInputs, log *spanLog) (map[string]float64, []ledgerRow, error) {
	b, err := openBackends(in)
	if err != nil {
		return nil, nil, err
	}
	defer b.close()
	m := make(map[string]float64)

	reqs := make([]*http.Request, len(in.replay))
	groups := make([]grouped, len(in.replay))
	items := 0
	var legs, imbalance float64
	for i := range in.replay {
		if reqs[i], err = http.NewRequest(http.MethodGet, "http://replay"+in.replay[i].url, nil); err != nil {
			return nil, nil, err
		}
		groups[i] = groupByShard(b.part, &in.replay[i])
		items += in.replay[i].items()
		t, im := groups[i].legs()
		legs += float64(t)
		imbalance += im
	}
	nreq := float64(len(in.replay))
	m["shard.legs_per_req"] = legs / nreq
	m["shard.leg_imbalance"] = imbalance / nreq

	// Two untimed passes fill the caches, as the socket warm-up does; then
	// three passes with spans recorded and three without, alternating.
	quiet := &spanLog{}
	for i := 0; i < 2; i++ {
		b.replayPass(in, reqs, groups, quiet)
	}
	before := b.cacheStats()
	var passes [3][numLayers]float64
	var withSpans, without [3]float64
	for i := range passes {
		log.spans = log.spans[:0] // keep the last pass only
		t0 := time.Now()
		passes[i] = b.replayPass(in, reqs, groups, log)
		withSpans[i] = float64(time.Since(t0).Nanoseconds())
		t0 = time.Now()
		b.replayPass(in, reqs, groups, quiet)
		without[i] = float64(time.Since(t0).Nanoseconds())
	}
	after := b.cacheStats()
	var us [numLayers]float64 // median pass, µs per request
	for l := range us {
		us[l] = median([]float64{passes[0][l], passes[1][l], passes[2][l]}) / 1e3 / nreq
	}
	m["bench.span_overhead_pct"] = 100 * (median(withSpans[:]) - median(without[:])) / median(without[:])
	m["shard.rowtable_hit_ratio"] = 0
	if lookups := float64(after.Hits - before.Hits + after.Misses - before.Misses); lookups > 0 {
		m["shard.rowtable_hit_ratio"] = float64(after.Hits-before.Hits) / lookups
	}
	m["shard.rowtable_bytes"] = float64(after.Bytes)

	// Allocation counts of the handler alone, over one more pass.
	own := b.own(in)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := range reqs {
		own.ServeHTTP(&discard{h: make(http.Header)}, reqs[i])
	}
	runtime.ReadMemStats(&ms1)
	m["server.allocs_per_query"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(items)
	m["server.alloc_bytes_per_query"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(items)

	// Self times down the workload's own chain. A deeper replay that took
	// longer than its parent clamps the parent's self time at zero; the
	// excess then shows as a negative unattributed remainder, so the rows
	// always sum to the CPU measured at the socket.
	chain := []ledgerRow{{"shard.router", us[lRouter]}, {"shard.engine", us[lEngine]}, {"csr", us[lShardCSR]}, {"bitarray", us[lShardLeaf]}}
	if in.ownGraph == "mmap" {
		chain = []ledgerRow{{"query", us[lQuery]}, {"csr", us[lCSR]}, {"bitpack+bitarray", us[lLeaf]}}
	}
	chain = append(chain, ledgerRow{}) // below the last layer there is nothing to subtract
	httpSelf := selfTime(in.socketCPUUS, us[lServer])
	serverSelf := selfTime(us[lServer], chain[0].USPerReq)
	ledger := []ledgerRow{{"http", httpSelf}, {"server", serverSelf}}
	for i, c := range chain[:len(chain)-1] {
		ledger = append(ledger, ledgerRow{c.Layer, selfTime(c.USPerReq, chain[i+1].USPerReq)})
	}
	unattributed := in.socketCPUUS - sumLedger(ledger)
	ledger = append(ledger, ledgerRow{"unattributed", unattributed})
	m["ledger.unattributed_us_per_req"] = unattributed
	m["http.self_us_per_req"] = httpSelf
	m["server.total_us_per_req"] = us[lServer]
	m["server.self_us_per_req"] = serverSelf
	m["server.self_share"] = serverSelf / us[lServer]
	m["shard.router_us_per_req"] = us[lRouter]
	m["shard.router_self_us_per_req"] = selfTime(us[lRouter], us[lEngine])
	m["shard.engine_ns_per_query"] = us[lEngine] * 1e3 * nreq / float64(items)

	b.keyKernels(in, m)
	if err := b.graphKernels(in, m); err != nil {
		return nil, nil, err
	}
	return m, ledger, nil
}

// cacheStats sums the row-table counters of every shard engine.
func (b *backends) cacheStats() query.CacheStats {
	var total query.CacheStats
	for s := range b.pks {
		st := b.rt.Replicas(s)[0].CacheStats()
		total.Hits += st.Hits
		total.Misses += st.Misses
		total.Bytes += st.Bytes
	}
	return total
}

// keyKernels times the query, csr, bitpack and bitarray entry points on
// the workload's keys, p = 1 on the mapped container, median of 3.
func (b *backends) keyKernels(in *layerInputs, m map[string]float64) {
	var probes []csrgraph.Edge
	var nodes []uint32
	for i := range in.replay {
		probes = append(probes, existsView(&in.replay[i])...)
		nodes = append(nodes, nodesView(&in.replay[i])...)
	}
	pk := b.pk
	off, cols := pk.Parts()
	np := float64(len(probes))

	exists := medianOf(3, func() { sink += len(query.EdgesExistBatchSearch(pk, probes, 1)) })
	search := medianOf(3, func() {
		for _, e := range probes {
			if pk.SearchRow(e.U, e.V) {
				sink++
			}
		}
	})
	m["query.exists_ns_per_query"] = exists / np
	m["csr.search_ns_per_probe"] = search / np
	m["query.self_ns_per_query"] = selfTime(exists/np, search/np)
	m["query.par_speedup"] = exists / medianOf(3, func() { sink += len(query.EdgesExistBatchSearch(pk, probes, in.procs)) })

	bounds := make([][2]int, len(probes))
	for i, e := range probes {
		bounds[i][0], bounds[i][1] = pk.RowBounds(e.U)
	}
	m["bitpack.lowerbound_ns"] = medianOf(3, func() {
		for i, e := range probes {
			sink += cols.LowerBound(bounds[i][0], bounds[i][1], e.V)
		}
	}) / np

	nbrs := 0
	for _, u := range nodes {
		nbrs += pk.Degree(u)
	}
	nb := float64(max(nbrs, 1))
	var buf []uint32
	m["query.neighbors_ns_per_nbr"] = medianOf(3, func() { sink += len(query.NeighborsBatch(pk, nodes, 1)) }) / nb
	m["csr.row_ns_per_nbr"] = medianOf(3, func() {
		for _, u := range nodes {
			buf = pk.Row(buf, u)
			sink += len(buf)
		}
	}) / nb
	m["csr.degree_ns"] = medianOf(3, func() {
		for _, u := range nodes {
			sink += pk.Degree(u)
		}
	}) / float64(len(nodes))
	m["bitpack.get_ns"] = medianOf(3, func() {
		for _, u := range nodes {
			for i, end := int(off.Get(int(u))), int(off.Get(int(u)+1)); i < end; i++ {
				sink += int(cols.Get(i))
			}
		}
	}) / float64(max(nbrs+2*len(nodes), 1))
	unpack := medianOf(3, func() {
		for _, u := range nodes {
			buf = unpackRow(pk, buf, u)
			sink += len(buf)
		}
	})
	m["bitarray.unpack_ns_per_val"] = unpack / nb
	// Computed, not measured, bytes: width bits read and 4 bytes written
	// per value; bytes per ns is GB/s.
	m["bitarray.unpack_gb_per_s"] = nb * (float64(cols.Width())/8 + 4) / unpack
}

// graphKernels times the write path, the storage tier and the traversal
// kernels on G's data (and U's, for k-core) at p = procs.
func (b *backends) graphKernels(in *layerInputs, m map[string]float64) error {
	p := in.procs
	raw := edgelist.List(shuffled(in.edges, in.seed))
	var prepared edgelist.List
	m["edgelist.prepare_ms"] = medianOf(3, func() { prepared = raw.Prepared(false, p) }) / 1e6
	keys := make([]uint64, len(raw))
	work, scratch := make([]uint64, len(raw)), make([]uint64, len(raw))
	for i, e := range raw {
		keys[i] = uint64(e.U)<<32 | uint64(e.V)
	}
	sortNS := make([]float64, 3)
	for i := range sortNS {
		copy(work, keys)
		t0 := time.Now()
		radix.Sort64(work, scratch, p)
		sortNS[i] = float64(time.Since(t0).Nanoseconds())
	}
	m["radix.sort_ns_per_key"] = median(sortNS) / float64(len(keys))

	n := prepared.NumNodes()
	var deg []uint32
	m["degree.ns_per_edge"] = medianOf(3, func() { deg = degree.Parallel(prepared, n, p) }) / float64(len(prepared))
	m["prefixsum.ns_per_elem"] = medianOf(3, func() { sink += len(prefixsum.Offsets(deg, p)) }) / float64(len(deg))
	var mat *csr.Matrix
	m["csr.build_ms"] = medianOf(3, func() { mat = csr.Build(prepared, n, p) }) / 1e6
	var pk *csr.Packed
	m["csr.pack_ms"] = medianOf(3, func() { pk = csr.PackMatrix(mat, p) }) / 1e6
	m["bitpack.pack_ns_per_val"] = medianOf(3, func() { sink += bitpack.Pack(mat.Cols, p).Len() }) / float64(len(mat.Cols))

	// Storage tier: write the container once more, then open both forms.
	out := filepath.Join(in.dir, "ledger.csrc")
	var werr error
	writeNS := medianOf(3, func() {
		if err := mgraph.WritePackedFile(out, pk); err != nil {
			werr = err
		}
	})
	if werr != nil {
		return werr
	}
	var oerr error
	open := func(opts ...mgraph.OpenOption) func() {
		return func() {
			mp, err := mgraph.Open(out, opts...)
			if err != nil {
				oerr = err
				return
			}
			sink += int(mp.SizeBytes())
			mp.Close()
		}
	}
	m["mgraph.open_ms"] = medianOf(20, open()) / 1e6
	m["mgraph.open_verify_ms"] = medianOf(20, open(mgraph.WithVerify())) / 1e6
	st, err := os.Stat(out)
	if err != nil {
		return err
	}
	m["mgraph.write_mb_per_s"] = float64(st.Size()) / 1e6 / (writeNS / 1e9)
	m["shard.open_shards_ms"] = medianOf(20, func() {
		mf, err := shard.LoadManifest(in.manifestFile)
		if err == nil {
			var maps []*mgraph.Mapped
			if maps, err = shard.OpenShards(in.manifestFile, mf, false); err == nil {
				for _, mp := range maps {
					mp.Close()
				}
			}
		}
		if err != nil {
			oerr = err
		}
	}) / 1e6
	if oerr != nil {
		return oerr
	}

	// Traversals from the same sources as the library tail.
	srcs := bfsSources(in.prof.Windows, in.edges, in.seed)
	var shardWalls, frontierWalls []float64
	var rounds frontier.Stats
	for i, src := range srcs {
		t0 := time.Now()
		dist, _, err := b.rt.BFS(src)
		if err != nil {
			return err
		}
		shardWalls = append(shardWalls, float64(time.Since(t0).Nanoseconds()))
		t0 = time.Now()
		fdist, fst := algo.BFSFrontierStats(b.pk, nil, src, frontier.DefaultPolicy(), p)
		frontierWalls = append(frontierWalls, float64(time.Since(t0).Nanoseconds()))
		if !slices.Equal(dist, fdist) {
			return fmt.Errorf("sharded and frontier BFS from %d disagree", src)
		}
		if i == 0 {
			rounds = fst
		}
	}
	m["shard.bfs_ms"] = median(shardWalls) / 1e6
	m["frontier.bfs_rounds"] = float64(rounds.Rounds)
	m["frontier.bfs_sparse_rounds"] = float64(rounds.SparseRounds)
	m["frontier.bfs_ns_per_edge"] = median(frontierWalls) / float64(b.pk.NumEdges())

	uni, err := csrgraph.GenerateUniform(in.prof.UniformNodes, in.prof.UniformEdges, in.seed, genProcs)
	if err != nil {
		return err
	}
	for name, edges := range map[string][]csrgraph.Edge{"powerlaw": in.edges, "uniform": uni} {
		sym := edgelist.List(withoutLoops(edges)).Prepared(true, p)
		g := csr.Build(sym, sym.NumNodes(), p)
		m["algo.kcore_ns_per_edge_"+name] = medianOf(3, func() { sink += len(algo.CoreNumbersBucketed(g, p)) }) / float64(len(sym))
	}

	const calls = 2000
	m["parallel.for_overhead_us"] = medianOf(3, func() {
		for i := 0; i < calls; i++ {
			parallel.For(p, p, func(int, parallel.Range) {})
		}
	}) / calls / 1e3
	const grabs = 1 << 16
	m["parallel.dynamic_grab_ns"] = medianOf(5, func() {
		parallel.ForDynamic(grabs, p, 1, func(int, parallel.Range) {})
	}) / grabs
	return nil
}
