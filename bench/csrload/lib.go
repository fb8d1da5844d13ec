package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"

	"csrgraph"
)

// genProcs is the processor count handed to the in-process generator. Like
// graphgen's -procs it is part of what a seed means, so it is fixed.
const genProcs = 4

// verifyExists checks one EdgesExistBatch answer against the oracle.
func verifyExists(r *request, got []bool, o *oracle) error {
	if len(got) != len(r.edges) {
		return fmt.Errorf("%d answers for %d probes", len(got), len(r.edges))
	}
	for i, e := range r.edges {
		if want := o.exists(e.U, e.V); got[i] != want {
			return fmt.Errorf("probe %d (%d:%d): got %v, oracle says %v", i, e.U, e.V, got[i], want)
		}
	}
	return nil
}

// gateLib is the in-process correctness gate: every pooled batch once,
// every answer against the oracle.
func gateLib(cg *csrgraph.CompressedGraph, pool []request, o *oracle, procs int) error {
	for i := range pool {
		if err := verifyExists(&pool[i], cg.EdgesExistBatch(pool[i].edges, procs), o); err != nil {
			return fmt.Errorf("batch %d: %w", i, err)
		}
	}
	return nil
}

// existsLoop is the in-process closed loop: one caller issuing
// EdgesExistBatch over the pooled batches, each call parallel over procs.
// One call in 64 is checked against the oracle in full.
func existsLoop(cg *csrgraph.CompressedGraph, pool []request, o *oracle, procs int, origin time.Time) loopFunc {
	return func(start int64, stop <-chan struct{}) loopResult {
		var res loopResult
		for i := int(start % int64(len(pool))); ; i++ {
			select {
			case <-stop:
				return res
			default:
			}
			r := &pool[i%len(pool)]
			t0 := time.Now()
			got := cg.EdgesExistBatch(r.edges, procs)
			t1 := time.Now()
			res.attempted++
			var err error
			if res.attempted%64 == 0 {
				err = verifyExists(r, got, o)
			} else if len(got) != len(r.edges) {
				err = fmt.Errorf("%d answers for %d probes", len(got), len(r.edges))
			}
			if err != nil {
				res.failed++
				if res.firstErr == nil {
					res.firstErr = fmt.Errorf("batch %d: %w", i%len(pool), err)
				}
				continue
			}
			res.samples = append(res.samples, sample{
				doneNS: t1.Sub(origin).Nanoseconds(), latNS: t1.Sub(t0).Nanoseconds(),
				req: int32(i % len(pool)), items: int32(len(got)), bytes: int64(len(got)), // one byte per answer
			})
		}
	}
}

// kcoreCase is one graph CoreNumbers is timed on: its symmetrized
// loop-free form, and the sequential answer it is checked against once.
type kcoreCase struct {
	g    *csrgraph.Graph
	want []uint32
}

func newKCoreCase(edges []csrgraph.Edge, procs int) (*kcoreCase, error) {
	simple := withoutLoops(edges) // core numbers are defined on simple graphs
	g, err := csrgraph.Build(simple, csrgraph.WithSymmetrize(), csrgraph.WithProcs(procs))
	if err != nil {
		return nil, err
	}
	return &kcoreCase{g: g, want: sequentialCores(symmetricOracle(simple))}, nil
}

// run times one CoreNumbers call in ms; check compares it with sequential
// peeling.
func (k *kcoreCase) run(procs int, check bool) (float64, error) {
	runtime.GC()
	t0 := time.Now()
	core := k.g.CoreNumbers(procs)
	ms := float64(time.Since(t0).Nanoseconds()) / 1e6
	if check && !slices.Equal(core, k.want) {
		return 0, fmt.Errorf("core numbers differ from sequential peeling")
	}
	return ms, nil
}

// libTail is the rest of the paper's pipeline, in process through the root
// package's public API: construction and compression of G in crawl order,
// batched row decodes, BFS, and k-core on G and on the uniform-degree U.
// Every workload runs it (the driver wants every end-to-end metric from
// every workload); lib-pipeline is the workload to cite for these numbers.
// It runs one round after each window of the measured loop, one sample of
// each metric per round, so that its samples too are spread over the whole
// run. Every answer is checked: batches against the oracle, BFS against a
// sequential textbook BFS, core numbers against sequential peeling.
type libTail struct {
	procs             int
	decode            time.Duration // NeighborsBatch time per round
	o                 *oracle
	crawl             []csrgraph.Edge
	batches           [][]uint32
	srcs              []uint32
	powerlaw, uniform *kcoreCase
	raw               map[string][]float64 // the samples of each metric
	attempted         int64
}

func newLibTail(p profile, edges []csrgraph.Edge, o *oracle, seed uint64, procs int) (*libTail, error) {
	t := &libTail{
		procs: procs, o: o, raw: make(map[string][]float64),
		decode:  time.Duration(p.DecodeS * float64(time.Second) / float64(p.Windows)),
		crawl:   shuffled(edges, seed),
		batches: nodeBatches(64, 1024, edges, seed),
		srcs:    bfsSources(p.Windows, edges, seed),
	}
	var err error
	if t.powerlaw, err = newKCoreCase(edges, procs); err != nil {
		return nil, err
	}
	uni, err := csrgraph.GenerateUniform(p.UniformNodes, p.UniformEdges, seed, genProcs)
	if err != nil {
		return nil, err
	}
	if t.uniform, err = newKCoreCase(uni, procs); err != nil {
		return nil, err
	}
	return t, nil
}

func (t *libTail) round(round int) error {
	raw, o, procs := t.raw, t.o, t.procs
	// A collection before each timed phase, as testing.B does before a
	// benchmark: whether the garbage of the phase before is collected inside
	// this one is otherwise a coin toss worth a tenth of its time.
	runtime.GC()
	t0 := time.Now()
	g, err := csrgraph.Build(t.crawl, csrgraph.WithProcs(procs))
	if err != nil {
		return err
	}
	cg := g.Compress()
	raw["build_edges_per_s"] = append(raw["build_edges_per_s"], float64(len(t.crawl))/time.Since(t0).Seconds())
	if cg.NumNodes() != o.numNodes() || cg.NumEdges() != o.numEdges() {
		return fmt.Errorf("Build: %d nodes / %d edges, oracle has %d / %d",
			cg.NumNodes(), cg.NumEdges(), o.numNodes(), o.numEdges())
	}
	raw["bytes_per_edge"] = []float64{float64(cg.SizeBytes()) / float64(cg.NumEdges())}

	// Row decodes: degree-biased batches of 1024 nodes, one rate per round.
	nbrs, calls := 0, 0
	runtime.GC()
	t0 = time.Now()
	for ; calls == 0 || time.Since(t0) < t.decode; calls++ {
		nodes := t.batches[(round*7+calls)%len(t.batches)]
		rows := cg.NeighborsBatch(nodes, procs)
		for _, row := range rows {
			nbrs += len(row)
		}
		if calls == 0 {
			for j, u := range nodes {
				if !slices.Equal(rows[j], o.row(u)) {
					return fmt.Errorf("NeighborsBatch: row of node %d differs from the oracle", u)
				}
			}
		}
	}
	raw["decode_mnbr_per_s"] = append(raw["decode_mnbr_per_s"], float64(nbrs)/1e6/time.Since(t0).Seconds())

	src := t.srcs[round%len(t.srcs)]
	runtime.GC()
	t0 = time.Now()
	dist := cg.BFS(src, procs)
	raw["bfs_ms"] = append(raw["bfs_ms"], float64(time.Since(t0).Nanoseconds())/1e6)
	if !slices.Equal(dist, sequentialBFS(o, src)) {
		return fmt.Errorf("BFS from %d differs from the sequential BFS", src)
	}

	ms, err := t.powerlaw.run(procs, round == 0)
	if err != nil {
		return fmt.Errorf("CoreNumbers on G: %w", err)
	}
	raw["kcore_powerlaw_ms"] = append(raw["kcore_powerlaw_ms"], ms)
	if ms, err = t.uniform.run(procs, round == 0); err != nil {
		return fmt.Errorf("CoreNumbers on U: %w", err)
	}
	raw["kcore_uniform_ms"] = append(raw["kcore_uniform_ms"], ms)
	t.attempted += int64(calls) + 4
	return nil
}

// withoutLoops drops self-loops.
func withoutLoops(edges []csrgraph.Edge) []csrgraph.Edge {
	out := make([]csrgraph.Edge, 0, len(edges))
	for _, e := range edges {
		if e.U != e.V {
			out = append(out, e)
		}
	}
	return out
}

// symmetricOracle is the oracle of the symmetrized graph.
func symmetricOracle(edges []csrgraph.Edge) *oracle {
	both := make([]csrgraph.Edge, 0, 2*len(edges))
	for _, e := range edges {
		both = append(both, e, csrgraph.Edge{U: e.V, V: e.U})
	}
	return newOracle(both, 0)
}

// sequentialBFS is the textbook queue BFS: hop distances from src,
// csrgraph.Unreached where there is no path.
func sequentialBFS(o *oracle, src uint32) []int32 {
	dist := make([]int32, o.numNodes())
	for i := range dist {
		dist[i] = csrgraph.Unreached
	}
	dist[src] = 0
	queue := []uint32{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range o.row(u) {
			if dist[v] == csrgraph.Unreached {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// sequentialCores is Batagelj-Zaversnik peeling over a symmetric oracle:
// nodes bucket-sorted by degree, the smallest removed first, each removal
// lowering its heavier neighbors by one.
func sequentialCores(o *oracle) []uint32 {
	n := o.numNodes()
	deg := make([]uint32, n)
	maxDeg := 0
	for u := range deg {
		deg[u] = uint32(o.degree(uint32(u)))
		maxDeg = max(maxDeg, int(deg[u]))
	}
	start := make([]int, maxDeg+2) // start[d]: first position of degree-d nodes in order
	for _, d := range deg {
		start[d+1]++
	}
	for d := 1; d < len(start); d++ {
		start[d] += start[d-1]
	}
	order := make([]uint32, n)
	pos := make([]int, n)
	next := slices.Clone(start)
	for u, d := range deg {
		pos[u] = next[d]
		order[pos[u]] = uint32(u)
		next[d]++
	}
	for i := 0; i < n; i++ {
		u := order[i]
		for _, v := range o.row(u) {
			if deg[v] <= deg[u] {
				continue
			}
			// Move v to the front of its degree block, then shrink the block.
			first := start[deg[v]]
			w := order[first]
			order[first], order[pos[v]] = v, w
			pos[w], pos[v] = pos[v], first
			start[deg[v]]++
			deg[v]--
		}
	}
	return deg
}
