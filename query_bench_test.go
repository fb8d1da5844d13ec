// Query-side benchmarks for the skew-aware batched query engine: the
// zero-decode packed search and the hot-row cache, measured against the
// decode-and-scan baselines they replace.
//
//	BenchmarkEdgesExistBatch — existence probes on a 10M-edge packed CSR,
//	    algo=linear (decode + early-exit scan, the pre-engine baseline),
//	    algo=binary (decode + binary search), algo=search (zero-decode
//	    branch-free packed search). Probe sources are degree-biased
//	    (sampled from edge endpoints), matching the traffic-follows-hubs
//	    skew of social-network workloads. The dist=rmat variants run the
//	    zero-decode search alone on a scale-18 R-MAT graph in 16384-probe
//	    batches: keys=edge draws sources from edges, keys=node draws uniform
//	    node ids, so that most probes land on empty rows, and keys=edge-cold
//	    cycles through 64 keys=edge batches, past what L2 holds.
//	BenchmarkNeighborsBatch — batched row decodes, cache=cold (straight
//	    packed decode) vs cache=warm (hot-row cache, pre-warmed), on a
//	    hub-heavy batch and a uniform batch.
//
// `make bench-compare-query` pairs the algo=search and algo=linear forms
// of exactly these sub-benchmarks.
package csrgraph

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"csrgraph/internal/csr"
	"csrgraph/internal/edgelist"
	"csrgraph/internal/mgraph"
	"csrgraph/internal/query"
)

// queryBenchEdges is the ISSUE's acceptance size: 10M edges.
const queryBenchEdges = 10_000_000

type queryBenchGraph struct {
	pk    *csr.Packed
	mpk   *csr.Packed   // the same graph served from an mmap-backed container
	edges edgelist.List // raw generated list, for degree-biased sampling
}

var (
	queryBenchOnce sync.Once
	queryBench     map[string]*queryBenchGraph
)

// queryBenchSetup builds the 10M-edge packed CSRs once per distribution,
// reusing the construction benchmarks' deterministic edge lists.
func queryBenchSetup(b *testing.B) map[string]*queryBenchGraph {
	b.Helper()
	inputs := sortBenchInputs(b)
	queryBenchOnce.Do(func() {
		queryBench = map[string]*queryBenchGraph{}
		for _, dist := range []string{"uniform", "powerlaw"} {
			src := inputs[fmt.Sprintf("dist=%s/edges=%d", dist, queryBenchEdges)]
			g, err := Build(src, WithProcs(4))
			if err != nil {
				panic(err)
			}
			pk := csr.PackMatrix(g.m, 4)
			// The mmap-backed twin: written once, mapped, and held open for
			// the process lifetime (benchmarks only compare query paths, so
			// the mapping is never closed).
			dir, err := os.MkdirTemp("", "csrquerybench-")
			if err != nil {
				panic(err)
			}
			path := filepath.Join(dir, "g.csrc")
			if err := mgraph.WritePackedFile(path, pk); err != nil {
				panic(err)
			}
			m, err := mgraph.Open(path)
			if err != nil {
				panic(err)
			}
			queryBench[dist] = &queryBenchGraph{pk: pk, mpk: m.Packed(), edges: src}
		}
	})
	return queryBench
}

// benchRNG is the same splitmix-style generator the other benchmarks use,
// so probe sets are deterministic without math/rand.
func benchRNG(state uint64) func() uint32 {
	return func() uint32 {
		state = state*6364136223846793005 + 1442695040888963407
		return uint32(state >> 33)
	}
}

// queryBenchProbes builds nq existence probes: sources are degree-biased
// (drawn from edge endpoints, so hub rows are probed in proportion to
// their traffic), half the targets are real neighbors and half random.
func queryBenchProbes(g *queryBenchGraph, nq int) []edgelist.Edge {
	next := benchRNG(23)
	n := uint32(g.pk.NumNodes())
	probes := make([]edgelist.Edge, nq)
	for i := range probes {
		e := g.edges[next()%uint32(len(g.edges))]
		if i%2 == 0 {
			probes[i] = e // present
		} else {
			probes[i] = edgelist.Edge{U: e.U, V: next() % n} // usually absent
		}
	}
	return probes
}

// BenchmarkEdgesExistBatch is the engine's acceptance benchmark: the
// zero-decode search path against the decode-and-scan baselines on the
// 10M-edge graphs, and the search alone on the R-MAT graph under both key
// distributions.
func BenchmarkEdgesExistBatch(b *testing.B) {
	b.Run("dist=rmat", benchExistsRMAT)
	const nq = 4096
	for _, dist := range []string{"uniform", "powerlaw"} {
		b.Run("dist="+dist, func(b *testing.B) {
			g := queryBenchSetup(b)[dist]
			probes := queryBenchProbes(g, nq)
			algos := []struct {
				name string
				fn   func(query.Source, []edgelist.Edge, int) []bool
			}{
				{"linear", query.EdgesExistBatch},
				{"binary", query.EdgesExistBatchBinary},
				{"search", query.EdgesExistBatchSearch},
			}
			// The regression gate for the mmap path: the zero-decode search
			// on the mapped container must match algo=search on the heap
			// arrays.
			b.Run(fmt.Sprintf("edges=%d/algo=search-mmap", queryBenchEdges), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					query.EdgesExistBatchSearch(g.mpk, probes, 4)
				}
				b.ReportMetric(float64(nq)*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
			})
			for _, algo := range algos {
				b.Run(fmt.Sprintf("edges=%d/algo=%s", queryBenchEdges, algo.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						algo.fn(g.pk, probes, 4)
					}
					b.ReportMetric(float64(nq)*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
				})
			}
		})
	}
}

// rmatBenchScale and rmatBenchEdges size the R-MAT graph of the dist=rmat
// variants: the node space and edge count of csrload's default profile
// (bench/workloads.json).
const (
	rmatBenchScale = 18
	rmatBenchEdges = 2_000_000
)

var (
	rmatBenchOnce sync.Once
	rmatBench     *queryBenchGraph
)

// rmatBenchProbes builds nq probes on g from the given seed: keys=node
// takes uniform node ids as sources, keys=edge the source of a random edge;
// half the targets of non-empty rows are true neighbours, the rest uniform
// node ids.
func rmatBenchProbes(g *queryBenchGraph, keys string, nq int, seed uint64) []edgelist.Edge {
	next := benchRNG(seed)
	n := uint32(g.pk.NumNodes())
	probes := make([]edgelist.Edge, nq)
	for i := range probes {
		u := next() % n
		if keys == "edge" {
			u = g.edges[next()%uint32(len(g.edges))].U
		}
		v := next() % n
		if d := uint32(g.pk.Degree(u)); d > 0 && next()&1 == 0 {
			v = g.pk.Neighbor(u, int(next()%d))
		}
		probes[i] = edgelist.Edge{U: u, V: v}
	}
	return probes
}

// rmatColdBatches is how many distinct batches keys=edge-cold cycles
// through: their probes touch far more of jA than a core's L2 holds, so a
// batch does not find the hub rows' lines left behind by the previous run
// of the same batch, as keys=edge does.
const rmatColdBatches = 64

// benchExistsRMAT runs the zero-decode search in 16384-probe batches on the
// R-MAT graph, for each key distribution at p=1 and p=2. keys=edge-cold
// draws like keys=edge, from rmatColdBatches seeds in turn. ns/probe is the
// per-probe cost across all processors.
func benchExistsRMAT(b *testing.B) {
	rmatBenchOnce.Do(func() {
		edges, err := GenerateRMAT(rmatBenchScale, rmatBenchEdges, 42, 4)
		if err != nil {
			panic(err)
		}
		g, err := Build(edges, WithProcs(4))
		if err != nil {
			panic(err)
		}
		rmatBench = &queryBenchGraph{pk: csr.PackMatrix(g.m, 4), edges: edges}
	})
	const nq = 16384
	for _, keys := range []string{"node", "edge", "edge-cold"} {
		batches := [][]edgelist.Edge{rmatBenchProbes(rmatBench, keys, nq, 31)}
		if keys == "edge-cold" {
			batches = batches[:0]
			for seed := uint64(0); seed < rmatColdBatches; seed++ {
				batches = append(batches, rmatBenchProbes(rmatBench, "edge", nq, 1000+seed))
			}
		}
		for _, p := range []int{1, 2} {
			b.Run(fmt.Sprintf("edges=%d/keys=%s/p=%d", rmatBenchEdges, keys, p), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					query.EdgesExistBatchSearch(rmatBench.pk, batches[i%len(batches)], p)
				}
				b.ReportMetric(b.Elapsed().Seconds()*1e9/(float64(nq)*float64(b.N)), "ns/probe")
			})
		}
	}
}

// queryBenchBatch builds a node batch: "hub" draws half its entries from
// the top-degree nodes (the repeated-hub traffic a hot-row cache absorbs),
// "uniform" draws all entries uniformly.
func queryBenchBatch(g *queryBenchGraph, kind string, size int) []edgelist.NodeID {
	next := benchRNG(29)
	n := uint32(g.pk.NumNodes())
	var hubs []edgelist.NodeID
	if kind == "hub" {
		// Top 64 nodes by degree, via one linear scan with a small
		// insertion-sorted tail.
		hubs = make([]edgelist.NodeID, 0, 64)
		degs := make([]int, 0, 64)
		for u := uint32(0); u < n; u++ {
			d := g.pk.Degree(u)
			if len(hubs) < 64 || d > degs[len(degs)-1] {
				i := len(degs)
				if len(hubs) < 64 {
					hubs = append(hubs, 0)
					degs = append(degs, 0)
				} else {
					i = len(degs) - 1
				}
				for i > 0 && degs[i-1] < d {
					hubs[i], degs[i] = hubs[i-1], degs[i-1]
					i--
				}
				hubs[i], degs[i] = u, d
			}
		}
	}
	batch := make([]edgelist.NodeID, size)
	for i := range batch {
		if kind == "hub" && i%2 == 0 {
			batch[i] = hubs[int(next())%len(hubs)]
		} else {
			batch[i] = next() % n
		}
	}
	return batch
}

// BenchmarkNeighborsBatch measures batched row decodes: cache=cold decodes
// every row from the heap-resident packed CSR, cache=mmap from the same
// rows in a mapped container.
func BenchmarkNeighborsBatch(b *testing.B) {
	graphs := queryBenchSetup(b)
	const size = 2048
	for _, dist := range []string{"uniform", "powerlaw"} {
		g := graphs[dist]
		for _, kind := range []string{"hub", "uniform"} {
			batch := queryBenchBatch(g, kind, size)
			for cacheLabel, src := range map[string]query.Source{"cold": g.pk, "mmap": g.mpk} {
				b.Run(fmt.Sprintf("dist=%s/batch=%s/cache=%s", dist, kind, cacheLabel), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						query.NeighborsBatch(src, batch, 4)
					}
					b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
				})
			}
		}
	}
}
