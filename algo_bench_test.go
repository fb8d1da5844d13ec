// Traversal-analytics benchmarks on the frontier core (internal/frontier)
// at 10M edges.
//
//	BenchmarkBFSFrontier — the frontier core's BFS with sparse↔dense
//	    switching (algo=frontier) on symmetrized uniform and power-law
//	    graphs.
//	BenchmarkKCore — level-synchronous peeling (algo=bucket), also on
//	    lib-pipeline's scale-18 power-law graph (dist=rmat18).
//	BenchmarkTriangles — the degree-oriented triangle kernel behind
//	    CountTriangles (arm=count) and LocalClustering (arm=clustering)
//	    on a scale-18 symmetrized R-MAT, over the host's processor sweep.
//
// Pair a change against its parent with
// `go run ./cmd/benchpair -ref <parent> . -test.bench 'BenchmarkBFSFrontier|BenchmarkKCore'`.
package csrgraph

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"csrgraph/internal/algo"
	"csrgraph/internal/csr"
	"csrgraph/internal/gen"
	"csrgraph/internal/harness"
)

// algoBenchProcs is the worker count every algo benchmark runs with: the
// machine's actual parallelism. Oversubscribing a CPU-bound traversal (the
// suite's usual fixed 4) measures scheduler churn, not the algorithm, on
// smaller hosts.
var algoBenchProcs = runtime.GOMAXPROCS(0)

var (
	algoBenchOnce sync.Once
	algoBench     map[string]*csr.Matrix
)

// algoBenchSetup builds symmetrized 10M-edge CSRs once per distribution
// from the construction benchmarks' deterministic edge lists. Symmetric
// graphs are their own transpose, so the frontier traversals run dense
// (pull) rounds without building one.
func algoBenchSetup(b *testing.B) map[string]*csr.Matrix {
	b.Helper()
	inputs := sortBenchInputs(b)
	algoBenchOnce.Do(func() {
		algoBench = map[string]*csr.Matrix{}
		for _, dist := range []string{"uniform", "powerlaw"} {
			src := inputs[fmt.Sprintf("dist=%s/edges=%d", dist, queryBenchEdges)]
			g, err := Build(src, WithProcs(4), WithSymmetrize())
			if err != nil {
				panic(err)
			}
			algoBench[dist] = g.m
		}
	})
	return algoBench
}

// BenchmarkBFSFrontier times the frontier core's direction-switching
// traversal from a fixed source. The arm keeps its algo=frontier name so
// pairs against older commits match it by name.
func BenchmarkBFSFrontier(b *testing.B) {
	graphs := algoBenchSetup(b)
	for _, dist := range []string{"uniform", "powerlaw"} {
		m := graphs[dist]
		b.Run(fmt.Sprintf("dist=%s/edges=%d/algo=frontier", dist, queryBenchEdges), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				algo.BFSFrontier(m, m, 1, algoBenchProcs)
			}
		})
	}
}

var (
	kcoreBenchOnce sync.Once
	kcoreBench     *csr.Matrix
)

// BenchmarkKCore times CoreNumbersBucketed, now level-synchronous peeling
// on exact degree crossings. The 10M-edge arms keep the algo=bucket name
// of the bucketed peel it replaced, so pairs against older commits match.
// The dist=rmat18 arm is the power-law graph csrload's lib-pipeline times
// as kcore_powerlaw_ms: an R-MAT of scale 18 and 2M generated edges, seed
// 1, loops dropped, symmetrized (3.76M stored edges).
func BenchmarkKCore(b *testing.B) {
	graphs := algoBenchSetup(b)
	for _, dist := range []string{"uniform", "powerlaw"} {
		m := graphs[dist]
		b.Run(fmt.Sprintf("dist=%s/edges=%d/algo=bucket", dist, queryBenchEdges), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				algo.CoreNumbersBucketed(m, algoBenchProcs)
			}
		})
	}
	kcoreBenchOnce.Do(func() {
		l, err := gen.RMAT(18, 2_000_000, gen.DefaultRMAT, 1, 4)
		if err != nil {
			panic(err)
		}
		l = slices.DeleteFunc(l, func(e Edge) bool { return e.U == e.V })
		g, err := Build(l, WithProcs(4), WithSymmetrize(), WithNumNodes(1<<18))
		if err != nil {
			panic(err)
		}
		kcoreBench = g.m
	})
	b.Run("dist=rmat18/edges=2000000/algo=bucket", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			algo.CoreNumbersBucketed(kcoreBench, algoBenchProcs)
		}
	})
}

var (
	triangleBenchOnce sync.Once
	triangleBench     *csr.Matrix
)

// BenchmarkTriangles times CountTriangles and LocalClustering at every p of
// harness.Sweep(GOMAXPROCS) on a symmetrized R-MAT of scale 18 and 2M
// generated edges, self-loops kept (3.76M stored, 17.7M triangles): skewed
// enough that hub rows dominate a kernel that merges full rows, small
// enough for ten alternating parent/change pairs.
func BenchmarkTriangles(b *testing.B) {
	triangleBenchOnce.Do(func() {
		l, err := gen.RMAT(18, 2_000_000, gen.DefaultRMAT, 42, 4)
		if err != nil {
			panic(err)
		}
		g, err := Build(l, WithProcs(4), WithSymmetrize(), WithNumNodes(1<<18))
		if err != nil {
			panic(err)
		}
		triangleBench = g.m
	})
	for _, arm := range []string{"count", "clustering"} {
		for _, p := range harness.Sweep(runtime.GOMAXPROCS(0)) {
			b.Run(fmt.Sprintf("arm=%s/p=%d", arm, p), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if arm == "count" {
						algo.CountTriangles(triangleBench, p)
					} else {
						algo.LocalClustering(triangleBench, p)
					}
				}
			})
		}
	}
}
