// Construction-side benchmarks: the radix-sort ingest pipeline, beside
// the decode-side suite in bench_test.go.
//
//	BenchmarkSortByUV — the tentpole sort itself, radix vs the retained
//	    merge baseline, over uniform (Erdős-Rényi) and power-law (R-MAT)
//	    edge lists up to 10M edges. `make bench-compare` pairs the
//	    algo=radix and algo=merge forms of exactly these sub-benchmarks.
//	BenchmarkBuild — end-to-end Build (fused pack/symmetrize → radix →
//	    dedup-unpack → CSR fill).
//	BenchmarkBuildTemporal — end-to-end BuildTemporal over the 128-bit
//	    (t, u, v) key tuples.
package csrgraph

import (
	"fmt"
	"sync"
	"testing"

	"csrgraph/internal/edgelist"
	"csrgraph/internal/gen"
)

// sortBenchSizes are the edge counts the sort benchmarks sweep; the 10M
// point is the ISSUE's acceptance target.
var sortBenchSizes = []int{1_000_000, 10_000_000}

var (
	sortBenchOnce sync.Once
	sortBenchIn   map[string]edgelist.List
)

// sortBenchInputs generates the benchmark edge lists once: uniform random
// (Erdős-Rényi) and power-law (R-MAT scale 21, ~2M-node id space) at each
// size, deterministic across runs.
func sortBenchInputs(b *testing.B) map[string]edgelist.List {
	b.Helper()
	sortBenchOnce.Do(func() {
		sortBenchIn = map[string]edgelist.List{}
		for _, n := range sortBenchSizes {
			uni, err := gen.ErdosRenyi(1<<21, n, 42, 4)
			if err != nil {
				panic(err)
			}
			sortBenchIn[fmt.Sprintf("dist=uniform/edges=%d", n)] = uni
			pow, err := gen.RMAT(21, n, gen.DefaultRMAT, 42, 4)
			if err != nil {
				panic(err)
			}
			sortBenchIn[fmt.Sprintf("dist=powerlaw/edges=%d", n)] = pow
		}
	})
	return sortBenchIn
}

// BenchmarkSortByUV compares the radix construction sort against the
// retained merge baseline. Each iteration re-sorts a pristine copy; the
// copy runs off the clock.
func BenchmarkSortByUV(b *testing.B) {
	inputs := sortBenchInputs(b)
	for _, n := range sortBenchSizes {
		for _, dist := range []string{"uniform", "powerlaw"} {
			src := inputs[fmt.Sprintf("dist=%s/edges=%d", dist, n)]
			work := make(edgelist.List, len(src))
			for _, algo := range []string{"merge", "radix"} {
				b.Run(fmt.Sprintf("dist=%s/edges=%d/algo=%s", dist, n, algo), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						copy(work, src)
						b.StartTimer()
						if algo == "radix" {
							work.SortByUV(4)
						} else {
							work.SortByUVMerge(4)
						}
					}
					b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
				})
			}
		}
	}
}

// BenchmarkBuild measures the full ingest pipeline: fused pack(+reverse
// edges) → radix sort → dedup-unpack → CSR arrays.
func BenchmarkBuild(b *testing.B) {
	inputs := sortBenchInputs(b)
	for _, n := range sortBenchSizes {
		src := inputs[fmt.Sprintf("dist=powerlaw/edges=%d", n)]
		b.Run(fmt.Sprintf("dist=powerlaw/edges=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Build(src, WithProcs(4)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
		})
	}
	// Symmetrized variant at the smaller size: twice the keys, plus the
	// fused reverse-edge pack.
	src := inputs[fmt.Sprintf("dist=powerlaw/edges=%d", sortBenchSizes[0])]
	b.Run(fmt.Sprintf("dist=powerlaw/edges=%d/symmetrize", sortBenchSizes[0]), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Build(src, WithProcs(4), WithSymmetrize()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBuildTemporal measures temporal ingest end to end: the 128-bit
// key-tuple radix sort plus fused dedup feeding tcsr.BuildFromEvents.
func BenchmarkBuildTemporal(b *testing.B) {
	const nodes, frames = 100_000, 32
	events, err := gen.TemporalStream(nodes, 1_000_000, 50_000, frames, 7, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.Run(fmt.Sprintf("events=%d/frames=%d", len(events), frames), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := BuildTemporal(events, frames, WithProcs(4)); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(events))*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	})
}
