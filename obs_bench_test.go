// Overhead gate for the observability layer: the query acceptance
// benchmarks re-run with metric collection off and on. The obs=off
// variants must match the uninstrumented baselines (the hot loops see one
// atomic load + branch per batch), and obs=on must stay within the ISSUE's
// <5% budget — the per-batch cost is two clock reads, two histogram
// observes, and a counter increment, amortized over thousands of queries.
//
//	BenchmarkNeighborsBatchObs  — Algorithm 6 batch decodes, obs=off|on
//	BenchmarkEdgesExistBatchObs — zero-decode existence probes, obs=off|on
//
// `make bench-obs` pairs the obs=on and obs=off forms of these.
package csrgraph

import (
	"fmt"
	"testing"

	"csrgraph/internal/obs"
	"csrgraph/internal/query"
)

// obsBenchStates runs fn under both metric-collection states, restoring
// the disabled default afterwards.
func obsBenchStates(b *testing.B, fn func(b *testing.B, label string)) {
	b.Helper()
	for _, on := range []bool{false, true} {
		obs.SetEnabled(on)
		label := "off"
		if on {
			label = "on"
		}
		fn(b, label)
	}
	obs.SetEnabled(false)
}

func BenchmarkNeighborsBatchObs(b *testing.B) {
	graphs := queryBenchSetup(b)
	const size = 2048
	for _, dist := range []string{"uniform", "powerlaw"} {
		g := graphs[dist]
		batch := queryBenchBatch(g, "uniform", size)
		obsBenchStates(b, func(b *testing.B, label string) {
			b.Run(fmt.Sprintf("dist=%s/obs=%s", dist, label), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					query.NeighborsBatch(g.pk, batch, 4)
				}
				b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
			})
		})
	}
}

func BenchmarkEdgesExistBatchObs(b *testing.B) {
	graphs := queryBenchSetup(b)
	const nq = 4096
	for _, dist := range []string{"uniform", "powerlaw"} {
		g := graphs[dist]
		probes := queryBenchProbes(g, nq)
		obsBenchStates(b, func(b *testing.B, label string) {
			b.Run(fmt.Sprintf("dist=%s/obs=%s", dist, label), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					query.EdgesExistBatchSearch(g.pk, probes, 4)
				}
				b.ReportMetric(float64(nq)*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
			})
		})
	}
}
