// Tracing overhead gate: the same degree-biased existence probes as
// BenchmarkShardEdgesExistBatch through the 8-shard router, with the span
// recorder off, head-sampling 1 in 256 (the -trace-sample 1/256 production
// setting), and tracing every request.
//
//	BenchmarkTraceEdgesExistBatch/dist=powerlaw/.../trace=off
//	BenchmarkTraceEdgesExistBatch/dist=powerlaw/.../trace=sampled
//	BenchmarkTraceEdgesExistBatch/dist=powerlaw/.../trace=always
//
// The acceptance budget is <= 5% regression for trace=sampled against
// trace=off; `make bench-trace` pairs the two
// (`cmd/benchpair -key trace -baseline off -new sampled`).
package csrgraph

import (
	"fmt"
	"testing"

	"csrgraph/internal/trace"
)

// BenchmarkTraceEdgesExistBatch measures the serving path's tracing cost:
// trace=off carries a nil *Trace through every stamping site, trace=sampled
// pays the Start/Finish atomics on every request and full span recording on
// one in 256, trace=always records ~26 spans plus a ring copy per request.
func BenchmarkTraceEdgesExistBatch(b *testing.B) {
	graphs := queryBenchSetup(b)
	routers := shardBenchSetup(b)
	const nq = 4096
	const shards = 8
	recs := map[string]*trace.Recorder{
		"off":     nil,
		"sampled": trace.NewRecorder(trace.RecorderConfig{Sample: 256}),
		"always":  trace.NewRecorder(trace.RecorderConfig{Sample: 1}),
	}
	for _, dist := range []string{"uniform", "powerlaw"} {
		g := graphs[dist]
		probes := queryBenchProbes(g, nq)
		rt := routers[dist][shards]
		if _, err := rt.EdgesExistBatch(probes); err != nil { // warm the shard caches off the clock
			b.Fatal(err)
		}
		for _, mode := range []string{"off", "sampled", "always"} {
			rec := recs[mode]
			b.Run(fmt.Sprintf("dist=%s/edges=%d/shards=%d/trace=%s", dist, queryBenchEdges, shards, mode), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					tr := rec.Start(trace.OpExists, false)
					if _, err := rt.EdgesExistBatchTraced(probes, tr); err != nil {
						b.Fatal(err)
					}
					rec.Finish(tr)
				}
				b.ReportMetric(float64(nq)*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
			})
		}
	}
}
