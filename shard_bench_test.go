// Serving-tier benchmarks for the sharded scatter-gather router against
// one engine's batch calls with no router in front, on the 10M-edge
// acceptance graphs.
//
//	BenchmarkShardEdgesExistBatch — degree-biased existence probes,
//	    shards=single (query.EdgesExistBatchSearch over the whole packed
//	    graph) vs shards=1|2|4|8 (the router). Every form searches the
//	    packed rows in place; what differs is the grouping, the legs and
//	    the per-shard rows each leg touches.
//	BenchmarkShardNeighborsBatch — hub-heavy row decodes through the same
//	    single/router split; here each shard's byte-budgeted row table
//	    serves repeated hub rows decoded.
//
// `make bench-compare-shard` prints the delta tables from exactly these
// sub-benchmarks (-key shards -baseline single -new 8).
package csrgraph

import (
	"fmt"
	"sync"
	"testing"

	"csrgraph/internal/csr"
	"csrgraph/internal/query"
	"csrgraph/internal/shard"
)

// shardBenchCacheBytes is the total row-table budget, divided across the
// shards — the same accounting csrserver's -cache-mb flag uses, so every
// K holds the same total.
const shardBenchCacheBytes = 64 << 20

var (
	shardBenchOnce    sync.Once
	shardBenchRouters map[string]map[int]*shard.Router
)

// shardBenchSetup cuts the 10M-edge benchmark graphs into routers for every
// shard count once, the way csrconvert -partition cuts a graph offline
// (CutByEdges, Split, one csr.PackMatrix per shard); replicas are 1
// (replication spreads load, not throughput, on one machine).
func shardBenchSetup(b *testing.B) map[string]map[int]*shard.Router {
	b.Helper()
	graphs := queryBenchSetup(b)
	shardBenchOnce.Do(func() {
		shardBenchRouters = map[string]map[int]*shard.Router{}
		for _, dist := range []string{"uniform", "powerlaw"} {
			m := graphs[dist].pk.Unpack()
			shardBenchRouters[dist] = map[int]*shard.Router{}
			for _, k := range []int{1, 2, 4, 8} {
				part, err := shard.CutByEdges(m.RowOffsets, k)
				if err != nil {
					panic(err)
				}
				ms, err := shard.Split(m, part)
				if err != nil {
					panic(err)
				}
				engines := make([][]*shard.Engine, k)
				for s, sm := range ms {
					engines[s] = shard.NewReplicas(s, 1, csr.PackMatrix(sm, 4), shard.EngineConfig{
						CacheBytes: shardBenchCacheBytes / int64(k),
					})
				}
				rt, err := shard.NewRouter(part, engines, shard.RouterConfig{})
				if err != nil {
					panic(err)
				}
				shardBenchRouters[dist][k] = rt
			}
		}
	})
	return shardBenchRouters
}

// BenchmarkShardEdgesExistBatch is the sharded tier's acceptance benchmark:
// aggregate existence-probe throughput through the router against the
// unrouted baseline.
func BenchmarkShardEdgesExistBatch(b *testing.B) {
	graphs := queryBenchSetup(b)
	routers := shardBenchSetup(b)
	const nq = 4096
	for _, dist := range []string{"uniform", "powerlaw"} {
		g := graphs[dist]
		probes := queryBenchProbes(g, nq)
		b.Run(fmt.Sprintf("dist=%s/edges=%d/shards=single", dist, queryBenchEdges), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				query.EdgesExistBatchSearch(g.pk, probes, 4)
			}
			b.ReportMetric(float64(nq)*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
		})
		for _, k := range []int{1, 2, 4, 8} {
			rt := routers[dist][k]
			if _, err := rt.EdgesExistBatch(probes); err != nil { // touch the shard pages off the clock
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("dist=%s/edges=%d/shards=%d", dist, queryBenchEdges, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := rt.EdgesExistBatch(probes); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(nq)*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
			})
		}
	}
}

// BenchmarkShardNeighborsBatch measures hub-heavy batched row decodes
// through the router's scatter-gather path.
func BenchmarkShardNeighborsBatch(b *testing.B) {
	graphs := queryBenchSetup(b)
	routers := shardBenchSetup(b)
	const size = 2048
	for _, dist := range []string{"uniform", "powerlaw"} {
		g := graphs[dist]
		batch := queryBenchBatch(g, "hub", size)
		b.Run(fmt.Sprintf("dist=%s/batch=hub/shards=single", dist), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				query.NeighborsBatch(g.pk, batch, 4)
			}
			b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
		})
		for _, k := range []int{1, 2, 4, 8} {
			rt := routers[dist][k]
			if _, err := rt.NeighborsBatch(batch); err != nil { // warm off the clock
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("dist=%s/batch=hub/shards=%d", dist, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := rt.NeighborsBatch(batch); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
			})
		}
	}
}
