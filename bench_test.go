// Benchmarks regenerating the paper's evaluation artifacts, one per table
// and figure (see DESIGN.md §4 and EXPERIMENTS.md for the mapping):
//
//	BenchmarkTable2Construction — Table II's time column: packed-CSR
//	    construction per registry graph per processor count. Compression
//	    ratios are attached as custom metrics (edgelist_bytes_per_csr_byte).
//	BenchmarkFig6Series — Figure 6: the same construction sweep organized
//	    as time-vs-processors series (wall clock on this host).
//	BenchmarkFig7Speedup — Figure 7: speed-up percentages reported as
//	    custom metrics against the measured p=1 run.
//	BenchmarkQueryThroughput — Section V's motivation: batched query
//	    throughput on compressed CSR versus the edge-list and
//	    adjacency-list baselines.
//	BenchmarkPackedRowDecode — the raw GetRowFromCSR hot loop the
//	    width-specialized unpack kernels accelerate (see also
//	    BenchmarkUnpackWidths in internal/bitarray and
//	    BenchmarkParallelForOverhead in internal/parallel).
//	BenchmarkScanAblation, BenchmarkEdgeExistenceAblation,
//	BenchmarkTCSRConstruction — the DESIGN.md §5 ablations.
//
// The graphs are the registry stand-ins at 1/512 of the paper's sizes so
// `go test -bench .` completes quickly; use cmd/csrbench for full sweeps.
package csrgraph

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"csrgraph/internal/algo"
	"csrgraph/internal/baseline"
	"csrgraph/internal/csr"
	"csrgraph/internal/edgelist"
	"csrgraph/internal/gen"
	"csrgraph/internal/harness"
	"csrgraph/internal/order"
	"csrgraph/internal/prefixsum"
	"csrgraph/internal/query"
	"csrgraph/internal/spmatrix"
	"csrgraph/internal/stream"
	"csrgraph/internal/tcsr"
)

const benchScale = 512

var (
	benchOnce      sync.Once
	benchInstances []*harness.Instance
)

func benchSetup(b *testing.B) []*harness.Instance {
	b.Helper()
	benchOnce.Do(func() {
		for _, spec := range harness.Registry {
			inst, err := spec.Generate(benchScale, 4)
			if err != nil {
				panic(err)
			}
			benchInstances = append(benchInstances, inst)
		}
	})
	return benchInstances
}

// BenchmarkTable2Construction regenerates Table II's measurement cells.
func BenchmarkTable2Construction(b *testing.B) {
	for _, inst := range benchSetup(b) {
		pk := csr.BuildPacked(inst.Edges, inst.NumNodes, 1)
		for _, p := range harness.ProcessorCounts {
			b.Run(fmt.Sprintf("%s/p=%d", inst.Spec.Name, p), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					csr.BuildPacked(inst.Edges, inst.NumNodes, p)
				}
				b.ReportMetric(float64(inst.Edges.SizeBytes())/float64(pk.SizeBytes()), "edgelist_bytes_per_csr_byte")
			})
		}
	}
}

// BenchmarkFig6Series regenerates Figure 6: construction time versus
// processors, one sub-benchmark per series point.
func BenchmarkFig6Series(b *testing.B) {
	for _, inst := range benchSetup(b) {
		for _, p := range harness.ProcessorCounts {
			b.Run(fmt.Sprintf("%s/procs=%d", inst.Spec.Name, p), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					csr.BuildPacked(inst.Edges, inst.NumNodes, p)
				}
			})
		}
	}
}

// BenchmarkFig7Speedup regenerates Figure 7: the speed-up (%) of each
// processor count over the measured p=1 time, attached as a custom metric.
// On a single-core host the wall-clock speed-up is near zero; the
// work-span model's view is reported alongside (model_speedup_pct), which
// is what cmd/csrbench -mode model prints.
func BenchmarkFig7Speedup(b *testing.B) {
	for _, inst := range benchSetup(b) {
		t1 := measureOnce(func() { csr.BuildPacked(inst.Edges, inst.NumNodes, 1) })
		model := harness.Calibrate(t1, inst.NumNodes, len(inst.Edges))
		for _, p := range harness.ProcessorCounts[1:] {
			b.Run(fmt.Sprintf("%s/p=%d", inst.Spec.Name, p), func(b *testing.B) {
				var tp time.Duration
				for i := 0; i < b.N; i++ {
					tp = measureOnce(func() { csr.BuildPacked(inst.Edges, inst.NumNodes, p) })
				}
				b.ReportMetric(100*float64(t1-tp)/float64(t1), "wallclock_speedup_pct")
				tm := model.SimulateConstruction(inst.NumNodes, len(inst.Edges), p)
				b.ReportMetric(100*float64(t1-tm)/float64(t1), "model_speedup_pct")
			})
		}
	}
}

func measureOnce(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

// BenchmarkQueryThroughput compares batched queries on the compressed CSR
// against the paper's comparison structures (edge list, adjacency list).
func BenchmarkQueryThroughput(b *testing.B) {
	inst := benchSetup(b)[0] // LiveJournal stand-in
	m := csr.Build(inst.Edges, inst.NumNodes, 4)
	pk := csr.PackMatrix(m, 4)
	elg := baseline.NewEdgeListGraph(inst.Edges, inst.NumNodes)
	adj := baseline.NewAdjacencyList(inst.Edges, inst.NumNodes)

	const nq = 4096
	state := uint64(7)
	next := func() uint32 {
		state = state*6364136223846793005 + 1442695040888963407
		return uint32(state >> 33)
	}
	nodes := make([]edgelist.NodeID, nq)
	probes := make([]edgelist.Edge, nq)
	for i := range nodes {
		nodes[i] = next() % uint32(inst.NumNodes)
		probes[i] = edgelist.Edge{U: next() % uint32(inst.NumNodes), V: next() % uint32(inst.NumNodes)}
	}

	sources := []struct {
		name string
		g    query.Source
	}{
		{"csr", m}, {"packed", pk}, {"edgelist", elg}, {"adjlist", adj},
	}
	for _, s := range sources {
		b.Run("neighbors/"+s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				query.NeighborsBatch(s.g, nodes, 4)
			}
			b.ReportMetric(float64(nq)*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
		})
		b.Run("exists/"+s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				query.EdgesExistBatchBinary(s.g, probes, 4)
			}
			b.ReportMetric(float64(nq)*float64(b.N)/b.Elapsed().Seconds(), "queries/s")
		})
	}
}

// BenchmarkPackedRowDecode measures the raw packed-row decode loop —
// GetRowFromCSR over every row, sequentially, no batching or result
// copies — isolating the bit-unpack kernels from query dispatch. The
// edges/s metric is rows' total neighbors decoded per second.
func BenchmarkPackedRowDecode(b *testing.B) {
	for _, inst := range benchSetup(b) {
		pk := csr.BuildPacked(inst.Edges, inst.NumNodes, 4)
		b.Run(inst.Spec.Name, func(b *testing.B) {
			var buf []uint32
			for i := 0; i < b.N; i++ {
				for u := 0; u < pk.NumNodes(); u++ {
					buf = pk.Row(buf, edgelist.NodeID(u))
				}
			}
			b.ReportMetric(float64(pk.NumEdges())*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
		})
	}
}

// BenchmarkScanAblation compares Algorithm 1's chunked scan against the
// two-level alternative (DESIGN.md §5 item 1).
func BenchmarkScanAblation(b *testing.B) {
	xs := make([]uint32, 1<<20)
	for i := range xs {
		xs[i] = uint32(i % 13)
	}
	buf := make([]uint32, len(xs))
	for _, p := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("algorithm1/p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(buf, xs)
				prefixsum.Inclusive(buf, p)
			}
		})
		b.Run(fmt.Sprintf("twolevel/p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(buf, xs)
				prefixsum.InclusiveTwoLevel(buf, p)
			}
		})
		b.Run(fmt.Sprintf("blelloch/p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(buf, xs)
				prefixsum.InclusiveBlelloch(buf, p)
			}
		})
	}
}

// BenchmarkEdgeExistenceAblation compares the three Section V existence
// strategies on the packed CSR (DESIGN.md §5 item 2).
func BenchmarkEdgeExistenceAblation(b *testing.B) {
	inst := benchSetup(b)[2] // Orkut stand-in: densest rows
	pk := csr.BuildPacked(inst.Edges, inst.NumNodes, 4)
	// Use the hub node so the row is long enough for Algorithm 8 to matter.
	hub, best := uint32(0), 0
	for u := 0; u < pk.NumNodes(); u++ {
		if d := pk.Degree(uint32(u)); d > best {
			hub, best = uint32(u), d
		}
	}
	row := pk.Row(nil, hub)
	target := row[len(row)-1]
	b.Run("linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pk.HasEdge(hub, target)
		}
	})
	b.Run("binary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pk.SearchRow(hub, target)
		}
	})
	b.Run("split/p=4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			query.EdgeExistsSplit(pk, hub, target, 4)
		}
	})
}

// BenchmarkTCSRConstruction measures Section IV's parallel temporal
// construction across processor counts.
func BenchmarkTCSRConstruction(b *testing.B) {
	const nodes, frames = 20000, 32
	events, err := gen.TemporalStream(nodes, 100_000, 2_000, frames, 11, 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tcsr.BuildFromEvents(events, nodes, frames, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAnalytics measures the graph-processing layer over the
// LiveJournal stand-in (symmetrized), on both the plain and packed CSR.
func BenchmarkAnalytics(b *testing.B) {
	inst := benchSetup(b)[0]
	sym := inst.Edges.Prepared(true, 4)
	n := sym.NumNodes()
	m := csr.Build(sym, n, 4)
	pk := csr.PackMatrix(m, 4)
	for name, g := range map[string]query.Source{"csr": m, "packed": pk} {
		b.Run("bfs/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				algo.BFS(g, 0, 4)
			}
		})
		b.Run("dobfs/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				algo.BFSDirectionOptimizing(g, g, 0, 4)
			}
		})
		b.Run("components/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				algo.ConnectedComponents(g, 4)
			}
		})
		b.Run("pagerank10/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				algo.PageRank(g, 0.85, 10, 0, 4)
			}
		})
	}
	b.Run("communities", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			algo.Communities(m, 5, 4)
		}
	})
	b.Run("betweenness-sample64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			algo.BetweennessSample(m, n/64+1, 4)
		}
	})
	b.Run("scc", func(b *testing.B) {
		mt := spmatrix.Transpose(m, 4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			algo.StronglyConnectedComponents(m, mt, 4)
		}
	})
	b.Run("coloring", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			algo.ColorGraph(m, 4)
		}
	})
	b.Run("mis", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			algo.MaximalIndependentSet(m, 4)
		}
	})
}

// BenchmarkStreamFlush measures the evolving-graph batch merge: base
// graph plus a churn batch folded into a fresh CSR.
func BenchmarkStreamFlush(b *testing.B) {
	inst := benchSetup(b)[1] // Pokec stand-in
	base := csr.Build(inst.Edges, inst.NumNodes, 4)
	churn := make([]edgelist.Edge, 10000)
	state := uint64(13)
	next := func() uint32 {
		state = state*6364136223846793005 + 1442695040888963407
		return uint32(state >> 33)
	}
	for i := range churn {
		churn[i] = edgelist.Edge{U: next() % uint32(inst.NumNodes), V: next() % uint32(inst.NumNodes)}
	}
	for _, p := range []int{1, 4} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sb := stream.NewBuilder(base, inst.NumNodes, p)
				sb.Add(churn...)
				sb.Flush()
			}
		})
	}
}

// BenchmarkTCSRCheckpointAblation measures temporal activity-query cost
// against the checkpoint interval (DESIGN.md §5's copy+log trade-off).
func BenchmarkTCSRCheckpointAblation(b *testing.B) {
	const nodes, frames = 10000, 64
	events, err := gen.TemporalStream(nodes, 50_000, 1_000, frames, 17, 4)
	if err != nil {
		b.Fatal(err)
	}
	tc, err := tcsr.BuildFromEvents(events, nodes, frames, 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, interval := range []int{1, 8, 64} {
		ck, err := tcsr.NewCheckpointed(tc, interval, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("interval=%d", interval), func(b *testing.B) {
			state := uint64(19)
			for i := 0; i < b.N; i++ {
				state = state*6364136223846793005 + 1442695040888963407
				u := uint32(state>>33) % nodes
				v := uint32(state>>13) % nodes
				t := int(state>>3) % frames
				ck.Active(u, v, t)
			}
			b.ReportMetric(float64(ck.SizeBytes()), "bytes")
		})
	}
}

// BenchmarkOrderingAblation packs the Pokec stand-in under the three node
// orderings and reports the delta-gamma payload per ordering — the
// compression lever of the web-graph literature the paper cites.
func BenchmarkOrderingAblation(b *testing.B) {
	inst := benchSetup(b)[1]
	m := csr.Build(inst.Edges, inst.NumNodes, 4)
	comparisons, err := order.CompareOrderings(m, 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, cmp := range comparisons {
		b.Run(cmp.Ordering, func(b *testing.B) {
			var perm *order.Permutation
			switch cmp.Ordering {
			case "identity":
				perm = order.Identity(m.NumNodes())
			case "degree":
				perm = order.ByDegree(m, 4)
			case "bfs":
				perm = order.ByBFS(m, 0, 4)
			}
			for i := 0; i < b.N; i++ {
				relabeled, err := order.Apply(m, perm, 4)
				if err != nil {
					b.Fatal(err)
				}
				csr.PackDelta(relabeled, 4)
			}
			b.ReportMetric(float64(cmp.DeltaBytes), "delta_bytes")
			b.ReportMetric(float64(cmp.FixedBytes), "fixed_bytes")
		})
	}
}

// BenchmarkCompressionRatio is Table II's size columns: it performs no
// timing loop work beyond construction but reports the edge-list and
// packed-CSR sizes for every registry graph as metrics.
func BenchmarkCompressionRatio(b *testing.B) {
	for _, inst := range benchSetup(b) {
		b.Run(inst.Spec.Name, func(b *testing.B) {
			var pk *csr.Packed
			for i := 0; i < b.N; i++ {
				pk = csr.BuildPacked(inst.Edges, inst.NumNodes, 4)
			}
			b.ReportMetric(float64(inst.Edges.SizeBytes()), "edgelist_bytes")
			b.ReportMetric(float64(pk.SizeBytes()), "csr_bytes")
		})
	}
}
