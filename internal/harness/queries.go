package harness

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"csrgraph/internal/baseline"
	"csrgraph/internal/csr"
	"csrgraph/internal/edgelist"
	"csrgraph/internal/query"
)

// QueryResult holds one structure's batched-query throughput.
type QueryResult struct {
	Structure    string
	SizeBytes    int64
	NeighborQPS  float64
	ExistenceQPS float64
}

// RunQueryComparison measures batched neighbor and existence throughput
// over all four storage structures on one instance — the Section V
// motivation ("the edge list consumes more time in querying compared to
// CSR"). numQueries point queries are issued per batch, procs-wide.
func RunQueryComparison(inst *Instance, numQueries, procs, reps int) []QueryResult {
	m := csr.Build(inst.Edges, inst.NumNodes, procs)
	pk := csr.PackMatrix(m, procs)
	elg := baseline.NewEdgeListGraph(inst.Edges, inst.NumNodes)
	adj := baseline.NewAdjacencyList(inst.Edges, inst.NumNodes)

	state := inst.Spec.Seed | 1
	next := func() uint32 {
		state = state*6364136223846793005 + 1442695040888963407
		return uint32(state >> 33)
	}
	nodes := make([]edgelist.NodeID, numQueries)
	probes := make([]edgelist.Edge, numQueries)
	for i := 0; i < numQueries; i++ {
		nodes[i] = next() % uint32(inst.NumNodes)
		probes[i] = edgelist.Edge{
			U: next() % uint32(inst.NumNodes),
			V: next() % uint32(inst.NumNodes),
		}
	}

	type entry struct {
		name string
		g    query.Source
		size int64
	}
	entries := []entry{
		{"csr", m, m.SizeBytes()},
		{"packed-csr", pk, pk.SizeBytes()},
		{"edgelist", elg, elg.SizeBytes()},
		{"adjlist", adj, adj.SizeBytes()},
	}
	out := make([]QueryResult, 0, len(entries))
	for _, e := range entries {
		nt := MedianOf(reps, func() { query.NeighborsBatch(e.g, nodes, procs) })
		et := MedianOf(reps, func() { query.EdgesExistBatchBinary(e.g, probes, procs) })
		out = append(out, QueryResult{
			Structure:    e.name,
			SizeBytes:    e.size,
			NeighborQPS:  qps(numQueries, nt),
			ExistenceQPS: qps(numQueries, et),
		})
	}
	return out
}

func qps(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// RenderQueryComparison writes the query-throughput table.
func RenderQueryComparison(w io.Writer, graph string, results []QueryResult) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "Structure\tSize\tNeighbors (q/s)\tExistence (q/s)\n")
	for _, r := range results {
		fmt.Fprintf(tw, "%s\t%s\t%.0f\t%.0f\n",
			r.Structure, HumanBytes(r.SizeBytes), r.NeighborQPS, r.ExistenceQPS)
	}
	return tw.Flush()
}
