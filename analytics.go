package csrgraph

import (
	"csrgraph/internal/algo"
	"csrgraph/internal/csr"
	"csrgraph/internal/spmatrix"
)

// Analytics over the CSR structures — the parallel graph processing the
// paper's conclusion positions its representation as a foundation for.
// Every method also exists on CompressedGraph and runs directly over the
// bit-packed form.

// Unreached marks a node not reached by BFS.
const Unreached = algo.Unreached

// DegreeStats summarizes an out-degree distribution.
type DegreeStats = algo.DegreeStats

// BFS returns hop distances from src (Unreached where unreachable),
// computed by the frontier core (internal/frontier) in push-only mode —
// level-synchronous rounds over sparse frontiers.
func (g *Graph) BFS(src NodeID, procs int) []int32 {
	return algo.BFSFrontier(g.m, nil, src, orDefault(procs, g.procs))
}

// transpose returns the matrix whose rows are g's in-edges. A graph built
// WithSymmetrize has a symmetric adjacency matrix with sorted rows, which
// is its own transpose; anything else pays a parallel counting sort.
func (g *Graph) transpose(p int) *csr.Matrix {
	if g.symmetric {
		return g.m
	}
	return spmatrix.Transpose(g.m, p)
}

// BFSHybrid is the direction-optimizing (push/pull) BFS: identical output
// to BFS, but large frontiers switch to scanning in-edges of undiscovered
// nodes, which is faster on low-diameter social graphs. Runs on the
// frontier core with the default alpha/beta switching policy. The
// transpose required for pull mode is built internally; for graphs built
// with WithSymmetrize the graph is its own transpose and none is built.
func (g *Graph) BFSHybrid(src NodeID, procs int) []int32 {
	p := orDefault(procs, g.procs)
	return algo.BFSFrontier(g.m, g.transpose(p), src, p)
}

// ConnectedComponents labels every node with the smallest node id in its
// weakly-connected component via frontier-based min-label propagation:
// only nodes whose label changed last round propagate in the next. Labels
// travel against edges too, over the transpose (see BFSHybrid).
func (g *Graph) ConnectedComponents(procs int) []uint32 {
	p := orDefault(procs, g.procs)
	return algo.ConnectedComponentsFrontier(g.m, g.transpose(p), p)
}

// StronglyConnectedComponents labels every node with the smallest node id
// in its strongly connected component (parallel forward-backward
// algorithm; the transpose it needs is built internally unless the graph
// is its own, see BFSHybrid).
func (g *Graph) StronglyConnectedComponents(procs int) []uint32 {
	p := orDefault(procs, g.procs)
	return algo.StronglyConnectedComponents(g.m, g.transpose(p), p)
}

// PageRank computes damped PageRank with parallel power iteration.
func (g *Graph) PageRank(damping float64, maxIter int, tol float64, procs int) []float64 {
	return algo.PageRank(g.m, damping, maxIter, tol, orDefault(procs, g.procs))
}

// CountTriangles returns the number of triangles in a symmetrized graph.
func (g *Graph) CountTriangles(procs int) int64 {
	return algo.CountTriangles(g.m, orDefault(procs, g.procs))
}

// DegreeStats computes the out-degree distribution in parallel.
func (g *Graph) DegreeStats(procs int) DegreeStats {
	return algo.Degrees(g.m, orDefault(procs, g.procs))
}

// TwoHopNeighbors returns the distinct nodes within two hops of u,
// excluding u, sorted ascending.
func (g *Graph) TwoHopNeighbors(u NodeID, procs int) []uint32 {
	return algo.TwoHopNeighbors(g.m, u, orDefault(procs, g.procs))
}

// Reverse returns the transpose graph (every edge flipped), built with a
// parallel counting sort.
func (g *Graph) Reverse(procs int) *Graph {
	p := orDefault(procs, g.procs)
	return &Graph{m: spmatrix.Transpose(g.m, p), procs: g.procs}
}

// TwoHopGraph returns the boolean square A·A: an edge (u, w) exists iff w
// is reachable from u in exactly two hops.
func (g *Graph) TwoHopGraph(procs int) *Graph {
	p := orDefault(procs, g.procs)
	return &Graph{m: spmatrix.Square(g.m, p), procs: g.procs}
}

// SpMV computes y = A·x over the graph's boolean adjacency matrix.
func (g *Graph) SpMV(x []float64, procs int) ([]float64, error) {
	return spmatrix.SpMV(g.m, x, orDefault(procs, g.procs))
}

// MaximalIndependentSet returns a maximal independent set of a
// symmetrized graph (Luby's parallel algorithm) as a membership mask.
func (g *Graph) MaximalIndependentSet(procs int) []bool {
	return algo.MaximalIndependentSet(g.m, orDefault(procs, g.procs))
}

// HITS computes Kleinberg's hub and authority scores (the transpose
// needed for the authority step is built internally unless the graph is its
// own, see BFSHybrid).
func (g *Graph) HITS(maxIter int, tol float64, procs int) (hubs, authorities []float64) {
	p := orDefault(procs, g.procs)
	return algo.HITS(g.m, g.transpose(p), maxIter, tol, p)
}

// Closeness computes closeness centrality for every node (one frontier
// BFS per node, source-parallel; Wasserman-Faust corrected for
// disconnected graphs).
func (g *Graph) Closeness(procs int) []float64 {
	return algo.ClosenessFrontier(g.m, orDefault(procs, g.procs))
}

// ClosenessOf computes closeness for the given nodes only.
func (g *Graph) ClosenessOf(nodes []NodeID, procs int) []float64 {
	return algo.ClosenessSampleFrontier(g.m, nodes, orDefault(procs, g.procs))
}

// ColorGraph computes a proper vertex coloring of a symmetrized graph
// (Jones-Plassmann): every node's color plus the number of colors used.
func (g *Graph) ColorGraph(procs int) ([]uint32, int) {
	return algo.ColorGraph(g.m, orDefault(procs, g.procs))
}

// Communities detects communities by parallel label propagation, running
// at most maxRounds synchronous passes. Labels are node ids naming one
// member of each community.
func (g *Graph) Communities(maxRounds, procs int) []uint32 {
	return algo.Communities(g.m, maxRounds, orDefault(procs, g.procs))
}

// Modularity scores a community labeling (Newman modularity; symmetrized
// graphs).
func (g *Graph) Modularity(labels []uint32, procs int) float64 {
	return algo.Modularity(g.m, labels, orDefault(procs, g.procs))
}

// EstimateDiameter lower-bounds the diameter with a double-sweep BFS from
// src.
func (g *Graph) EstimateDiameter(src NodeID, procs int) int32 {
	return algo.EstimateDiameter(g.m, src, orDefault(procs, g.procs))
}

// CommunitySizes aggregates a label array into per-community sizes.
func CommunitySizes(labels []uint32) map[uint32]int { return algo.CommunitySizes(labels) }

// Betweenness computes exact node betweenness centrality (Brandes,
// parallel over sources). For large graphs prefer BetweennessSample.
func (g *Graph) Betweenness(procs int) []float64 {
	return algo.Betweenness(g.m, orDefault(procs, g.procs))
}

// BetweennessSample estimates betweenness from every stride-th source,
// scaled up — the standard approximation for million-node graphs.
func (g *Graph) BetweennessSample(stride, procs int) []float64 {
	return algo.BetweennessSample(g.m, stride, orDefault(procs, g.procs))
}

// TopKBetweenness returns the k nodes with the highest scores in
// descending order.
func TopKBetweenness(scores []float64, k int) (nodes []uint32, vals []float64) {
	return algo.TopKBetweenness(scores, k)
}

// CoreNumbers returns the k-core number of every node of a symmetrized
// graph, computed by bucketed peeling over the frontier core: work is
// proportional to the peeled edges instead of rescanning all nodes at
// every core level.
func (g *Graph) CoreNumbers(procs int) []uint32 {
	return algo.CoreNumbersBucketed(g.m, orDefault(procs, g.procs))
}

// LocalClustering returns every node's local clustering coefficient.
func (g *Graph) LocalClustering(procs int) []float64 {
	return algo.LocalClustering(g.m, orDefault(procs, g.procs))
}

// GlobalClustering returns the average local clustering coefficient over
// nodes with degree >= 2, and how many such nodes there are.
func (g *Graph) GlobalClustering(procs int) (float64, int) {
	return algo.GlobalClustering(g.m, orDefault(procs, g.procs))
}

// BFS returns hop distances from src over the compressed graph (frontier
// core, push-only: no transpose is materialized for the packed form).
func (cg *CompressedGraph) BFS(src NodeID, procs int) []int32 {
	return algo.BFSFrontier(cg.pk, nil, src, orDefault(procs, cg.procs))
}

// ConnectedComponents labels weakly-connected components over the
// compressed graph.
func (cg *CompressedGraph) ConnectedComponents(procs int) []uint32 {
	return algo.ConnectedComponents(cg.pk, orDefault(procs, cg.procs))
}

// PageRank computes damped PageRank directly over the compressed graph.
func (cg *CompressedGraph) PageRank(damping float64, maxIter int, tol float64, procs int) []float64 {
	return algo.PageRank(cg.pk, damping, maxIter, tol, orDefault(procs, cg.procs))
}

// CountTriangles counts triangles directly over the compressed graph.
func (cg *CompressedGraph) CountTriangles(procs int) int64 {
	return algo.CountTriangles(cg.pk, orDefault(procs, cg.procs))
}

// DegreeStats computes the degree distribution over the compressed graph.
func (cg *CompressedGraph) DegreeStats(procs int) DegreeStats {
	return algo.Degrees(cg.pk, orDefault(procs, cg.procs))
}

// TwoHopNeighbors returns nodes within two hops of u over the compressed
// graph.
func (cg *CompressedGraph) TwoHopNeighbors(u NodeID, procs int) []uint32 {
	return algo.TwoHopNeighbors(cg.pk, u, orDefault(procs, cg.procs))
}

// CoreNumbers returns k-core numbers over the compressed graph (bucketed
// peeling on the frontier core).
func (cg *CompressedGraph) CoreNumbers(procs int) []uint32 {
	return algo.CoreNumbersBucketed(cg.pk, orDefault(procs, cg.procs))
}

// LocalClustering returns local clustering coefficients over the
// compressed graph.
func (cg *CompressedGraph) LocalClustering(procs int) []float64 {
	return algo.LocalClustering(cg.pk, orDefault(procs, cg.procs))
}

// GlobalClustering returns the average clustering coefficient over the
// compressed graph.
func (cg *CompressedGraph) GlobalClustering(procs int) (float64, int) {
	return algo.GlobalClustering(cg.pk, orDefault(procs, cg.procs))
}
