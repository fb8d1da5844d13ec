package csrgraph

import (
	"io"

	"csrgraph/internal/algo"
	"csrgraph/internal/csr"
	"csrgraph/internal/edgelist"
	"csrgraph/internal/mgraph"
)

// Weighted graphs: the paper's CSR definition includes a third array, vA,
// holding per-edge values when the graph is weighted. WeightedGraph packs
// the same three-array structure and supports weighted shortest paths.

// WeightedEdge is a directed edge with a uint32 weight.
type WeightedEdge = csr.WeightedEdge

// InfiniteDistance marks a node unreachable by weighted shortest paths.
const InfiniteDistance = algo.InfiniteDistance

// WeightedGraph is an immutable weighted CSR (iA, jA and vA arrays). All
// methods are safe for concurrent use.
type WeightedGraph struct {
	m     *csr.WeightedMatrix
	procs int
}

// BuildWeighted constructs a WeightedGraph. The input may be unsorted and
// contain duplicate (u, v) pairs; the last weight for a pair wins.
func BuildWeighted(edges []WeightedEdge, opts ...Option) (*WeightedGraph, error) {
	c := buildConfig(opts)
	m, err := csr.BuildWeighted(edges, c.numNodes, c.procs)
	if err != nil {
		return nil, err
	}
	return &WeightedGraph{m: m, procs: c.procs}, nil
}

// NumNodes returns the number of nodes.
func (g *WeightedGraph) NumNodes() int { return g.m.NumNodes() }

// NumEdges returns the number of directed edges.
func (g *WeightedGraph) NumEdges() int { return g.m.NumEdges() }

// Degree returns the out-degree of u.
func (g *WeightedGraph) Degree(u NodeID) int { return g.m.Degree(u) }

// Neighbors returns u's neighbors in ascending order (shared slice).
func (g *WeightedGraph) Neighbors(u NodeID) []uint32 { return g.m.Neighbors(u) }

// Weight returns the weight of edge (u, v) and whether it exists.
func (g *WeightedGraph) Weight(u, v NodeID) (uint32, bool) { return g.m.Weight(u, v) }

// ShortestDistances returns Dijkstra distances from src
// (InfiniteDistance where unreachable).
func (g *WeightedGraph) ShortestDistances(src NodeID) []uint64 {
	return algo.Dijkstra(g.m, src)
}

// ShortestPath returns one minimum-cost path from src to dst (inclusive)
// and its cost, or nil and InfiniteDistance when unreachable.
func (g *WeightedGraph) ShortestPath(src, dst NodeID) ([]uint32, uint64) {
	return algo.ShortestPath(g.m, src, dst)
}

// PageRank computes damped PageRank where rank flows proportionally to
// edge weights.
func (g *WeightedGraph) PageRank(damping float64, maxIter int, tol float64, procs int) []float64 {
	return algo.PageRankWeighted(g.m, damping, maxIter, tol, orDefault(procs, g.procs))
}

// ShortestDistancesParallel computes single-source shortest paths with
// delta-stepping, the parallel counterpart of ShortestDistances. delta 0
// picks a heuristic bucket width. Results are identical to Dijkstra.
func (g *WeightedGraph) ShortestDistancesParallel(src NodeID, delta uint32, procs int) []uint64 {
	return algo.DeltaStepping(g.m, src, delta, orDefault(procs, g.procs))
}

// MinimumSpanningForest returns the minimum spanning forest of a
// symmetrized weighted graph (parallel Borůvka): the chosen undirected
// edges (u < v) and their total weight.
func (g *WeightedGraph) MinimumSpanningForest(procs int) ([]WeightedEdge, uint64) {
	return algo.MinimumSpanningForest(g.m, orDefault(procs, g.procs))
}

// SizeBytes returns the three-array footprint.
func (g *WeightedGraph) SizeBytes() int64 { return g.m.SizeBytes() }

// ReadWeightedEdgeList parses "u v w" lines (with '#' comments) into
// weighted edges.
func ReadWeightedEdgeList(r io.Reader) ([]WeightedEdge, error) {
	return edgelist.ReadWeightedText(r)
}

// Compress returns the bit-packed weighted form.
func (g *WeightedGraph) Compress() *CompressedWeightedGraph {
	return &CompressedWeightedGraph{pk: csr.PackWeighted(g.m, g.procs)}
}

// CompressedWeightedGraph is the bit-packed weighted CSR (iA, jA, vA all
// packed).
type CompressedWeightedGraph struct {
	pk *csr.PackedWeighted
}

// NumNodes returns the number of nodes.
func (cg *CompressedWeightedGraph) NumNodes() int { return cg.pk.NumNodes() }

// NumEdges returns the number of directed edges.
func (cg *CompressedWeightedGraph) NumEdges() int { return cg.pk.NumEdges() }

// Weight returns the weight of (u, v) from the packed arrays.
func (cg *CompressedWeightedGraph) Weight(u, v NodeID) (uint32, bool) { return cg.pk.Weight(u, v) }

// Neighbors decodes u's neighbor list.
func (cg *CompressedWeightedGraph) Neighbors(u NodeID) []uint32 { return cg.pk.Row(nil, u) }

// SizeBytes returns the packed footprint.
func (cg *CompressedWeightedGraph) SizeBytes() int64 { return cg.pk.SizeBytes() }

// Decompress expands back to a WeightedGraph.
func (cg *CompressedWeightedGraph) Decompress() *WeightedGraph {
	return &WeightedGraph{m: cg.pk.UnpackWeighted(), procs: 1}
}

// SaveFile writes the compressed weighted graph to path as a binary
// container.
func (cg *CompressedWeightedGraph) SaveFile(path string) error {
	return mgraph.WriteWeightedFile(path, cg.pk)
}

// LoadCompressedWeightedFile reads a compressed weighted graph written by
// SaveFile into memory, verified like LoadCompressedFile.
func LoadCompressedWeightedFile(path string) (*CompressedWeightedGraph, error) {
	ct, err := readContainer(path, mgraph.FormWeighted)
	if err != nil {
		return nil, err
	}
	return &CompressedWeightedGraph{pk: ct.Weighted()}, nil
}
