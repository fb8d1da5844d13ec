package csrgraph

import (
	"fmt"
	"io"
	"runtime"

	"csrgraph/internal/csr"
	"csrgraph/internal/edgelist"
	"csrgraph/internal/order"
	"csrgraph/internal/query"
)

// Edge is a directed edge from node U to node V. Node ids are dense
// uint32 values starting at 0.
type Edge = edgelist.Edge

// NodeID identifies a vertex.
type NodeID = edgelist.NodeID

// config collects build options.
type config struct {
	procs      int
	symmetrize bool
	numNodes   int
}

// Option customizes Build and BuildTemporal.
type Option func(*config)

// WithProcs sets the number of processors (goroutines) used for
// construction and as the default for batched queries. The default is
// runtime.GOMAXPROCS(0).
func WithProcs(p int) Option {
	return func(c *config) { c.procs = p }
}

// WithSymmetrize adds the reverse of every edge before building, turning a
// directed input into an undirected-style graph.
func WithSymmetrize() Option {
	return func(c *config) { c.symmetrize = true }
}

// WithNumNodes fixes the node-id space size; ids up to numNodes-1 are valid
// even if isolated. By default the space is maxNodeID+1.
func WithNumNodes(n int) Option {
	return func(c *config) { c.numNodes = n }
}

func buildConfig(opts []Option) config {
	c := config{procs: runtime.GOMAXPROCS(0)}
	for _, o := range opts {
		o(&c)
	}
	if c.procs < 1 {
		c.procs = 1
	}
	return c
}

// Graph is an immutable CSR graph. Build one with Build or ReadEdgeList;
// all methods are safe for concurrent use.
type Graph struct {
	m     *csr.Matrix
	procs int
	// symmetric records that Build added every edge's reverse, so m is its
	// own transpose. Only Build sets it: a graph derived from this one
	// (Reverse, Union, Subgraph, a relabeling, Decompress) makes no such
	// promise and transposes when it needs in-edges.
	symmetric bool
}

// Build constructs a Graph from an edge list. The input is copied, sorted
// in parallel, and deduplicated; it may be in any order and contain
// duplicates. The whole front end runs as one fused pipeline: edges (and
// their reverses, under WithSymmetrize) are packed straight into radix
// sort keys, sorted, and deduplicated while unpacking — no intermediate
// symmetrized or cloned edge list is materialized.
func Build(edges []Edge, opts ...Option) (*Graph, error) {
	c := buildConfig(opts)
	l := edgelist.List(edges).Prepared(c.symmetrize, c.procs)
	numNodes := l.NumNodes()
	if c.numNodes > 0 {
		if c.numNodes < numNodes {
			return nil, fmt.Errorf("csrgraph: WithNumNodes(%d) below max node id %d", c.numNodes, numNodes-1)
		}
		numNodes = c.numNodes
	}
	return &Graph{m: csr.Build(l, numNodes, c.procs), procs: c.procs, symmetric: c.symmetrize}, nil
}

// ReadEdgeList builds a Graph from a SNAP-format text edge list ("u v" per
// line, '#' comments).
func ReadEdgeList(r io.Reader, opts ...Option) (*Graph, error) {
	l, err := edgelist.ReadText(r)
	if err != nil {
		return nil, err
	}
	return Build(l, opts...)
}

// ReadMETIS builds a Graph from a METIS adjacency file (the standard HPC
// graph-partitioning interchange format). The declared node count is
// preserved, including trailing isolated nodes.
func ReadMETIS(r io.Reader, opts ...Option) (*Graph, error) {
	l, numNodes, err := edgelist.ReadMETIS(r)
	if err != nil {
		return nil, err
	}
	return Build(l, append(opts, WithNumNodes(numNodes))...)
}

// NumNodes returns the number of nodes (the dense id space size).
func (g *Graph) NumNodes() int { return g.m.NumNodes() }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return g.m.NumEdges() }

// Degree returns the out-degree of u.
func (g *Graph) Degree(u NodeID) int { return g.m.Degree(u) }

// Neighbors returns u's neighbors in ascending order. The returned slice
// is shared with the graph; callers must not modify it.
func (g *Graph) Neighbors(u NodeID) []uint32 { return g.m.Neighbors(u) }

// HasEdge reports whether the directed edge (u, v) exists, by early-exit
// binary search over the sorted row.
func (g *Graph) HasEdge(u, v NodeID) bool { return g.m.SearchRow(u, v) }

// Edges returns the graph's edges sorted by (u, v).
func (g *Graph) Edges() []Edge { return g.m.Edges() }

// WriteEdgeList writes the graph as a SNAP text edge list ("u\tv" lines).
func (g *Graph) WriteEdgeList(w io.Writer) error {
	return edgelist.List(g.m.Edges()).WriteText(w)
}

// WriteMETIS writes the graph in METIS adjacency format. The graph must
// be symmetric with no self-loops (build with WithSymmetrize and clean
// input); a descriptive error is returned otherwise.
func (g *Graph) WriteMETIS(w io.Writer) error {
	return edgelist.List(g.m.Edges()).WriteMETIS(w, g.NumNodes())
}

// SizeBytes returns the in-memory CSR footprint.
func (g *Graph) SizeBytes() int64 { return g.m.SizeBytes() }

// Union returns the edge union of g and other (over the larger node
// space).
func (g *Graph) Union(other *Graph) *Graph {
	return &Graph{m: csr.Union(g.m, other.m, g.procs), procs: g.procs}
}

// Intersect returns the edges present in both g and other.
func (g *Graph) Intersect(other *Graph) *Graph {
	return &Graph{m: csr.Intersect(g.m, other.m, g.procs), procs: g.procs}
}

// Difference returns the edges of g that are not in other.
func (g *Graph) Difference(other *Graph) *Graph {
	return &Graph{m: csr.Difference(g.m, other.m, g.procs), procs: g.procs}
}

// RelabelByDegree returns an isomorphic graph with nodes renumbered in
// descending-degree order (hubs get small ids), plus the mapping from new
// ids back to original ids. Reordering improves delta-compressed sizes;
// see CompressDelta sizes before and after.
func (g *Graph) RelabelByDegree() (*Graph, []NodeID, error) {
	perm := order.ByDegree(g.m, g.procs)
	m, err := order.Apply(g.m, perm, g.procs)
	if err != nil {
		return nil, nil, err
	}
	return &Graph{m: m, procs: g.procs}, perm.OldID, nil
}

// RelabelByBFS returns an isomorphic graph renumbered in BFS discovery
// order from src (locality ordering), plus the new-to-old id mapping.
func (g *Graph) RelabelByBFS(src NodeID) (*Graph, []NodeID, error) {
	perm := order.ByBFS(g.m, src, g.procs)
	m, err := order.Apply(g.m, perm, g.procs)
	if err != nil {
		return nil, nil, err
	}
	return &Graph{m: m, procs: g.procs}, perm.OldID, nil
}

// Subgraph extracts the subgraph induced by nodes, relabeled densely in
// the given order. It returns the subgraph and a mapping from new ids
// back to original ids (mapping[newID] == originalID).
func (g *Graph) Subgraph(nodes []NodeID) (*Graph, []NodeID, error) {
	sub, mapping, err := csr.InducedSubgraph(g.m, nodes, g.procs)
	if err != nil {
		return nil, nil, err
	}
	return &Graph{m: sub, procs: g.procs}, mapping, nil
}

// Compress returns the bit-packed form of the graph.
func (g *Graph) Compress() *CompressedGraph {
	return &CompressedGraph{pk: csr.PackMatrix(g.m, g.procs), procs: g.procs}
}

// NeighborsBatch answers many neighborhood queries in parallel; result i
// holds the neighbors of nodes[i].
func (g *Graph) NeighborsBatch(nodes []NodeID, procs int) [][]uint32 {
	return query.NeighborsBatch(g.m, nodes, orDefault(procs, g.procs))
}

// EdgesExistBatch answers many edge-existence queries in parallel; result
// i reports whether queries[i] exists. Queries are scheduled dynamically
// (work-stealing) and each probe binary-searches the row in place.
func (g *Graph) EdgesExistBatch(queries []Edge, procs int) []bool {
	return query.EdgesExistBatchSearch(g.m, queries, orDefault(procs, g.procs))
}

// CompressDelta returns the delta-gamma compressed form: rows stored as
// Elias-gamma-coded gaps. Usually smaller than Compress on graphs with
// clustered neighbor ids (especially after RelabelByBFS), but queries
// decode rows sequentially instead of random access.
func (g *Graph) CompressDelta() *DeltaCompressedGraph {
	return &DeltaCompressedGraph{dp: csr.PackDelta(g.m, g.procs), procs: g.procs}
}

// DeltaCompressedGraph is the gap-compressed CSR form.
type DeltaCompressedGraph struct {
	dp    *csr.DeltaPacked
	rows  query.Source // dp, fronted by the hot-row cache when enabled
	cache *query.RowCache
	procs int
}

// NumNodes returns the number of nodes.
func (dg *DeltaCompressedGraph) NumNodes() int { return dg.dp.NumNodes() }

// NumEdges returns the number of directed edges.
func (dg *DeltaCompressedGraph) NumEdges() int { return dg.dp.NumEdges() }

// Degree returns the out-degree of u (decodes the row).
func (dg *DeltaCompressedGraph) Degree(u NodeID) int { return dg.dp.Degree(u) }

// Neighbors decodes and returns u's neighbors. With a row cache enabled,
// repeated hub lookups are served from the cache (still copied, so the
// result is always caller-owned).
func (dg *DeltaCompressedGraph) Neighbors(u NodeID) []uint32 {
	if dg.rows != nil {
		row := dg.rows.Row(nil, u)
		out := make([]uint32, len(row))
		copy(out, row)
		return out
	}
	return dg.dp.Row(nil, u)
}

// HasEdge reports whether (u, v) exists by early-exit sequential decode
// (gamma rows have no random access, so this is the best possible search).
func (dg *DeltaCompressedGraph) HasEdge(u, v NodeID) bool { return dg.dp.SearchRow(u, v) }

// NeighborsBatch answers many neighborhood queries in parallel with
// work-stealing scheduling; result i holds the neighbors of nodes[i].
func (dg *DeltaCompressedGraph) NeighborsBatch(nodes []NodeID, procs int) [][]uint32 {
	return query.NeighborsBatch(dg.rowSource(), nodes, orDefault(procs, dg.procs))
}

// EdgesExistBatch answers many edge-existence queries in parallel without
// materializing rows.
func (dg *DeltaCompressedGraph) EdgesExistBatch(queries []Edge, procs int) []bool {
	return query.EdgesExistBatchSearch(dg.dp, queries, orDefault(procs, dg.procs))
}

// EnableRowCache fronts row decodes with a sharded LRU cache of decoded
// rows bounded by maxBytes; maxBytes <= 0 disables caching. Not safe to
// call concurrently with queries — configure the cache before serving.
// Gamma rows decode sequentially, so the cache pays off even faster here
// than on the bit-packed form.
func (dg *DeltaCompressedGraph) EnableRowCache(maxBytes int64) {
	if c := query.NewRowCacheShards(maxBytes, 0); c != nil {
		dg.cache, dg.rows = c, query.Cached(dg.dp, c)
	} else {
		dg.cache, dg.rows = nil, nil
	}
}

// CacheStats reports hot-row cache effectiveness; zero when no cache is
// enabled.
func (dg *DeltaCompressedGraph) CacheStats() CacheStats {
	return cacheStatsFrom(dg.cache.Stats())
}

func (dg *DeltaCompressedGraph) rowSource() query.Source {
	if dg.rows != nil {
		return dg.rows
	}
	return dg.dp
}

// SizeBytes returns the compressed footprint.
func (dg *DeltaCompressedGraph) SizeBytes() int64 { return dg.dp.SizeBytes() }

// Decompress expands back to a plain Graph.
func (dg *DeltaCompressedGraph) Decompress() *Graph {
	return &Graph{m: dg.dp.Unpack(), procs: orDefault(dg.procs, 1)}
}

// CompressedGraph is the bit-packed CSR: typically several times smaller
// than the plain Graph while answering the same queries without
// decompression. All methods are safe for concurrent use.
type CompressedGraph struct {
	pk    *csr.Packed
	rows  query.Source // pk, fronted by the hot-row cache when enabled
	cache *query.RowCache
	procs int
}

// CacheStats is a point-in-time snapshot of a graph's hot-row cache
// counters; all fields are zero when caching is disabled.
type CacheStats struct {
	Hits     int64
	Misses   int64
	Entries  int64
	Bytes    int64
	MaxBytes int64
}

func cacheStatsFrom(st query.CacheStats) CacheStats {
	return CacheStats{Hits: st.Hits, Misses: st.Misses, Entries: st.Entries, Bytes: st.Bytes, MaxBytes: st.MaxB}
}

// NumNodes returns the number of nodes.
func (cg *CompressedGraph) NumNodes() int { return cg.pk.NumNodes() }

// NumEdges returns the number of directed edges.
func (cg *CompressedGraph) NumEdges() int { return cg.pk.NumEdges() }

// NumBits returns the bits per stored neighbor id.
func (cg *CompressedGraph) NumBits() int { return cg.pk.NumBits() }

// Degree returns the out-degree of u.
func (cg *CompressedGraph) Degree(u NodeID) int { return cg.pk.Degree(u) }

// Neighbors decodes and returns u's neighbors in ascending order. With a
// row cache enabled, repeated hub lookups are served from the cache (still
// copied, so the result is always caller-owned).
func (cg *CompressedGraph) Neighbors(u NodeID) []uint32 {
	if cg.rows != nil {
		row := cg.rows.Row(nil, u)
		out := make([]uint32, len(row))
		copy(out, row)
		return out
	}
	return cg.pk.Row(nil, u)
}

// HasEdge reports whether (u, v) exists by searching the packed row in
// place — a branch-free lower bound over the packed bits — without
// decoding any part of it.
func (cg *CompressedGraph) HasEdge(u, v NodeID) bool { return cg.pk.SearchRow(u, v) }

// HasEdgeParallel answers a single existence query by splitting u's
// packed neighbor list across procs processors (the paper's Algorithm 8),
// each searching its subrange without decoding; useful for very
// high-degree nodes.
func (cg *CompressedGraph) HasEdgeParallel(u, v NodeID, procs int) bool {
	return query.EdgeExistsSplitSearch(cg.pk, u, v, orDefault(procs, cg.procs))
}

// NeighborsBatch answers many neighborhood queries in parallel with
// work-stealing scheduling (static chunking collapses under power-law
// degree skew); decodes go through the hot-row cache when one is enabled.
func (cg *CompressedGraph) NeighborsBatch(nodes []NodeID, procs int) [][]uint32 {
	return query.NeighborsBatch(cg.rowSource(), nodes, orDefault(procs, cg.procs))
}

// EdgesExistBatch answers many edge-existence queries in parallel without
// materializing a single row.
func (cg *CompressedGraph) EdgesExistBatch(queries []Edge, procs int) []bool {
	return query.EdgesExistBatchSearch(cg.pk, queries, orDefault(procs, cg.procs))
}

// EnableRowCache fronts row decodes (Neighbors, NeighborsBatch) with a
// sharded LRU cache of decoded rows bounded by maxBytes; maxBytes <= 0
// disables caching. Not safe to call concurrently with queries — configure
// the cache before serving.
func (cg *CompressedGraph) EnableRowCache(maxBytes int64) {
	if c := query.NewRowCacheShards(maxBytes, 0); c != nil {
		cg.cache, cg.rows = c, query.Cached(cg.pk, c)
	} else {
		cg.cache, cg.rows = nil, nil
	}
}

// CacheStats reports hot-row cache effectiveness; zero when no cache is
// enabled.
func (cg *CompressedGraph) CacheStats() CacheStats {
	return cacheStatsFrom(cg.cache.Stats())
}

func (cg *CompressedGraph) rowSource() query.Source {
	if cg.rows != nil {
		return cg.rows
	}
	return cg.pk
}

// Decompress expands back to a plain Graph.
func (cg *CompressedGraph) Decompress() *Graph {
	return &Graph{m: cg.pk.Unpack(), procs: cg.procs}
}

// SizeBytes returns the packed payload footprint.
func (cg *CompressedGraph) SizeBytes() int64 { return cg.pk.SizeBytes() }

// WriteTo serializes the compressed graph.
func (cg *CompressedGraph) WriteTo(w io.Writer) (int64, error) { return cg.pk.WriteTo(w) }

// SaveFile writes the compressed graph to path.
func (cg *CompressedGraph) SaveFile(path string) error { return cg.pk.SaveFile(path) }

// ReadCompressed deserializes a compressed graph written by WriteTo.
func ReadCompressed(r io.Reader, opts ...Option) (*CompressedGraph, error) {
	c := buildConfig(opts)
	pk, err := csr.ReadPacked(r)
	if err != nil {
		return nil, err
	}
	return &CompressedGraph{pk: pk, procs: c.procs}, nil
}

// LoadCompressedFile reads a compressed graph from path.
func LoadCompressedFile(path string, opts ...Option) (*CompressedGraph, error) {
	c := buildConfig(opts)
	pk, err := csr.LoadPackedFile(path)
	if err != nil {
		return nil, err
	}
	return &CompressedGraph{pk: pk, procs: c.procs}, nil
}

func orDefault(p, def int) int {
	if p > 0 {
		return p
	}
	return def
}
