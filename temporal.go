package csrgraph

import (
	"fmt"
	"io"

	"csrgraph/internal/edgelist"
	"csrgraph/internal/mgraph"
	"csrgraph/internal/tcsr"
)

// TemporalEdge records that the directed edge (U, V) changed state —
// appeared or disappeared — at time-frame Time. An edge is active at frame
// t if it has toggled an odd number of times in frames 0..t.
type TemporalEdge = edgelist.TemporalEdge

// TemporalGraph is the bit-packed time-evolving differential CSR: frame 0
// is stored as an absolute snapshot, later frames as toggle sets, every
// frame bit-packed (Algorithm 5's "BitArray TCSR"). Checkpoint adds
// absolute snapshots to bound the frames a query folds. All methods are
// safe for concurrent use.
type TemporalGraph struct {
	pt    *tcsr.Packed
	procs int
}

// BuildTemporal constructs a TemporalGraph from toggle events. The input
// is copied and sorted by (time, u, v); duplicate events within one frame
// are removed (a doubled toggle is a no-op). Sorting and dedup run fused
// over the radix key tuples (see edgelist.TemporalList.Prepared).
func BuildTemporal(events []TemporalEdge, numFrames int, opts ...Option) (*TemporalGraph, error) {
	c := buildConfig(opts)
	dedup := edgelist.TemporalList(events).Prepared(c.procs)
	numNodes := 0
	if len(dedup) > 0 {
		numNodes = int(dedup.MaxNode()) + 1
	}
	if c.numNodes > 0 {
		if c.numNodes < numNodes {
			return nil, fmt.Errorf("csrgraph: WithNumNodes(%d) below max node id %d", c.numNodes, numNodes-1)
		}
		numNodes = c.numNodes
	}
	pt, err := tcsr.BuildFromEvents(dedup, numNodes, numFrames, c.procs)
	if err != nil {
		return nil, err
	}
	return &TemporalGraph{pt: pt, procs: c.procs}, nil
}

// BuildTemporalFromSnapshots constructs a TemporalGraph from a series of
// absolute per-frame edge sets. Each snapshot may be unsorted; it is
// copied and sorted.
func BuildTemporalFromSnapshots(snapshots [][]Edge, opts ...Option) (*TemporalGraph, error) {
	c := buildConfig(opts)
	numNodes := 0
	lists := make([]edgelist.List, len(snapshots))
	for i, s := range snapshots {
		l := edgelist.List(s).Prepared(false, c.procs)
		lists[i] = l
		if n := l.NumNodes(); n > numNodes {
			numNodes = n
		}
	}
	if c.numNodes > 0 {
		if c.numNodes < numNodes {
			return nil, fmt.Errorf("csrgraph: WithNumNodes(%d) below max node id %d", c.numNodes, numNodes-1)
		}
		numNodes = c.numNodes
	}
	return &TemporalGraph{pt: tcsr.BuildFromSnapshots(lists, numNodes, c.procs), procs: c.procs}, nil
}

// NumFrames returns the number of time-frames.
func (tg *TemporalGraph) NumFrames() int { return tg.pt.NumFrames() }

// NumNodes returns the node-id space size.
func (tg *TemporalGraph) NumNodes() int { return tg.pt.NumNodes() }

// Active reports whether edge (u, v) is active at frame t.
func (tg *TemporalGraph) Active(u, v NodeID, t int) bool { return tg.pt.Active(u, v, t) }

// ActiveNeighbors returns the sorted neighbors of u active at frame t.
func (tg *TemporalGraph) ActiveNeighbors(u NodeID, t int) []uint32 {
	return tg.pt.ActiveNeighbors(nil, u, t)
}

// Snapshot returns the full edge set active at frame t, sorted by (u, v).
func (tg *TemporalGraph) Snapshot(t int) []Edge { return tg.pt.Snapshot(t, tg.procs) }

// SizeBytes returns the packed footprint: every frame plus any
// checkpoints.
func (tg *TemporalGraph) SizeBytes() int64 { return tg.pt.SizeBytes() }

// FullSnapshotSizeBytes returns what storing every frame as an absolute
// uncompressed CSR would cost, the baseline the differential form is
// measured against.
func (tg *TemporalGraph) FullSnapshotSizeBytes() int64 { return tg.pt.FullSnapshotSizeBytes() }

// Checkpoint returns the graph with an absolute snapshot every interval
// frames, so a point-in-time query folds fewer than interval frames
// instead of t+1 (the copy+log strategy from the temporal-graph literature
// the paper builds on). The frames are shared; an interval >= NumFrames is
// the paper's form.
func (tg *TemporalGraph) Checkpoint(interval int) (*TemporalGraph, error) {
	pt, err := tg.pt.Checkpoint(interval, tg.procs)
	if err != nil {
		return nil, err
	}
	return &TemporalGraph{pt: pt, procs: tg.procs}, nil
}

// SaveFile writes the graph's frames to path as a temporal-form binary
// container. Checkpoints are not stored.
func (tg *TemporalGraph) SaveFile(path string) error {
	return mgraph.WriteTemporalFile(path, tg.pt)
}

// LoadTemporalFile reads a temporal graph written by SaveFile into memory,
// verified like LoadCompressedFile. The graph is in the paper's form: it
// has no checkpoints until Checkpoint adds them.
func LoadTemporalFile(path string, opts ...Option) (*TemporalGraph, error) {
	c := buildConfig(opts)
	ct, err := readContainer(path, mgraph.FormTemporal)
	if err != nil {
		return nil, err
	}
	return &TemporalGraph{pt: ct.Temporal(), procs: c.procs}, nil
}

// ActivityQuery asks whether edge (U, V) is active at frame T.
type ActivityQuery = tcsr.ActivityQuery

// TemporalNeighborQuery asks for the active neighbors of U at frame T.
type TemporalNeighborQuery = tcsr.NeighborQuery

// ActiveBatch answers many activity queries in parallel.
func (tg *TemporalGraph) ActiveBatch(queries []ActivityQuery, procs int) []bool {
	return tg.pt.ActiveBatch(queries, orDefault(procs, 1))
}

// ActiveNeighborsBatch answers many temporal neighborhood queries in
// parallel.
func (tg *TemporalGraph) ActiveNeighborsBatch(queries []TemporalNeighborQuery, procs int) [][]uint32 {
	return tg.pt.ActiveNeighborsBatch(queries, orDefault(procs, 1))
}

// DegreeTimeline returns u's active out-degree at every frame in one
// incremental pass over the differential rows.
func (tg *TemporalGraph) DegreeTimeline(u NodeID) []int {
	return tg.pt.DegreeTimeline(u)
}

// ReadTemporalEdgeList parses "u v t" lines (with '#' comments) into
// temporal toggle events.
func ReadTemporalEdgeList(r io.Reader) ([]TemporalEdge, error) {
	return edgelist.ReadTemporalText(r)
}
