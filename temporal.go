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

// TemporalGraph is the time-evolving differential CSR: frame 0 is stored
// as an absolute snapshot, later frames as toggle sets. All methods are
// safe for concurrent use.
type TemporalGraph struct {
	tc    *tcsr.Temporal
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
	tc, err := tcsr.BuildFromEvents(dedup, numNodes, numFrames, c.procs)
	if err != nil {
		return nil, err
	}
	return &TemporalGraph{tc: tc, procs: c.procs}, nil
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
	return &TemporalGraph{tc: tcsr.BuildFromSnapshots(lists, numNodes, c.procs), procs: c.procs}, nil
}

// NumFrames returns the number of time-frames.
func (tg *TemporalGraph) NumFrames() int { return tg.tc.NumFrames() }

// NumNodes returns the node-id space size.
func (tg *TemporalGraph) NumNodes() int { return tg.tc.NumNodes() }

// Active reports whether edge (u, v) is active at frame t.
func (tg *TemporalGraph) Active(u, v NodeID, t int) bool { return tg.tc.Active(u, v, t) }

// ActiveNeighbors returns the sorted neighbors of u active at frame t.
func (tg *TemporalGraph) ActiveNeighbors(u NodeID, t int) []uint32 {
	return tg.tc.ActiveNeighbors(u, t)
}

// Snapshot returns the full edge set active at frame t, sorted by (u, v).
func (tg *TemporalGraph) Snapshot(t int) []Edge { return tg.tc.Snapshot(t) }

// SizeBytes returns the uncompressed differential footprint.
func (tg *TemporalGraph) SizeBytes() int64 { return tg.tc.SizeBytes() }

// FullSnapshotSizeBytes returns what storing every frame as an absolute
// CSR would cost, for comparison against the differential form.
func (tg *TemporalGraph) FullSnapshotSizeBytes() int64 { return tg.tc.FullSnapshotSizeBytes() }

// Compress returns the bit-packed form of the temporal graph.
func (tg *TemporalGraph) Compress() *CompressedTemporalGraph {
	return &CompressedTemporalGraph{pt: tg.tc.Pack(tg.procs)}
}

// CompressedTemporalGraph is the bit-packed differential TCSR.
type CompressedTemporalGraph struct {
	pt *tcsr.Packed
}

// NumFrames returns the number of time-frames.
func (ct *CompressedTemporalGraph) NumFrames() int { return ct.pt.NumFrames() }

// NumNodes returns the node-id space size.
func (ct *CompressedTemporalGraph) NumNodes() int { return ct.pt.NumNodes() }

// Active reports whether edge (u, v) is active at frame t.
func (ct *CompressedTemporalGraph) Active(u, v NodeID, t int) bool { return ct.pt.Active(u, v, t) }

// ActiveNeighbors returns the sorted neighbors of u active at frame t.
func (ct *CompressedTemporalGraph) ActiveNeighbors(u NodeID, t int) []uint32 {
	return ct.pt.ActiveNeighbors(u, t)
}

// SizeBytes returns the packed payload footprint.
func (ct *CompressedTemporalGraph) SizeBytes() int64 { return ct.pt.SizeBytes() }

// SaveFile writes the compressed temporal graph to path as a
// temporal-form binary container.
func (ct *CompressedTemporalGraph) SaveFile(path string) error {
	return mgraph.WriteTemporalFile(path, ct.pt)
}

// LoadCompressedTemporalFile reads a compressed temporal graph written by
// SaveFile into memory, verified like LoadCompressedFile.
func LoadCompressedTemporalFile(path string) (*CompressedTemporalGraph, error) {
	c, err := readContainer(path, mgraph.FormTemporal)
	if err != nil {
		return nil, err
	}
	return &CompressedTemporalGraph{pt: c.Temporal()}, nil
}

// ActivityQuery asks whether edge (U, V) is active at frame T.
type ActivityQuery = tcsr.ActivityQuery

// TemporalNeighborQuery asks for the active neighbors of U at frame T.
type TemporalNeighborQuery = tcsr.NeighborQuery

// ActiveBatch answers many activity queries in parallel.
func (ct *CompressedTemporalGraph) ActiveBatch(queries []ActivityQuery, procs int) []bool {
	return ct.pt.ActiveBatch(queries, orDefault(procs, 1))
}

// ActiveNeighborsBatch answers many temporal neighborhood queries in
// parallel.
func (ct *CompressedTemporalGraph) ActiveNeighborsBatch(queries []TemporalNeighborQuery, procs int) [][]uint32 {
	return ct.pt.ActiveNeighborsBatch(queries, orDefault(procs, 1))
}

// DegreeTimeline returns u's active out-degree at every frame in one
// incremental pass over the differential rows.
func (ct *CompressedTemporalGraph) DegreeTimeline(u NodeID) []int {
	return ct.pt.DegreeTimeline(u)
}

// CheckpointedTemporalGraph trades space for query latency: it keeps the
// differential frames plus a materialized snapshot every `interval`
// frames, so point-in-time queries scan at most `interval` frames instead
// of t+1 (the copy+log strategy from the temporal-graph literature the
// paper builds on).
type CheckpointedTemporalGraph struct {
	ck *tcsr.Checkpointed
}

// Checkpoint builds snapshot checkpoints every interval frames.
func (tg *TemporalGraph) Checkpoint(interval int) (*CheckpointedTemporalGraph, error) {
	ck, err := tcsr.NewCheckpointed(tg.tc, interval, tg.procs)
	if err != nil {
		return nil, err
	}
	return &CheckpointedTemporalGraph{ck: ck}, nil
}

// Active reports whether (u, v) is active at frame t.
func (cg *CheckpointedTemporalGraph) Active(u, v NodeID, t int) bool { return cg.ck.Active(u, v, t) }

// ActiveNeighbors returns the sorted active neighbors of u at frame t.
func (cg *CheckpointedTemporalGraph) ActiveNeighbors(u NodeID, t int) []uint32 {
	return cg.ck.ActiveNeighbors(u, t)
}

// NumFrames returns the number of time-frames.
func (cg *CheckpointedTemporalGraph) NumFrames() int { return cg.ck.NumFrames() }

// SizeBytes returns the differential payload plus checkpoint overhead.
func (cg *CheckpointedTemporalGraph) SizeBytes() int64 { return cg.ck.SizeBytes() }

// ReadTemporalEdgeList parses "u v t" lines (with '#' comments) into
// temporal toggle events.
func ReadTemporalEdgeList(r io.Reader) ([]TemporalEdge, error) {
	return edgelist.ReadTemporalText(r)
}
