package shard

import (
	"fmt"

	"csrgraph/internal/edgelist"
	"csrgraph/internal/frontier"
	"csrgraph/internal/query"
	"csrgraph/internal/trace"
)

// BFS runs a breadth-first traversal from src across the shards and returns
// the hop distance to every global id (algo.Unreached for unreachable
// nodes) plus the number of frontier rounds.
func (r *Router) BFS(src edgelist.NodeID) ([]int32, int, error) {
	dist, st, err := r.BFSTraced(src, nil)
	return dist, st.Rounds, err
}

// BFSTraced is BFS stamping spans into tr and returning the traversal's
// round breakdown. At every shard count it is the frontier core's push
// traversal (frontier.BFS) over routedView, the global graph read through
// one replica per shard: shard rows store global neighbour ids, so no
// translation or exchange happens between rounds. The traversal holds an
// admission slot on every shard, taken in shard order, and runs on the sum
// of the picked replicas' procs. The trace gets one queue_wait span per
// shard and one exec span (shard -1, Extra = the rounds), whatever the
// traversal's depth.
func (r *Router) BFSTraced(src edgelist.NodeID, tr *trace.Trace) ([]int32, frontier.Stats, error) {
	n := r.part.NumNodes()
	if int(src) >= n {
		return nil, frontier.Stats{}, fmt.Errorf("shard: bfs source %d out of range [0, %d)", src, n)
	}
	routedBFS.Add(1)
	picked := make([]*Engine, len(r.shards))
	var dist []int32
	var st frontier.Stats
	r.admitAll(0, picked, tr, func() {
		v := &routedView{part: r.part, srcs: make([]query.Source, len(picked))}
		p := 0
		for s, e := range picked {
			v.srcs[s] = e.src
			p += e.procs
			if ec, ok := e.src.(interface{ NumEdges() int }); ok {
				v.m += ec.NumEdges()
			}
		}
		x := tr.Now()
		dist, st = frontier.BFS(v, nil, src, frontier.DefaultPolicy(), p)
		tr.LegSpan(trace.StageExec, -1, -1, 1, int64(st.Rounds), x)
	})
	return dist, st, nil
}

// admitAll runs fn with shards s.. admitted and a replica picked for each
// into picked: shard s's leg runs shard s+1's, so the slots are taken in
// shard order. Batch legs hold one slot at a time and traversals take them
// in the same order, so no cycle of waits can form.
func (r *Router) admitAll(s int, picked []*Engine, tr *trace.Trace, fn func()) {
	if s == len(r.shards) {
		fn()
		return
	}
	runLeg(leg{st: r.shards[s], shard: s, lo: 0, hi: 1}, tr, func(l leg) {
		e := l.st.pick()
		e.enter()
		picked[s] = e
		r.admitAll(s+1, picked, tr, fn)
		e.leave()
	})
}

// routedView is the read-only global graph over one replica's rows per
// shard. Degree and Row go to the shard that owns the row; NumEdges (m, the
// sum over the shards whose sources report one) sizes the frontier's
// grains.
type routedView struct {
	part *Partition
	srcs []query.Source
	m    int
}

func (v *routedView) NumNodes() int { return v.part.NumNodes() }
func (v *routedView) NumEdges() int { return v.m }

func (v *routedView) Degree(u edgelist.NodeID) int {
	s, l := v.part.ToLocal(u)
	return v.srcs[s].Degree(l)
}

func (v *routedView) Row(dst []uint32, u edgelist.NodeID) []uint32 {
	s, l := v.part.ToLocal(u)
	return v.srcs[s].Row(dst, l)
}
