package shard

import (
	"fmt"
	"sync"

	"csrgraph/internal/algo"
	"csrgraph/internal/edgelist"
	"csrgraph/internal/frontier"
	"csrgraph/internal/trace"
)

// BFS runs a distributed breadth-first traversal across the shards and
// returns the hop distance from src to every global id (algo.Unreached for
// unreachable nodes) plus the number of frontier rounds.
//
// Each round is two phases with a barrier between them, which is what
// makes the traversal race-free without per-node atomics:
//
//   - expand: every shard with frontier rows decodes them (global neighbor
//     values, no translation) and groups the discovered ids by owner into
//     per-destination outboxes. The phase only READS dist.
//   - absorb: every destination shard drains its inboxes, claiming unseen
//     nodes at level+1. A shard is the single writer for its owned dist
//     entries — ownership is a partition of the id space — so concurrent
//     absorbs write disjoint indices.
//
// With one shard the local ids are the global ids and there is nothing to
// exchange: the lone engine runs the frontier core's parallel push
// traversal over its rows with its own procs. Both forms count one round
// per non-empty frontier.
func (r *Router) BFS(src edgelist.NodeID) ([]int32, int, error) {
	return r.BFSTraced(src, nil)
}

// BFSTraced is BFS stamping spans into tr: per round, one queue_wait and
// one exec span per expanding shard (items = that shard's frontier size)
// and one absorb span (items = nodes claimed into the next frontier, Extra
// = the round number). A one-shard traversal is one queue_wait and one
// exec span (Extra = the rounds). Deep traversals truncate past
// trace.MaxSpans — counted, never reallocated.
func (r *Router) BFSTraced(src edgelist.NodeID, tr *trace.Trace) ([]int32, int, error) {
	n := r.part.NumNodes()
	if int(src) >= n {
		return nil, 0, fmt.Errorf("shard: bfs source %d out of range [0, %d)", src, n)
	}
	routedBFS.Add(1)
	if r.part.NumShards() == 1 {
		dist, rounds := r.bfsOneShard(src, tr)
		bfsRounds.Observe(int64(rounds))
		return dist, rounds, nil
	}
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = algo.Unreached
	}
	dist[src] = 0

	k := r.part.NumShards()
	frontier := make([][]edgelist.NodeID, k) // local ids per shard
	s0, l0 := r.part.ToLocal(src)
	frontier[s0] = append(frontier[s0], l0)
	// outbox[s][d] holds global ids shard s discovered for shard d this
	// round; reused (truncated, not freed) across rounds.
	outbox := make([][][]uint32, k)
	for s := range outbox {
		outbox[s] = make([][]uint32, k)
	}

	rounds := 0
	level := int32(0)
	for {
		// Expand: one leg per shard holding frontier rows. BFS legs are
		// whole-frontier, not index ranges: [lo, hi) spans the shard's
		// frontier so leg spans report meaningful item counts.
		var legs []leg
		for s := range frontier {
			if len(frontier[s]) > 0 {
				legs = append(legs, leg{st: r.shards[s], shard: s, lo: 0, hi: len(frontier[s])})
			}
		}
		if len(legs) == 0 {
			break
		}
		rounds++
		r.runLegs(legs, tr, func(l leg) {
			s := l.shard
			e := l.st.pick()
			e.enter()
			x := tr.Now()
			expandShard(r.part, e, frontier[s], dist, outbox[s])
			tr.LegSpan(trace.StageExec, s, e.Replica(), len(frontier[s]), int64(rounds), x)
			e.leave()
		})

		// Absorb: one goroutine per destination shard; disjoint dist writes.
		a := tr.Now()
		next := make([][]edgelist.NodeID, k)
		var wg sync.WaitGroup
		wg.Add(k)
		for d := 0; d < k; d++ {
			go func(d int) {
				defer wg.Done()
				next[d] = absorbShard(r.part, d, outbox, dist, level+1)
			}(d)
		}
		wg.Wait()
		claimed := 0
		for d := range next {
			claimed += len(next[d])
		}
		tr.LegSpan(trace.StageAbsorb, -1, -1, claimed, int64(rounds), a)
		frontier = next
		level++
	}
	bfsRounds.Observe(int64(rounds))
	return dist, rounds, nil
}

// bfsOneShard runs a one-shard router's traversal as one leg: the frontier
// core's push BFS over the lone engine's rows, admitted like any other leg.
func (r *Router) bfsOneShard(src edgelist.NodeID, tr *trace.Trace) ([]int32, int) {
	var dist []int32
	var rounds int
	r.runLegs([]leg{{st: r.shards[0], lo: 0, hi: 1}}, tr, func(l leg) {
		e := l.st.pick()
		e.enter()
		x := tr.Now()
		var st frontier.Stats
		dist, st = algo.BFSFrontierStats(e.src, nil, src, frontier.DefaultPolicy(), e.procs)
		rounds = st.Rounds
		tr.LegSpan(trace.StageExec, 0, e.Replica(), 1, int64(rounds), x)
		e.leave()
	})
	return dist, rounds
}

// expandShard decodes the shard's frontier rows and buckets unseen
// neighbors by owner. Reads dist as a stale filter only — absorb holds the
// authoritative check.
func expandShard(part *Partition, e *Engine, frontier []edgelist.NodeID, dist []int32, out [][]uint32) {
	for d := range out {
		out[d] = out[d][:0]
	}
	var buf []uint32
	for _, lu := range frontier {
		buf = e.Row(buf, lu)
		for _, v := range buf {
			if dist[v] == algo.Unreached {
				d := part.ShardOf(v)
				out[d] = append(out[d], v)
			}
		}
	}
}

// absorbShard claims every unseen inbox id owned by shard d at the given
// level and returns d's next frontier (local ids). Only d's goroutine
// writes d's dist entries.
func absorbShard(part *Partition, d int, outbox [][][]uint32, dist []int32, level int32) []edgelist.NodeID {
	var next []edgelist.NodeID
	for s := range outbox {
		for _, v := range outbox[s][d] {
			if dist[v] == algo.Unreached {
				dist[v] = level
				_, lv := part.ToLocal(v)
				next = append(next, lv)
			}
		}
	}
	return next
}

// BFSBatch runs BFS from each source, preserving input order, and returns
// the distance vectors.
func (r *Router) BFSBatch(srcs []edgelist.NodeID) ([][]int32, error) {
	out := make([][]int32, len(srcs))
	for i, src := range srcs {
		dist, _, err := r.BFS(src)
		if err != nil {
			return nil, err
		}
		out[i] = dist
	}
	return out, nil
}
