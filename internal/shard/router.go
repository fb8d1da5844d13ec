package shard

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"csrgraph/internal/edgelist"
	"csrgraph/internal/obs"
	"csrgraph/internal/trace"
)

// RouterConfig bounds the scatter-gather fan-out.
type RouterConfig struct {
	// MaxInflight is the number of legs a shard executes concurrently;
	// further legs queue on the shard's admission semaphore (default 4).
	MaxInflight int
	// MaxLeg caps the items per leg. Large batches aimed at one shard are
	// cut into several legs so a single request cannot monopolize a shard
	// (default 1024).
	MaxLeg int
	// Verified records whether the shard payloads' checksums were verified
	// at load time (csrserver -verify); /healthz reports it per shard.
	Verified bool
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.MaxInflight < 1 {
		c.MaxInflight = 4
	}
	if c.MaxLeg < 1 {
		c.MaxLeg = 1024
	}
	return c
}

// shardState is the router's per-shard serving state: the replica set, the
// admission semaphore, and the shard's observability series.
type shardState struct {
	engines    []*Engine
	sem        chan struct{}
	queued     atomic.Int64
	maxDepth   atomic.Int64  // high-watermark of queued since router build
	rr         atomic.Uint32 // round-robin tiebreak for the replica pick
	depth      *obs.Gauge
	depthMax   *obs.Gauge
	legSeconds *obs.Histogram
}

// noteDepth folds one observed queue depth into the shard's high-watermark
// (CAS-max; the gauge follows the winner so /metrics and /healthz agree).
func (st *shardState) noteDepth(q int64) {
	for {
		cur := st.maxDepth.Load()
		if q <= cur {
			return
		}
		if st.maxDepth.CompareAndSwap(cur, q) {
			st.depthMax.Set(float64(q))
			return
		}
	}
}

// pick returns the least-loaded replica, breaking ties round-robin so
// equal-load replicas share traffic instead of replica 0 taking it all.
func (st *shardState) pick() *Engine {
	es := st.engines
	if len(es) == 1 {
		return es[0]
	}
	start := int(st.rr.Add(1)) % len(es)
	best := es[start]
	min := best.Inflight()
	for i := 1; i < len(es); i++ {
		if e := es[(start+i)%len(es)]; e.Inflight() < min {
			best, min = e, e.Inflight()
		}
	}
	return best
}

// Router is the stateless scatter-gather tier: it splits batch requests by
// shard ownership, fans legs out with bounded in-flight per shard, and
// merges results as each leg completes — no global barrier beyond the
// request's own completion. Input ordering is preserved by construction:
// every leg scatters its results into the caller-visible slice at the
// items' original indices. Safe for concurrent use.
type Router struct {
	part    *Partition
	shards  []*shardState
	cfg     RouterConfig
	scratch sync.Pool // *groupScratch, reused across batches
}

// NewRouter builds a router over engines[shard][replica]. Every shard needs
// at least one replica, and each replica's row count must match the
// partition's idea of the shard.
func NewRouter(part *Partition, engines [][]*Engine, cfg RouterConfig) (*Router, error) {
	if len(engines) != part.NumShards() {
		return nil, fmt.Errorf("shard: %d engine sets for a %d-shard partition", len(engines), part.NumShards())
	}
	cfg = cfg.withDefaults()
	k := part.NumShards()
	r := &Router{part: part, shards: make([]*shardState, len(engines)), cfg: cfg}
	r.scratch.New = func() any {
		return &groupScratch{offs: make([]int32, k+1), next: make([]int32, k)}
	}
	for s, replicas := range engines {
		if len(replicas) == 0 {
			return nil, fmt.Errorf("shard: shard %d has no replicas", s)
		}
		for _, e := range replicas {
			if e.NumNodes() != part.ShardNodes(s) {
				return nil, fmt.Errorf("shard: shard %d replica %d has %d rows, partition owns %d",
					s, e.Replica(), e.NumNodes(), part.ShardNodes(s))
			}
		}
		r.shards[s] = &shardState{
			engines:    replicas,
			sem:        make(chan struct{}, cfg.MaxInflight),
			depth:      queueDepthGauge(s),
			depthMax:   queueDepthMaxGauge(s),
			legSeconds: legSecondsHist(s),
		}
	}
	return r, nil
}

// Partition returns the id→shard mapping the router routes with.
func (r *Router) Partition() *Partition { return r.part }

// NumShards returns the shard count.
func (r *Router) NumShards() int { return r.part.NumShards() }

// Replicas returns shard s's replica engines (for stats endpoints; do not
// mutate).
func (r *Router) Replicas(s int) []*Engine { return r.shards[s].engines }

// QueueDepth returns shard s's admitted-leg count (waiting + executing).
func (r *Router) QueueDepth(s int) int64 { return r.shards[s].queued.Load() }

// QueueDepthMax returns shard s's admitted-leg high-watermark since the
// router was built — the /healthz signal for "this shard has been queuing".
func (r *Router) QueueDepthMax(s int) int64 { return r.shards[s].maxDepth.Load() }

// Verified reports whether the shard payloads were checksum-verified at
// load time.
func (r *Router) Verified() bool { return r.cfg.Verified }

// leg is one shard-bound slice [lo, hi) of a grouped batch. shard is the
// owning shard id, carried for trace attribution (st doesn't know its own
// index).
type leg struct {
	st     *shardState
	shard  int
	lo, hi int
}

// legHandoff is the largest leg, in items, the caller still runs itself.
// Handing a leg to another goroutine costs a goroutine start, a WaitGroup
// slot and a wake-up on another core: about 3 µs per leg measured through
// the router on two vCPUs (0.7 µs on one), against about 40 ns for a warm
// probe — 75 items to break even. The constant sits a few times above
// that, so a leg that is handed off repays the hand-off several times over
// (DESIGN.md, "Wire path"; BenchmarkLegHandoff re-measures both sides).
const legHandoff = 256

// large reports whether l is worth a goroutine of its own.
func (l leg) large() bool { return l.hi-l.lo > legHandoff }

// runLegs executes every leg, bounded by each shard's admission semaphore,
// and returns when all have merged. Legs of at most legHandoff items run on
// the caller in shard order; larger ones go to goroutines of their own,
// except the last, which the caller keeps instead of idling in Wait. tr
// (nil when the request is untraced) receives one queue_wait span per leg.
func (r *Router) runLegs(legs []leg, tr *trace.Trace, exec func(l leg)) {
	fanoutLegs.Observe(int64(len(legs)))
	keep, large := -1, 0
	for i := range legs {
		if legs[i].large() {
			keep = i
			large++
		}
	}
	if large < 2 {
		runInline(legs, keep, tr, exec)
		return
	}
	var wg sync.WaitGroup
	wg.Add(large - 1)
	for _, l := range legs[:keep] {
		if l.large() {
			go func(l leg) {
				defer wg.Done()
				runLeg(l, tr, exec)
			}(l)
		}
	}
	runInline(legs, keep, tr, exec)
	wg.Wait()
}

// runInline runs the caller's share of a batch: every leg of at most
// legHandoff items, plus leg keep.
//
//csr:hotpath
func runInline(legs []leg, keep int, tr *trace.Trace, exec func(l leg)) {
	for i := range legs {
		if i == keep || !legs[i].large() {
			runLeg(legs[i], tr, exec)
		}
	}
}

func runLeg(l leg, tr *trace.Trace, exec func(l leg)) {
	st := l.st
	q := st.queued.Add(1)
	st.depth.Set(float64(q))
	st.noteDepth(q)
	w := tr.Now()
	st.sem <- struct{}{}
	tr.LegSpan(trace.StageQueueWait, l.shard, -1, l.hi-l.lo, 0, w)
	start := time.Now()
	exec(l)
	<-st.sem
	st.legSeconds.ObserveDuration(time.Since(start))
	st.depth.Set(float64(st.queued.Add(-1)))
}

// makeLegs cuts sc's shard-grouped positions [offs[s], offs[s+1]) into legs
// of at most MaxLeg items, in sc's own leg list. Empty shards contribute no
// legs.
func (r *Router) makeLegs(sc *groupScratch) []leg {
	legs := sc.legs[:0]
	for s := range r.shards {
		lo, hi := int(sc.offs[s]), int(sc.offs[s+1])
		for lo < hi {
			end := lo + r.cfg.MaxLeg
			if end > hi {
				end = hi
			}
			legs = append(legs, leg{st: r.shards[s], shard: s, lo: lo, hi: end})
			lo = end
		}
	}
	sc.legs = legs
	return legs
}

// groupScratch is the per-batch grouping workspace, pooled on the router
// so steady-state batches allocate nothing on the split path. A scratch is
// held until the batch's last leg has merged (runLegs waits), then
// returned.
type groupScratch struct {
	offs   []int32 // k+1 group boundaries
	next   []int32 // k fill cursors
	shards []int32 // per-item owning shard, computed once in pass one
	orig   []int32 // original index per grouped position
	locals []edgelist.NodeID
	edges  []edgelist.Edge
	legs   []leg
}

func (r *Router) getScratch() *groupScratch {
	sc := r.scratch.Get().(*groupScratch)
	for i := range sc.offs {
		sc.offs[i] = 0
	}
	return sc
}

func (r *Router) putScratch(sc *groupScratch) { r.scratch.Put(sc) }

// grow32 resizes a pooled scratch slice without zeroing — every grouped
// position is overwritten before it is read.
func grow32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// groupIDs buckets ids by owning shard (counting sort, stable within a
// shard) into sc: sc.orig[pos] is the item's original index and
// sc.locals[pos] its local row id, with shard s's items at positions
// [sc.offs[s], sc.offs[s+1]). The owning shard is computed once per item
// and reused for the local-id rewrite.
func (r *Router) groupIDs(ids []edgelist.NodeID, sc *groupScratch) error {
	n := uint32(r.part.NumNodes())
	k := r.part.NumShards()
	sc.shards = grow32(sc.shards, len(ids))
	for i, u := range ids {
		if u >= n {
			return fmt.Errorf("shard: node id %d out of range [0, %d)", u, n)
		}
		s := r.part.ShardOf(u)
		sc.shards[i] = int32(s)
		sc.offs[s+1]++
	}
	for s := 0; s < k; s++ {
		sc.offs[s+1] += sc.offs[s]
	}
	sc.orig = grow32(sc.orig, len(ids))
	if cap(sc.locals) < len(ids) {
		sc.locals = make([]edgelist.NodeID, len(ids))
	}
	sc.locals = sc.locals[:len(ids)]
	copy(sc.next, sc.offs[:k])
	for i, u := range ids {
		s := sc.shards[i]
		pos := sc.next[s]
		sc.next[s] = pos + 1
		sc.orig[pos] = int32(i)
		sc.locals[pos] = r.part.localIn(int(s), u)
	}
	return nil
}

// groupEdges buckets probes by the owning shard of each U, rewriting U to
// the shard-local row id (V stays global — shard rows store global
// neighbor values). Both endpoints are validated so a sharded deployment
// rejects malformed probes instead of silently answering false.
func (r *Router) groupEdges(edges []edgelist.Edge, sc *groupScratch) error {
	n := uint32(r.part.NumNodes())
	k := r.part.NumShards()
	sc.shards = grow32(sc.shards, len(edges))
	for i, e := range edges {
		if e.U >= n || e.V >= n {
			return fmt.Errorf("shard: edge %d (%d,%d) out of range [0, %d)", i, e.U, e.V, n)
		}
		s := r.part.ShardOf(e.U)
		sc.shards[i] = int32(s)
		sc.offs[s+1]++
	}
	for s := 0; s < k; s++ {
		sc.offs[s+1] += sc.offs[s]
	}
	sc.orig = grow32(sc.orig, len(edges))
	if cap(sc.edges) < len(edges) {
		sc.edges = make([]edgelist.Edge, len(edges))
	}
	sc.edges = sc.edges[:len(edges)]
	copy(sc.next, sc.offs[:k])
	for i, e := range edges {
		s := sc.shards[i]
		pos := sc.next[s]
		sc.next[s] = pos + 1
		sc.orig[pos] = int32(i)
		sc.edges[pos] = edgelist.Edge{U: r.part.localIn(int(s), e.U), V: e.V}
	}
	return nil
}

// scatterRows merges one leg's decoded rows into the caller's slice at the
// original indices — disjoint element writes, so legs merge concurrently
// without coordination.
//
//csr:hotpath
func scatterRows(out [][]uint32, orig []int32, rows [][]uint32) {
	for i, o := range orig {
		out[o] = rows[i]
	}
}

// scatterInts merges one leg's counts.
//
//csr:hotpath
func scatterInts(out []int, orig []int32, vals []int) {
	for i, o := range orig {
		out[o] = vals[i]
	}
}

// scatterBools merges one leg's existence verdicts.
//
//csr:hotpath
func scatterBools(out []bool, orig []int32, vals []bool) {
	for i, o := range orig {
		out[o] = vals[i]
	}
}

// NeighborsBatch answers adjacency decodes for global ids, preserving
// input order. Rows come back in global id space (shards store global
// neighbor values) so no reverse translation happens on the merge path.
// A row served from an engine's row table is the table's own slice, shared
// with every other request: read-only.
func (r *Router) NeighborsBatch(ids []edgelist.NodeID) ([][]uint32, error) {
	return r.NeighborsBatchTraced(ids, nil)
}

// NeighborsBatchTraced is NeighborsBatch stamping spans into tr (nil means
// untraced and costs a pointer compare per site): one group span, then per
// leg a queue_wait, an exec with shard/replica attribution, and a merge.
func (r *Router) NeighborsBatchTraced(ids []edgelist.NodeID, tr *trace.Trace) ([][]uint32, error) {
	out := make([][]uint32, len(ids))
	if len(ids) == 0 {
		return out, nil
	}
	sc := r.getScratch()
	defer r.putScratch(sc)
	g := tr.Now()
	if err := r.groupIDs(ids, sc); err != nil {
		return nil, err
	}
	tr.Span(trace.StageGroup, len(ids), g)
	routedNeighbors.Add(int64(len(ids)))
	r.runLegs(r.makeLegs(sc), tr, func(l leg) {
		e := l.st.pick()
		e.enter()
		x := tr.Now()
		rows := e.Neighbors(sc.locals[l.lo:l.hi])
		tr.LegSpan(trace.StageExec, l.shard, e.Replica(), l.hi-l.lo, 0, x)
		e.leave()
		m := time.Now()
		scatterRows(out, sc.orig[l.lo:l.hi], rows)
		mergeSeconds.ObserveDuration(time.Since(m))
		tr.LegSpan(trace.StageMerge, l.shard, e.Replica(), l.hi-l.lo, 0, m)
	})
	return out, nil
}

// DegreeBatch answers out-degree lookups for global ids, preserving input
// order.
func (r *Router) DegreeBatch(ids []edgelist.NodeID) ([]int, error) {
	return r.DegreeBatchTraced(ids, nil)
}

// DegreeBatchTraced is DegreeBatch with span stamping (see
// NeighborsBatchTraced).
func (r *Router) DegreeBatchTraced(ids []edgelist.NodeID, tr *trace.Trace) ([]int, error) {
	out := make([]int, len(ids))
	if len(ids) == 0 {
		return out, nil
	}
	sc := r.getScratch()
	defer r.putScratch(sc)
	g := tr.Now()
	if err := r.groupIDs(ids, sc); err != nil {
		return nil, err
	}
	tr.Span(trace.StageGroup, len(ids), g)
	routedDegrees.Add(int64(len(ids)))
	r.runLegs(r.makeLegs(sc), tr, func(l leg) {
		e := l.st.pick()
		e.enter()
		x := tr.Now()
		vals := e.Degrees(sc.locals[l.lo:l.hi])
		tr.LegSpan(trace.StageExec, l.shard, e.Replica(), l.hi-l.lo, 0, x)
		e.leave()
		m := time.Now()
		scatterInts(out, sc.orig[l.lo:l.hi], vals)
		mergeSeconds.ObserveDuration(time.Since(m))
		tr.LegSpan(trace.StageMerge, l.shard, e.Replica(), l.hi-l.lo, 0, m)
	})
	return out, nil
}

// EdgesExistBatch answers existence probes, preserving input order. Probes
// are grouped by the U endpoint's owner, the one shard that stores u's row,
// and each leg searches that shard's packed rows in place.
func (r *Router) EdgesExistBatch(edges []edgelist.Edge) ([]bool, error) {
	return r.EdgesExistBatchTraced(edges, nil)
}

// EdgesExistBatchTraced is EdgesExistBatch with span stamping (see
// NeighborsBatchTraced). Existence uses no cache, so each exec span's Extra
// is 0.
func (r *Router) EdgesExistBatchTraced(edges []edgelist.Edge, tr *trace.Trace) ([]bool, error) {
	out := make([]bool, len(edges))
	if len(edges) == 0 {
		return out, nil
	}
	sc := r.getScratch()
	defer r.putScratch(sc)
	g := tr.Now()
	if err := r.groupEdges(edges, sc); err != nil {
		return nil, err
	}
	tr.Span(trace.StageGroup, len(edges), g)
	routedExists.Add(int64(len(edges)))
	r.runLegs(r.makeLegs(sc), tr, func(l leg) {
		e := l.st.pick()
		e.enter()
		x := tr.Now()
		vals := e.EdgesExist(sc.edges[l.lo:l.hi])
		tr.LegSpan(trace.StageExec, l.shard, e.Replica(), l.hi-l.lo, 0, x)
		e.leave()
		m := time.Now()
		scatterBools(out, sc.orig[l.lo:l.hi], vals)
		mergeSeconds.ObserveDuration(time.Since(m))
		tr.LegSpan(trace.StageMerge, l.shard, e.Replica(), l.hi-l.lo, 0, m)
	})
	return out, nil
}
