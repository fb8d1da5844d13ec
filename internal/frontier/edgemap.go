package frontier

import (
	"csrgraph/internal/obs"
	"csrgraph/internal/parallel"
)

// Mode forces an EdgeMap traversal direction. Auto lets the Policy decide;
// the forced modes let differential tests pin both paths against each
// other (FuzzEdgeMap).
type Mode int

const (
	// Auto applies Opts.Policy per round.
	Auto Mode = iota
	// ForceSparse always pushes along the frontier's out-edges.
	ForceSparse
	// ForceDense always pulls over destination in-edges (needs gT).
	ForceDense
)

// Stats accumulates per-traversal round counts; pass one Stats through
// several EdgeMap calls to observe how the policy played out.
type Stats struct {
	Rounds       int
	SparseRounds int
	DenseRounds  int
}

// Opts configures one EdgeMap round.
type Opts struct {
	// Procs is the processor count; <= 0 means 1.
	Procs int
	// Policy is the sparse↔dense switching heuristic; the zero value is
	// the GBBS default (alpha = beta = 20).
	Policy Policy
	// Mode pins the traversal direction; Auto consults Policy.
	Mode Mode
	// Stats, when non-nil, accumulates round counts.
	Stats *Stats
}

// grainTargetEdges is the decode work one work-stealing grab should
// amortize in sparse mode — same constant the query engine uses.
const grainTargetEdges = 4096

// avgDegree estimates g's average degree (NumEdges is an optional
// interface; sources without it get a conservative guess).
func avgDegree(g Graph) int {
	if ec, ok := g.(interface{ NumEdges() int }); ok && g.NumNodes() > 0 {
		return ec.NumEdges()/g.NumNodes() + 1
	}
	return 8
}

// numEdges returns g's edge count, or -1 when the source cannot say.
func numEdges(g Graph) int {
	if ec, ok := g.(interface{ NumEdges() int }); ok {
		return ec.NumEdges()
	}
	return -1
}

// EdgeMap applies update to the out-edges (s, d) of the frontier — s in vs,
// d a neighbor with cond(d) true — and returns the subset of destinations
// for which update returned true. It is the Ligra/GBBS edgeMap primitive:
//
//   - Sparse (push) mode iterates the frontier ids, decodes each row
//     through the width-specialized kernels, and appends activated
//     destinations to per-worker buffers; scheduling is
//     parallel.ForDynamic with a degree-weighted grain so hub-heavy
//     frontiers stay balanced.
//   - Dense (pull) mode iterates destination vertices d with cond(d) true
//     and probes d's in-edges (rows of the transpose gT) for frontier
//     members, early-exiting the probe as soon as cond(d) turns false —
//     on an IndexedRows source single neighbors are read in place, no row
//     is ever materialized.
//
// update must be safe for concurrent calls with distinct d; in sparse mode
// concurrent calls share d, so update must claim d (a CAS) for the output
// to be duplicate-free; in dense mode each d is owned by one worker. cond == nil means "always true".
// gT may be nil, which disables dense mode. The sparse output order is
// nondeterministic; the set of ids is not.
func EdgeMap(g, gT Graph, vs *VertexSubset, update func(s, d uint32) bool, cond func(d uint32) bool, opts Opts) *VertexSubset {
	p := opts.Procs
	if p < 1 {
		p = 1
	}
	n := g.NumNodes()
	if vs.IsEmpty() {
		return Empty(n)
	}
	dense := false
	switch opts.Mode {
	case ForceSparse:
	case ForceDense:
		if gT == nil {
			panic("frontier: ForceDense EdgeMap without a transpose")
		}
		dense = true
	default:
		if gT != nil {
			if m := numEdges(g); m >= 0 {
				edges := 0
				if !vs.IsDense() {
					edges = degreeSum(g, vs.ids, p)
				}
				dense = opts.Policy.UseDense(vs.Len(), edges, n, m, vs.IsDense())
			}
		}
	}
	if opts.Stats != nil {
		opts.Stats.Rounds++
		if dense {
			opts.Stats.DenseRounds++
		} else {
			opts.Stats.SparseRounds++
		}
	}
	if dense != vs.IsDense() {
		if dense {
			switchToDense.Inc()
		} else {
			switchToSparse.Inc()
		}
	}
	start := obs.Now()
	var out *VertexSubset
	if dense {
		out = edgeMapDense(gT, vs, update, cond, p)
		obs.Tick(roundDenseSeconds, start)
	} else {
		out = edgeMapSparse(g, vs, update, cond, p)
		obs.Tick(roundSparseSeconds, start)
	}
	return out
}

// edgeMapSparse is the push direction: iterate frontier rows, emit
// activated destinations into per-worker buffers, concatenate.
func edgeMapSparse(g Graph, vs *VertexSubset, update func(s, d uint32) bool, cond func(d uint32) bool, p int) *VertexSubset {
	n := g.NumNodes()
	ids := vs.IDs(p)
	if p > len(ids) {
		p = len(ids)
	}
	grain := grainTargetEdges / avgDegree(g)
	if limit := len(ids) / (4 * p); grain > limit {
		grain = limit
	}
	if grain < 1 {
		grain = 1
	}
	bufs := make([][]uint32, p)
	outs := make([][]uint32, p)
	parallel.ForDynamic(len(ids), p, grain, func(w int, r parallel.Range) {
		buf := bufs[w]
		local := outs[w]
		for i := r.Start; i < r.End; i++ {
			s := ids[i]
			buf = g.Row(buf, s)
			for _, d := range buf {
				if cond != nil && !cond(d) {
					continue
				}
				if update(s, d) {
					local = append(local, d)
				}
			}
		}
		bufs[w] = buf
		outs[w] = local
	})
	total := 0
	for _, local := range outs {
		total += len(local)
	}
	next := make([]uint32, 0, total)
	for _, local := range outs {
		next = append(next, local...)
	}
	return NewSparse(n, next)
}

// edgeMapDense is the pull direction: for every destination d with cond(d)
// true, scan d's in-edges (gT rows) for a frontier member and call update
// until cond(d) turns false. Work is partitioned over 64-vertex bitmap
// words, so each output word is written by exactly one worker and the
// output bitmap needs no atomics.
func edgeMapDense(gT Graph, vs *VertexSubset, update func(s, d uint32) bool, cond func(d uint32) bool, p int) *VertexSubset {
	n := gT.NumNodes()
	vs.toDense(p)
	words := denseWords(n)
	if p > words {
		p = words
	}
	grain := 1 + grainTargetEdges/(64*avgDegree(gT))
	if limit := words / (4 * p); grain > limit {
		grain = limit
	}
	if grain < 1 {
		grain = 1
	}
	outBits := make([]uint64, words)
	ir, _ := gT.(IndexedRows)
	counts := make([]int, p)
	bufs := make([][]uint32, p)
	parallel.ForDynamic(words, p, grain, func(w int, r parallel.Range) {
		buf := bufs[w]
		found := counts[w]
		for wi := r.Start; wi < r.End; wi++ {
			var outWord uint64
			lo := uint32(wi << 6)
			hi := uint32(n)
			if next := lo + 64; next < hi {
				hi = next
			}
			for d := lo; d < hi; d++ {
				if cond != nil && !cond(d) {
					continue
				}
				var emit bool
				if ir != nil {
					emit = denseProbeIndexed(ir, vs, update, cond, d)
				} else {
					buf = gT.Row(buf, d)
					emit = denseProbeRow(buf, vs, update, cond, d)
				}
				if emit {
					outWord |= 1 << (d & 63)
					found++
				}
			}
			outBits[wi] = outWord
		}
		bufs[w] = buf
		counts[w] = found
	})
	total := 0
	for _, c := range counts {
		total += c
	}
	return NewDense(n, outBits, total)
}

// denseProbeIndexed scans d's in-row in place — one O(1) ColAt per probe,
// no row materialized — calling update for frontier members and
// early-exiting once cond(d) turns false. Reports whether any update
// returned true.
//
//csr:hotpath
func denseProbeIndexed(ir IndexedRows, vs *VertexSubset, update func(s, d uint32) bool, cond func(d uint32) bool, d uint32) bool {
	start, end := ir.RowBounds(d)
	emit := false
	for i := start; i < end; i++ {
		s := ir.ColAt(i)
		if !vs.containsDense(s) {
			continue
		}
		if update(s, d) {
			emit = true
		}
		if cond != nil && !cond(d) {
			break
		}
	}
	return emit
}

// denseProbeRow is the decoded-row fallback of denseProbeIndexed for
// sources without indexable columns.
//
//csr:hotpath
func denseProbeRow(row []uint32, vs *VertexSubset, update func(s, d uint32) bool, cond func(d uint32) bool, d uint32) bool {
	emit := false
	for _, s := range row {
		if !vs.containsDense(s) {
			continue
		}
		if update(s, d) {
			emit = true
		}
		if cond != nil && !cond(d) {
			break
		}
	}
	return emit
}
