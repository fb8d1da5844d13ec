// Package parallel provides the "p processors" execution substrate the
// paper's algorithms are written against: balanced chunk partitioning of an
// index space and parallel-for helpers on one persistent worker pool.
//
// The paper writes Algorithms 1-3 as "each processor does its chunk,
// sync(), one serial step". Here each processor's chunk is one body call of
// For, sync() is the join at For's return, and the serial step (the
// pseudocode's Lock()/Unlock() region) is plain code after the join. All
// helpers run inline when p == 1, so correctness tests can compare p = 1
// against p > 1 outputs directly.
//
// Execution substrate: For and ForEach with p > 1 dispatch onto a lazily
// started package-level Pool — a persistent set of GOMAXPROCS workers
// parked on a channel — instead of spawning goroutines per call, so the
// batched-query and construction call sites pay wake-ups, not spawns.
// Pool.For uses caller-participates scheduling (the submitting goroutine
// claims chunks alongside the workers), which keeps nested parallel-for
// calls deadlock-free and preserves the p == 1 inline fast path; NewPool
// builds private pools for callers that want isolation. Bodies must not
// assume all chunks run concurrently: the caller may run every chunk
// itself, so a body never waits on a sibling chunk.
//
// ForDynamic adds work-stealing scheduling on the same pool: instead of a
// static p-way split, participants claim small grain-sized index ranges
// off an atomic cursor, which keeps batches with power-law per-index cost
// (hub nodes) balanced. The query engine routes batched queries through it.
package parallel

import (
	"fmt"
	"runtime"
)

// Range is a half-open index interval [Start, End).
type Range struct {
	Start, End int
}

// Len returns the number of indices in the range.
func (r Range) Len() int { return r.End - r.Start }

// Empty reports whether the range contains no indices.
func (r Range) Empty() bool { return r.End <= r.Start }

// DefaultProcs returns the default processor count for this host.
func DefaultProcs() int { return runtime.GOMAXPROCS(0) }

// Chunks partitions [0, n) into at most p balanced contiguous ranges. The
// first n%p ranges are one element longer, mirroring how the paper assigns
// chunkSize = ceil(n/p) work to each processor. When n < p only n non-empty
// ranges are returned; p <= 0 is treated as 1.
func Chunks(n, p int) []Range {
	if n < 0 {
		panic(fmt.Sprintf("parallel: negative n %d", n))
	}
	if p <= 0 {
		p = 1
	}
	if p > n {
		p = n
	}
	if p == 0 {
		return nil
	}
	out := make([]Range, p)
	base, extra := n/p, n%p
	start := 0
	for i := range out {
		size := base
		if i < extra {
			size++
		}
		out[i] = Range{start, start + size}
		start += size
	}
	return out
}

// For runs body over [0, n) split into at most p chunks and waits for all
// of them. body receives the chunk index and range. With p == 1 (or n
// small) it runs inline on the calling goroutine; otherwise the chunks are
// executed on the package's persistent worker pool (see Pool), avoiding a
// goroutine spawn and WaitGroup teardown per call.
func For(n, p int, body func(chunk int, r Range)) {
	if p <= 1 || n <= 1 {
		// Inline fast path that never touches (or lazily creates) the pool
		// and allocates nothing.
		if n > 0 {
			body(0, Range{0, n})
		}
		return
	}
	defaultPool().For(n, p, body)
}

// ForDynamic runs body over [0, n) with work-stealing scheduling on the
// package pool: participants grab grain-sized index ranges off a shared
// atomic cursor instead of receiving one static chunk each, which keeps
// skew-heavy batches (power-law degree distributions) balanced. body
// receives a dense worker index in [0, p) for per-worker scratch state and
// may be called many times per worker; grain <= 0 picks a default. See
// Pool.ForDynamic.
func ForDynamic(n, p, grain int, body func(worker int, r Range)) {
	if p <= 1 || n <= 1 {
		if n > 0 {
			body(0, Range{0, n})
		}
		return
	}
	defaultPool().ForDynamic(n, p, grain, body)
}

// ForEach runs body(i) for every i in [0, n) using at most p goroutines.
func ForEach(n, p int, body func(i int)) {
	For(n, p, func(_ int, r Range) {
		for i := r.Start; i < r.End; i++ {
			body(i)
		}
	})
}
