// Package prefixsum implements the paper's Algorithm 1, the parallel
// prefix-sum (scan) used to turn a degree array into CSR row offsets, plus
// the sequential reference it is tested against.
//
// Algorithm 1 proceeds in three phases over p chunks of the input, each
// phase ending in the pseudocode's sync(), which here is the join at the
// end of one parallel.For:
//
//  1. every processor computes an in-place inclusive scan of its chunk;
//  2. the chunk-boundary carries are propagated serially: the last element
//     of chunk c receives the (updated) last element of chunk c-1 — the
//     pseudocode wraps this in Lock()/Unlock() because it is the
//     inherently serial step;
//  3. every processor except the first adds the final value of its
//     predecessor chunk to all of its elements but the last (the last
//     already received the carry in phase 2).
package prefixsum

import "csrgraph/internal/parallel"

// Integer is the element constraint for scans: any built-in integer type.
type Integer interface {
	~int | ~int8 | ~int16 | ~int32 | ~int64 |
		~uint | ~uint8 | ~uint16 | ~uint32 | ~uint64 | ~uintptr
}

// InclusiveSequential computes the inclusive prefix sum of xs in place and
// returns xs. It is the reference implementation Inclusive is tested
// against.
func InclusiveSequential[T Integer](xs []T) []T {
	for i := 1; i < len(xs); i++ {
		xs[i] += xs[i-1]
	}
	return xs
}

// Inclusive computes the inclusive prefix sum of xs in place using p
// processors, following Algorithm 1, and returns xs.
func Inclusive[T Integer](xs []T, p int) []T {
	chunks := parallel.Chunks(len(xs), p)
	// Phase 1: in-chunk inclusive scan (pseudocode lines 2-3), the running
	// sum carried in a register rather than reloaded from the element just
	// stored.
	parallel.For(len(xs), p, func(_ int, r parallel.Range) {
		var s T
		for i := r.Start; i < r.End; i++ {
			s += xs[i]
			xs[i] = s
		}
	})
	// Phase 2: sequential carry across chunk boundaries (lines 6-9), the
	// pseudocode's Lock()/Unlock() region. Chunk c's carry depends on chunk
	// c-1's updated last element, so the walk runs in chunk order.
	for c := 1; c < len(chunks); c++ {
		xs[chunks[c].End-1] += xs[chunks[c-1].End-1]
	}
	// Phase 3: every chunk but the first adds its predecessor's final value
	// to its interior elements (lines 11-13).
	parallel.For(len(xs), p, func(c int, r parallel.Range) {
		if c == 0 {
			return
		}
		carry := xs[r.Start-1]
		for i := r.Start; i < r.End-1; i++ {
			xs[i] += carry
		}
	})
	return xs
}

// Exclusive computes the exclusive prefix sum of xs in place using p
// processors: out[i] = sum of xs[0..i-1], out[0] = 0. It returns xs along
// with the total sum of the original input.
func Exclusive[T Integer](xs []T, p int) (out []T, total T) {
	if len(xs) == 0 {
		return xs, 0
	}
	Inclusive(xs, p)
	total = xs[len(xs)-1]
	// Shift right in parallel, walking each chunk from the end so reads stay
	// ahead of writes within a chunk; chunk boundaries read the predecessor
	// chunk's final value, which is untouched until after the barrier-free
	// copy because every chunk only writes its own range after saving the
	// boundary value first.
	chunks := parallel.Chunks(len(xs), p)
	boundary := make([]T, len(chunks))
	for c := 1; c < len(chunks); c++ {
		boundary[c] = xs[chunks[c].Start-1]
	}
	parallel.For(len(xs), p, func(c int, r parallel.Range) {
		for i := r.End - 1; i > r.Start; i-- {
			xs[i] = xs[i-1]
		}
		if c == 0 {
			xs[0] = 0
		} else {
			xs[r.Start] = boundary[c]
		}
	})
	return xs, total
}

// Offsets converts a degree array into CSR row offsets using p processors:
// the result has len(deg)+1 entries with out[0] = 0 and
// out[i] = deg[0] + ... + deg[i-1]. deg is left unmodified.
func Offsets[T Integer](deg []T, p int) []T {
	out := make([]T, len(deg)+1)
	copy(out[1:], deg)
	Inclusive(out[1:], p)
	return out
}
