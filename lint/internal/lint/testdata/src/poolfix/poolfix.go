// Package poolfix exercises the poolcapture analyzer: the two race shapes
// the chunked algorithms (Algorithms 2-3) invite — reading an enclosing
// loop's counter from a chunk body, and writing captured state without
// synchronization — plus every sanctioned alternative.
package poolfix

import (
	"sync"
	"sync/atomic"

	"csrgraph/internal/parallel"
)

// chunkBoundaryBug is the classic multi-round shape: the round counter
// leaks into the chunk body, so a chunk scheduled late computes with a
// round it was never meant to see.
func chunkBoundaryBug(data []int, p int) {
	for round := 0; round < 8; round++ {
		parallel.For(len(data), p, func(c int, r parallel.Range) {
			for i := r.Start; i < r.End; i++ {
				data[i] += round // want `captures loop variable round`
			}
		})
	}
}

// hoistedSnapshotOK is the fix: a per-round copy taken before the call.
func hoistedSnapshotOK(data []int, p int) {
	for round := 0; round < 8; round++ {
		rnd := round
		parallel.For(len(data), p, func(c int, r parallel.Range) {
			for i := r.Start; i < r.End; i++ {
				data[i] += rnd
			}
		})
	}
}

func rangeLoopVar(rows [][]int, p int) {
	for _, row := range rows {
		parallel.ForEach(len(row), p, func(i int) {
			row[i] = i // want `captures loop variable row`
		})
	}
}

func writesCaptured(n, p int) int {
	total := 0
	parallel.ForEach(n, p, func(i int) {
		total += i // want `writes captured variable total`
	})
	return total
}

func incDecCaptured(n, p int) int {
	count := 0
	parallel.ForDynamic(n, p, 4, func(worker int, r parallel.Range) {
		count++ // want `writes captured variable count`
	})
	return count
}

func mapEntryCaptured(n, p int) {
	seen := map[int]bool{}
	parallel.ForEach(n, p, func(i int) {
		seen[i] = true // want `writes a map entry of captured variable seen`
	})
}

func pointerCaptured(n, p int, out *int) {
	parallel.ForEach(n, p, func(i int) {
		*out = i // want `writes through captured pointer out`
	})
}

type acc struct{ sum int }

func fieldCaptured(n, p int, a *acc) {
	parallel.ForEach(n, p, func(i int) {
		a.sum += i // want `writes field sum of captured variable a`
	})
}

// sliceElementOK writes disjoint elements — the intended result pattern.
func sliceElementOK(n, p int) []int {
	out := make([]int, n)
	parallel.ForEach(n, p, func(i int) {
		out[i] = i * i
	})
	return out
}

// mutexReductionOK is the sanctioned chunk-local reduce under a lock.
func mutexReductionOK(n, p int) int {
	var mu sync.Mutex
	total := 0
	parallel.For(n, p, func(c int, r parallel.Range) {
		local := 0
		for i := r.Start; i < r.End; i++ {
			local += i
		}
		mu.Lock()
		total += local
		mu.Unlock()
	})
	return total
}

// unlockedAfterOK: a write after the unlock is back to being a race.
func unlockedAfter(n, p int) int {
	var mu sync.Mutex
	total := 0
	parallel.For(n, p, func(c int, r parallel.Range) {
		mu.Lock()
		total += r.End - r.Start
		mu.Unlock()
		total++ // want `writes captured variable total`
	})
	return total
}

func atomicOK(n, p int) int64 {
	var total atomic.Int64
	parallel.ForEach(n, p, func(i int) {
		total.Add(int64(i))
	})
	return total.Load()
}

// poolMethodsChecked: the Pool methods are the same API surface.
func poolMethodsChecked(pl *parallel.Pool, n, p int) int {
	total := 0
	pl.For(n, p, func(c int, r parallel.Range) {
		total += r.End - r.Start // want `writes captured variable total`
	})
	return total
}

// closureLocalOK: variables declared inside the closure are private.
func closureLocalOK(n, p int) {
	parallel.ForEach(n, p, func(i int) {
		local := 0
		local += i
		_ = local
	})
}
