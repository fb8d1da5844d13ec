package parallel

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolForCoversIndexSpace: every index is visited exactly once, with
// the chunk labelling of Chunks(n, p).
func TestPoolForCoversIndexSpace(t *testing.T) {
	pl := NewPool(4)
	defer pl.Close()
	for _, n := range []int{0, 1, 2, 3, 7, 64, 1000} {
		for _, p := range []int{1, 2, 3, 4, 9, 64} {
			visits := make([]int32, n)
			chunks := Chunks(n, p)
			nn, pp := n, p // per-case snapshots: pool bodies must not read loop counters
			pl.For(n, p, func(c int, r Range) {
				if c < 0 || c >= len(chunks) || chunks[c] != r {
					t.Errorf("n=%d p=%d: chunk %d got range %v, want %v", nn, pp, c, r, chunks[c])
				}
				for i := r.Start; i < r.End; i++ {
					atomic.AddInt32(&visits[i], 1)
				}
			})
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("n=%d p=%d: index %d visited %d times", n, p, i, v)
				}
			}
		}
	}
}

// TestForMatchesPlainLoop: the pool-backed package For computes the same
// result as a serial loop over the index space.
func TestForMatchesPlainLoop(t *testing.T) {
	const n = 10000
	want := make([]uint64, n)
	for i := range want {
		want[i] = uint64(i) * 3
	}
	for _, p := range []int{1, 2, 4, 16} {
		got := make([]uint64, n)
		For(n, p, func(_ int, r Range) {
			for i := r.Start; i < r.End; i++ {
				got[i] = uint64(i) * 3
			}
		})
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("p=%d: mismatch at %d", p, i)
			}
		}
	}
}

// TestPoolNestedFor: a body that itself calls For must not deadlock even
// when the nesting exceeds the worker count (caller-participates
// scheduling guarantees progress).
func TestPoolNestedFor(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		var total atomic.Int64
		For(8, 8, func(_ int, outer Range) {
			For(64, 8, func(_ int, inner Range) {
				For(16, 4, func(_ int, r Range) {
					total.Add(int64(r.Len() * outer.Len() * inner.Len()))
				})
			})
		})
		var want int64
		for _, or := range Chunks(8, 8) {
			for _, ir := range Chunks(64, 8) {
				want += int64(16 * or.Len() * ir.Len())
			}
		}
		if got := total.Load(); got != want {
			t.Errorf("nested total = %d, want %d", got, want)
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("nested For deadlocked")
	}
}

// TestPoolConcurrentCallers: many goroutines share the package pool.
func TestPoolConcurrentCallers(t *testing.T) {
	const callers, n = 16, 5000
	var wg sync.WaitGroup
	wg.Add(callers)
	sums := make([]int64, callers)
	for g := 0; g < callers; g++ {
		go func(g int) {
			defer wg.Done()
			var sum atomic.Int64
			For(n, 4, func(_ int, r Range) {
				s := int64(0)
				for i := r.Start; i < r.End; i++ {
					s += int64(i)
				}
				sum.Add(s)
			})
			sums[g] = sum.Load()
		}(g)
	}
	wg.Wait()
	want := int64(n) * (n - 1) / 2
	for g, s := range sums {
		if s != want {
			t.Errorf("caller %d: sum = %d, want %d", g, s, want)
		}
	}
}

// TestPoolCloseIdempotent: double Close must not panic.
func TestPoolCloseIdempotent(t *testing.T) {
	pl := NewPool(2)
	pl.For(10, 2, func(int, Range) {})
	pl.Close()
	pl.Close()
}

// BenchmarkParallelForOverhead measures dispatch cost of the persistent
// pool across body sizes, from pure overhead (n=1, which runs inline) to
// real work amortizing it (n=1e6).
func BenchmarkParallelForOverhead(b *testing.B) {
	sink := make([]uint64, 1<<20)
	for _, n := range []int{1, 100, 10_000, 1_000_000} {
		body := func(_ int, r Range) {
			for i := r.Start; i < r.End; i++ {
				sink[i]++
			}
		}
		p := DefaultProcs()
		b.Run(fmt.Sprintf("pool/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				For(n, p, body)
			}
		})
	}
}
