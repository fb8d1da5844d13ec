// Overhead benchmarks — the gate behind the package's "a handful of
// nanoseconds" contract. state=off measures the disabled fast path every
// instrumented hot path pays unconditionally (one atomic load + branch);
// state=on measures an enabled record. Pair the two with
// `go run ./cmd/benchpair -key state -baseline off -new on ./internal/obs -test.bench .`.
package obs

import (
	"sync/atomic"
	"testing"
)

func benchStates(b *testing.B, body func(b *testing.B)) {
	for _, state := range []string{"off", "on"} {
		b.Run("state="+state, func(b *testing.B) {
			SetEnabled(state == "on")
			defer SetEnabled(false)
			body(b)
		})
	}
}

func BenchmarkObsCounter(b *testing.B) {
	var c Counter
	benchStates(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
}

func BenchmarkObsWorkerCounter(b *testing.B) {
	wc := NewWorkerCounter(8)
	benchStates(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			wc.Add(3, 1)
		}
	})
}

func BenchmarkObsHistogram(b *testing.B) {
	h := NewHistogram()
	benchStates(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.Observe(int64(i))
		}
	})
}

// BenchmarkObsStageTimer measures the Now/Tick pair a pipeline stage pays,
// including the clock reads the enabled path adds.
func BenchmarkObsStageTimer(b *testing.B) {
	h := NewHistogram()
	benchStates(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			start := Now()
			Tick(h, start)
		}
	})
}

// BenchmarkObsContendedWorkerCounter has GOMAXPROCS goroutines hammer
// distinct stripes — the per-worker layout the pool instrumentation relies
// on to avoid cache-line ping-pong.
func BenchmarkObsContendedWorkerCounter(b *testing.B) {
	wc := NewWorkerCounter(64)
	SetEnabled(true)
	defer SetEnabled(false)
	var id atomic.Int64
	b.RunParallel(func(pb *testing.PB) {
		w := int(id.Add(1) - 1)
		for pb.Next() {
			wc.Add(w, 1)
		}
	})
}
