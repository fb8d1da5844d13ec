package parallel

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestChunksBalanced(t *testing.T) {
	cases := []struct {
		n, p  int
		sizes []int
	}{
		{10, 3, []int{4, 3, 3}},
		{9, 3, []int{3, 3, 3}},
		{2, 4, []int{1, 1}},
		{0, 4, nil},
		{5, 1, []int{5}},
		{7, 0, []int{7}}, // p<=0 treated as 1
	}
	for _, c := range cases {
		got := Chunks(c.n, c.p)
		if len(got) != len(c.sizes) {
			t.Fatalf("Chunks(%d,%d) = %v, want sizes %v", c.n, c.p, got, c.sizes)
		}
		prev := 0
		for i, r := range got {
			if r.Start != prev {
				t.Errorf("Chunks(%d,%d)[%d] start = %d, want %d", c.n, c.p, i, r.Start, prev)
			}
			if r.Len() != c.sizes[i] {
				t.Errorf("Chunks(%d,%d)[%d] len = %d, want %d", c.n, c.p, i, r.Len(), c.sizes[i])
			}
			prev = r.End
		}
		if prev != c.n {
			t.Errorf("Chunks(%d,%d) covers [0,%d), want [0,%d)", c.n, c.p, prev, c.n)
		}
	}
}

// Property: chunks always tile [0, n) exactly, with sizes differing by at
// most one.
func TestQuickChunksTile(t *testing.T) {
	f := func(n uint16, p uint8) bool {
		chunks := Chunks(int(n), int(p))
		prev, min, max := 0, int(n)+1, -1
		for _, r := range chunks {
			if r.Start != prev || r.Empty() {
				return false
			}
			prev = r.End
			if r.Len() < min {
				min = r.Len()
			}
			if r.Len() > max {
				max = r.Len()
			}
		}
		if prev != int(n) {
			return false
		}
		return len(chunks) == 0 || max-min <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestForCoversAllIndices(t *testing.T) {
	for _, p := range []int{1, 2, 3, 8, 100} {
		n := 1000
		seen := make([]int32, n)
		For(n, p, func(_ int, r Range) {
			for i := r.Start; i < r.End; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("p=%d index %d visited %d times", p, i, c)
			}
		}
	}
}

func TestForEach(t *testing.T) {
	var sum atomic.Int64
	ForEach(100, 4, func(i int) { sum.Add(int64(i)) })
	if sum.Load() != 4950 {
		t.Fatalf("sum = %d, want 4950", sum.Load())
	}
}

// TestForInlineNoAlloc: the inline path (p <= 1 or n <= 1) calls body
// once with the whole range and allocates nothing.
func TestForInlineNoAlloc(t *testing.T) {
	noop := func(int, Range) {}
	for _, c := range []struct{ n, p int }{{1000, 1}, {1, 4}} {
		if got := testing.AllocsPerRun(100, func() { For(c.n, c.p, noop) }); got != 0 {
			t.Errorf("For(%d, %d, noop) allocs = %v, want 0", c.n, c.p, got)
		}
	}
}

func TestChunksNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for negative n")
		}
	}()
	Chunks(-1, 2)
}
