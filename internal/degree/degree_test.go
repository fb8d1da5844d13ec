package degree

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"csrgraph/internal/edgelist"
)

func sortedRandomList(n int, maxNode uint32, seed int64) edgelist.List {
	rng := rand.New(rand.NewSource(seed))
	l := make(edgelist.List, n)
	for i := range l {
		l[i] = edgelist.Edge{U: rng.Uint32() % maxNode, V: rng.Uint32() % maxNode}
	}
	l.SortByUV(1)
	return l
}

// TestParallelPaperFigure3 exercises the exact situation in Figure 3: chunk
// boundaries falling inside a node's run, including a node whose run spans an
// entire chunk.
func TestParallelPaperFigure3(t *testing.T) {
	// Sources: 0 0 1 | 1 2 2 | 3 4 5 | 5 5 5  (4 chunks of 3)
	srcs := []uint32{0, 0, 1, 1, 2, 2, 3, 4, 5, 5, 5, 5}
	l := make(edgelist.List, len(srcs))
	for i, u := range srcs {
		l[i] = edgelist.Edge{U: u, V: uint32(i)}
	}
	got := Parallel(l, 6, 4)
	want := []uint32{2, 2, 2, 1, 1, 4}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	for _, n := range []int{0, 1, 2, 10, 1000, 4097} {
		l := sortedRandomList(n, 50, int64(n))
		want := Sequential(l, 50)
		for _, p := range []int{1, 2, 3, 4, 7, 16, 64} {
			got := Parallel(l, 50, p)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d p=%d: parallel degree diverges", n, p)
			}
		}
	}
}

func TestParallelSingleNodeSpansAllChunks(t *testing.T) {
	l := make(edgelist.List, 100)
	for i := range l {
		l[i] = edgelist.Edge{U: 7, V: uint32(i)}
	}
	got := Parallel(l, 10, 8)
	if got[7] != 100 {
		t.Fatalf("deg[7] = %d, want 100", got[7])
	}
	for i, d := range got {
		if i != 7 && d != 0 {
			t.Fatalf("deg[%d] = %d, want 0", i, d)
		}
	}
}

func TestParallelUnsortedPanics(t *testing.T) {
	l := edgelist.List{{U: 5, V: 0}, {U: 1, V: 0}, {U: 0, V: 0}, {U: 2, V: 0}}
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for unsorted input")
		}
	}()
	Parallel(l, 6, 2)
}

// TestParallelUnsortedDestinationPanics: a list sorted by u but with a
// descending v inside one source's run is refused at every p, and the
// panic names the first such index; equal pairs are accepted.
func TestParallelUnsortedDestinationPanics(t *testing.T) {
	l := edgelist.List{{U: 0, V: 1}, {U: 1, V: 2}, {U: 1, V: 2}, {U: 1, V: 5}, {U: 1, V: 3}, {U: 2, V: 0}, {U: 3, V: 4}, {U: 3, V: 1}}
	for _, p := range []int{1, 2, 3, 4, 8} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "not sorted by (u, v) at index 4") {
					t.Fatalf("p=%d: panic %q, want one naming index 4", p, msg)
				}
			}()
			Parallel(l, 4, p)
		}()
	}
	if got := Parallel(l[:4], 4, 2); !reflect.DeepEqual(got, []uint32{1, 3, 0, 0}) {
		t.Fatalf("sorted list with a repeated pair: deg = %v", got)
	}
}

func TestMaxDegree(t *testing.T) {
	if MaxDegree(nil) != 0 {
		t.Fatal("MaxDegree(nil) != 0")
	}
	if MaxDegree([]uint32{1, 9, 3}) != 9 {
		t.Fatal("MaxDegree wrong")
	}
}

// Property: for arbitrary sorted lists and p, parallel equals sequential,
// and the sum of degrees equals the number of edges.
func TestQuickParallelDegree(t *testing.T) {
	f := func(srcs []uint8, p uint8) bool {
		l := make(edgelist.List, len(srcs))
		for i, u := range srcs {
			l[i] = edgelist.Edge{U: uint32(u), V: uint32(i)}
		}
		l.SortByUV(1)
		want := Sequential(l, 256)
		got := Parallel(l, 256, int(p))
		if !reflect.DeepEqual(got, want) {
			return false
		}
		var sum int
		for _, d := range got {
			sum += int(d)
		}
		return sum == len(l)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDegree(b *testing.B) {
	l := sortedRandomList(1<<20, 1<<17, 99)
	for name, p := range map[string]int{"p=1": 1, "p=4": 4, "p=16": 16} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Parallel(l, 1<<17, p)
			}
		})
	}
}
