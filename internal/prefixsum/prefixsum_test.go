package prefixsum

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestInclusiveSequential(t *testing.T) {
	xs := []uint32{3, 1, 7, 0, 4, 1, 6, 3}
	want := []uint32{3, 4, 11, 11, 15, 16, 22, 25}
	if got := InclusiveSequential(xs); !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestInclusivePaperFigure2 walks the exact example from the paper's
// Figure 2: the scan of a 16-element array over 4 chunks.
func TestInclusivePaperFigure2(t *testing.T) {
	in := []uint32{2, 1, 3, 2, 4, 1, 1, 2, 3, 3, 1, 4, 2, 2, 1, 3}
	want := append([]uint32(nil), in...)
	InclusiveSequential(want)
	got := append([]uint32(nil), in...)
	Inclusive(got, 4)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

func TestInclusiveMatchesSequentialAcrossP(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 2, 3, 7, 64, 1000, 4096, 12345} {
		base := make([]uint64, n)
		for i := range base {
			base[i] = uint64(rng.Intn(100))
		}
		want := append([]uint64(nil), base...)
		InclusiveSequential(want)
		for _, p := range []int{1, 2, 3, 4, 7, 16, 64, 128} {
			got := append([]uint64(nil), base...)
			Inclusive(got, p)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d p=%d: parallel scan diverges from sequential", n, p)
			}
		}
	}
}

// Property: Algorithm 1 at a random processor count agrees with the
// sequential reference.
func TestQuickAllScansAgree(t *testing.T) {
	f := func(xs []uint16, p uint8) bool {
		a := make([]uint64, len(xs))
		b := make([]uint64, len(xs))
		for i, x := range xs {
			a[i] = uint64(x)
			b[i] = uint64(x)
		}
		InclusiveSequential(a)
		Inclusive(b, int(p))
		return reflect.DeepEqual(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestExclusive(t *testing.T) {
	for _, p := range []int{1, 2, 5} {
		xs := []uint32{3, 1, 7, 0, 4}
		out, total := Exclusive(xs, p)
		want := []uint32{0, 3, 4, 11, 11}
		if !reflect.DeepEqual(out, want) {
			t.Fatalf("p=%d: got %v, want %v", p, out, want)
		}
		if total != 15 {
			t.Fatalf("p=%d: total = %d, want 15", p, total)
		}
	}
}

func TestExclusiveEmpty(t *testing.T) {
	out, total := Exclusive([]uint32{}, 4)
	if len(out) != 0 || total != 0 {
		t.Fatalf("got %v, %d", out, total)
	}
}

func TestOffsets(t *testing.T) {
	deg := []uint32{1, 2, 1, 2, 1, 1, 1, 2, 2, 1} // the paper's Table I graph (upper triangle)
	for _, p := range []int{1, 3, 4} {
		got := Offsets(deg, p)
		want := []uint32{0, 1, 3, 4, 6, 7, 8, 9, 11, 13, 14}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("p=%d: Offsets = %v, want %v", p, got, want)
		}
	}
	// Input must be unmodified.
	if !reflect.DeepEqual(deg, []uint32{1, 2, 1, 2, 1, 1, 1, 2, 2, 1}) {
		t.Fatal("Offsets mutated its input")
	}
}

// Property: for arbitrary signed inputs and processor counts, Algorithm 1
// agrees with the sequential scan.
func TestQuickParallelEqualsSequential(t *testing.T) {
	f := func(xs []int16, p uint8) bool {
		a := make([]int64, len(xs))
		b := make([]int64, len(xs))
		for i, x := range xs {
			a[i] = int64(x)
			b[i] = int64(x)
		}
		InclusiveSequential(a)
		Inclusive(b, int(p))
		return reflect.DeepEqual(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Offsets is monotone non-decreasing, starts at 0 and ends at the
// input total.
func TestQuickOffsetsInvariants(t *testing.T) {
	f := func(deg []uint8, p uint8) bool {
		d := make([]uint64, len(deg))
		var total uint64
		for i, x := range deg {
			d[i] = uint64(x)
			total += uint64(x)
		}
		off := Offsets(d, int(p))
		if off[0] != 0 || off[len(off)-1] != total {
			return false
		}
		for i := 1; i < len(off); i++ {
			if off[i] < off[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkInclusive(b *testing.B) {
	xs := make([]uint32, 1<<20)
	for i := range xs {
		xs[i] = uint32(i % 17)
	}
	for _, p := range []int{1, 4, 16} {
		b.Run(map[int]string{1: "p=1", 4: "p=4", 16: "p=16"}[p], func(b *testing.B) {
			buf := make([]uint32, len(xs))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, xs)
				Inclusive(buf, p)
			}
		})
	}
}
