package bitpack

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"csrgraph/internal/bitarray"
	"csrgraph/internal/parallel"
)

func randVals(n int, max uint32, seed int64) []uint32 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(uint64(rng.Uint32()) % (uint64(max) + 1))
	}
	return out
}

func TestWidthFor(t *testing.T) {
	cases := map[uint32]int{0: 1, 1: 1, 2: 2, 3: 2, 4: 3, 255: 8, 256: 9, 0xFFFFFFFF: 32}
	for max, want := range cases {
		if got := WidthFor(max); got != want {
			t.Errorf("WidthFor(%d) = %d, want %d", max, got, want)
		}
	}
}

func TestMaxValue(t *testing.T) {
	vals := []uint32{3, 99, 0, 42, 17}
	for _, p := range []int{1, 2, 3, 10} {
		if got := MaxValue(vals, p); got != 99 {
			t.Errorf("p=%d: MaxValue = %d, want 99", p, got)
		}
	}
	if MaxValue(nil, 4) != 0 {
		t.Error("MaxValue(nil) != 0")
	}
}

func TestPackGetRoundTrip(t *testing.T) {
	vals := randVals(1000, 1<<17, 5)
	pk := PackSequential(vals)
	for i, v := range vals {
		if got := pk.Get(i); got != v {
			t.Fatalf("Get(%d) = %d, want %d", i, got, v)
		}
	}
	if !reflect.DeepEqual(pk.Unpack(), vals) {
		t.Fatal("Unpack mismatch")
	}
}

func TestParallelPackMatchesSequential(t *testing.T) {
	vals := randVals(4097, 1<<20, 6)
	want := PackSequential(vals)
	for _, p := range []int{1, 2, 3, 4, 16, 64} {
		got := Pack(vals, p)
		if !got.Equal(want) {
			t.Fatalf("p=%d: parallel pack not bit-identical to sequential", p)
		}
	}
}

// packChunkMerge is Algorithm 4 as the paper states it, kept as the
// reference Pack is checked against: split the values into p chunks
// wherever they fall, pack each into a private bit array, and merge the
// per-chunk arrays serially from their global location.
func packChunkMerge(vals []uint32, p int) *Packed {
	width := WidthFor(MaxValue(vals, p))
	chunks := parallel.Chunks(len(vals), p)
	parts := make([]*bitarray.Array, len(chunks))
	parallel.For(len(vals), len(chunks), func(c int, r parallel.Range) {
		a := bitarray.New(r.Len() * width)
		for _, v := range vals[r.Start:r.End] {
			a.AppendBits(uint64(v), width)
		}
		parts[c] = a
	})
	merged := bitarray.New(len(vals) * width)
	for _, part := range parts {
		merged.AppendArray(part)
	}
	return &Packed{width: width, n: len(vals), bits: merged}
}

// TestPackMatchesSequential checks Pack bit for bit against the
// value-by-value reference and the paper's chunk merge, for every width,
// with lengths on both sides of the 64-value chunk cut and of each width's
// period, so every processor count leaves some chunk a whole number of
// blocks, some a partial one, and some empty.
func TestPackMatchesSequential(t *testing.T) {
	for width := 1; width <= 32; width++ {
		max := uint32(uint64(1)<<width - 1)
		for _, n := range []int{0, 1, 31, 63, 64, 65, 127, 128, 129, 191, 192, 193, 517, 1024} {
			vals := randVals(n, max, int64(width*1000+n))
			if n > 0 {
				vals[n/2] = max // pin the width
			}
			want := PackSequential(vals)
			if n > 0 && want.Width() != width {
				t.Fatalf("width %d: reference packed to %d", width, want.Width())
			}
			for _, p := range []int{1, 2, 3, 8} {
				if got := Pack(vals, p); !got.Equal(want) {
					t.Fatalf("width=%d n=%d p=%d: Pack not bit-identical to the sequential pack", width, n, p)
				}
				if got := packChunkMerge(vals, p); !got.Equal(want) {
					t.Fatalf("width=%d n=%d p=%d: chunk merge not bit-identical to the sequential pack", width, n, p)
				}
			}
		}
	}
}

// Property: Pack agrees with the paper's chunk merge for arbitrary input.
func TestQuickPackMatchesChunkMerge(t *testing.T) {
	f := func(vals []uint32, p uint8) bool {
		return Pack(vals, int(p)).Equal(packChunkMerge(vals, int(p)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPackEmptyAndZeros(t *testing.T) {
	pk := Pack(nil, 4)
	if pk.Len() != 0 || pk.Width() != 1 {
		t.Fatalf("empty pack: len=%d width=%d", pk.Len(), pk.Width())
	}
	zeros := make([]uint32, 100)
	pk = Pack(zeros, 4)
	if pk.Width() != 1 {
		t.Fatalf("zeros width = %d, want 1", pk.Width())
	}
	if !reflect.DeepEqual(pk.Unpack(), zeros) {
		t.Fatal("zeros round trip failed")
	}
}

func TestSlice(t *testing.T) {
	vals := randVals(500, 1000, 7)
	pk := Pack(vals, 3)
	got := pk.Slice(nil, 100, 50)
	if !reflect.DeepEqual(got, vals[100:150]) {
		t.Fatal("Slice mismatch")
	}
	// Reuse a destination buffer.
	buf := make([]uint32, 64)
	got = pk.Slice(buf, 0, 10)
	if len(got) != 10 || !reflect.DeepEqual(got, vals[:10]) {
		t.Fatal("Slice with dst mismatch")
	}
	if got := pk.Slice(nil, 500, 0); len(got) != 0 {
		t.Fatal("empty slice at end should work")
	}
}

// TestPairMatchesGet checks the two-value read against two Gets at every
// index of every width, the last pair included (its second value ends on
// the array's final bit).
func TestPairMatchesGet(t *testing.T) {
	for width := 1; width <= 32; width++ {
		max := uint32(uint64(1)<<width - 1)
		for _, n := range []int{2, 3, 64, 65, 203} {
			vals := randVals(n, max, int64(width*77+n))
			vals[0] = max
			pk := Pack(vals, 2)
			for i := 0; i+1 < n; i++ {
				a, b := pk.Pair(i)
				if a != pk.Get(i) || b != pk.Get(i+1) {
					t.Fatalf("width=%d n=%d: Pair(%d) = (%d,%d), want (%d,%d)", width, n, i, a, b, pk.Get(i), pk.Get(i+1))
				}
			}
		}
	}
}

func TestPackedBoundsPanics(t *testing.T) {
	pk := Pack([]uint32{1, 2, 3}, 1)
	for name, fn := range map[string]func(){
		"Get negative":   func() { pk.Get(-1) },
		"Get past end":   func() { pk.Get(3) },
		"Pair negative":  func() { pk.Pair(-1) },
		"Pair past end":  func() { pk.Pair(2) },
		"Slice past end": func() { pk.Slice(nil, 2, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestVarintRoundTrip(t *testing.T) {
	vals := randVals(1000, 0xFFFFFFFF, 9)
	got, err := DecodeVarint(EncodeVarint(vals))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, vals) {
		t.Fatal("varint round trip mismatch")
	}
	if out, err := DecodeVarint(nil); err != nil || len(out) != 0 {
		t.Fatal("empty varint stream should decode to empty")
	}
	if _, err := DecodeVarint([]byte{0x80}); err == nil {
		t.Fatal("want error for dangling continuation byte")
	}
}

func TestEliasGammaRoundTrip(t *testing.T) {
	vals := append(randVals(500, 100000, 10), 0, 1, 0xFFFFFFFE)
	a := EncodeEliasGamma(vals)
	got, err := DecodeEliasGamma(a, len(vals))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, vals) {
		t.Fatal("gamma round trip mismatch")
	}
	if _, err := DecodeEliasGamma(EncodeEliasGamma([]uint32{5}), 2); err == nil {
		t.Fatal("want truncation error")
	}
}

func TestDeltaTransformRoundTrip(t *testing.T) {
	vals := []uint32{3, 3, 7, 10, 100}
	orig := append([]uint32(nil), vals...)
	if err := DeltaTransform(vals); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vals, []uint32{3, 0, 4, 3, 90}) {
		t.Fatalf("deltas = %v", vals)
	}
	DeltaRestore(vals)
	if !reflect.DeepEqual(vals, orig) {
		t.Fatal("delta restore mismatch")
	}
	if err := DeltaTransform([]uint32{5, 4}); err == nil {
		t.Fatal("want error for decreasing input")
	}
}

// Property: pack/unpack identity for arbitrary values and processor counts.
func TestQuickPackIdentity(t *testing.T) {
	f := func(vals []uint32, p uint8) bool {
		pk := Pack(vals, int(p))
		got := pk.Unpack()
		if len(vals) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: all three codecs decode to the original values.
func TestQuickCodecsAgree(t *testing.T) {
	f := func(vals []uint32) bool {
		v1, err1 := DecodeVarint(EncodeVarint(vals))
		v2, err2 := DecodeEliasGamma(EncodeEliasGamma(vals), len(vals))
		if err1 != nil || err2 != nil {
			return false
		}
		if len(vals) == 0 {
			return len(v1) == 0 && len(v2) == 0
		}
		return reflect.DeepEqual(v1, vals) && reflect.DeepEqual(v2, vals)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPackAblation(b *testing.B) {
	vals := randVals(1<<18, 1<<20, 11)
	b.Run("fixedwidth", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Pack(vals, 1)
		}
	})
	b.Run("varint", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			EncodeVarint(vals)
		}
	})
	b.Run("gamma", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			EncodeEliasGamma(vals)
		}
	})
}

func BenchmarkSliceDecode(b *testing.B) {
	vals := randVals(1<<16, 1<<20, 77)
	pk := Pack(vals, 1)
	dst := make([]uint32, len(vals))
	b.Run("bulk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			pk.Slice(dst, 0, len(vals))
		}
	})
	b.Run("get-loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for j := range dst {
				dst[j] = pk.Get(j)
			}
		}
	})
}

// BenchmarkPackMergeVsDirect ablates Algorithm 4's per-chunk arrays and
// serial merge (the test reference) against Pack's word-aligned chunks
// written in place (DESIGN.md §5).
func BenchmarkPackMergeVsDirect(b *testing.B) {
	vals := randVals(1<<20, 1<<20, 78)
	for _, p := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("merge/p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				packChunkMerge(vals, p)
			}
		})
		b.Run(fmt.Sprintf("direct/p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Pack(vals, p)
			}
		})
	}
}

// TestLowerBoundDifferential checks the packed lower-bound search against
// sort.Search on the decoded values, including empty ranges, heads, tails,
// and out-of-range probes, for a spread of widths.
func TestLowerBoundDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, width := range []int{1, 2, 3, 7, 8, 13, 16, 24, 31, 32} {
		limit := uint64(1) << width
		vals := make([]uint32, 700)
		for i := range vals {
			vals[i] = uint32(rng.Uint64() % limit)
		}
		vals[rng.Intn(len(vals))] = uint32(limit - 1) // pin the width
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		pk := Pack(vals, 2)
		if pk.Width() != width {
			t.Fatalf("width %d: packed to %d", width, pk.Width())
		}
		bounds := [][2]int{{0, len(vals)}, {0, 0}, {len(vals), len(vals)}, {10, 400}, {399, 400}}
		for _, bd := range bounds {
			lo, hi := bd[0], bd[1]
			var probes []uint32
			for i := 0; i < 32; i++ {
				probes = append(probes, uint32(rng.Uint64()%limit))
			}
			if hi > lo {
				probes = append(probes, vals[lo], vals[hi-1])
			}
			probes = append(probes, 0, uint32(limit-1))
			for _, v := range probes {
				want := lo + sort.Search(hi-lo, func(i int) bool { return vals[lo+i] >= v })
				if got := pk.LowerBound(lo, hi, v); got != want {
					t.Fatalf("width %d: LowerBound([%d,%d), %d) = %d, want %d", width, lo, hi, v, got, want)
				}
			}
		}
	}
}

// benchWidths are the widths the random-access benchmarks run at: the two
// that divide 64 (a value never straddles a word) and two that do not
// (21 is the neighbor width of a scale-18..21 graph).
var benchWidths = []int{16, 18, 21, 32}

// benchPacked packs n sorted values spread over [0, 2^width), pinning the
// width.
func benchPacked(width, n int) *Packed {
	vals := make([]uint32, n)
	step := (uint64(1) << width) / uint64(n)
	for i := range vals {
		vals[i] = uint32(uint64(i) * step)
	}
	vals[n-1] = uint32(uint64(1)<<width - 1)
	return Pack(vals, 1)
}

// BenchmarkGet measures one random packed read (ns/op is per Get) at
// scattered indices, the access the existence search is made of.
func BenchmarkGet(b *testing.B) {
	const n = 1 << 20
	for _, width := range benchWidths {
		pk := benchPacked(width, n)
		b.Run(fmt.Sprintf("w=%d", width), func(b *testing.B) {
			var sink uint32
			idx := uint32(1)
			for i := 0; i < b.N; i++ {
				idx = idx*1664525 + 1013904223
				sink += pk.Get(int(idx % n))
			}
			_ = sink
		})
	}
}

// BenchmarkLowerBound measures one LowerBound over a 4096-value sorted run
// (a hub row) at a random place in the array, for a random probe value
// inside the run's range, half of them present: ns/op is per search.
func BenchmarkLowerBound(b *testing.B) {
	const n, row = 1 << 20, 4096
	for _, width := range benchWidths {
		pk := benchPacked(width, n)
		step := (uint64(1) << width) / n
		b.Run(fmt.Sprintf("w=%d", width), func(b *testing.B) {
			sink := 0
			x := uint64(7)
			for i := 0; i < b.N; i++ {
				x = x*6364136223846793005 + 1442695040888963407
				lo := int(x>>40) % (n - row)
				v := uint64(lo+int(x>>20)%row)*step + x>>63
				sink += pk.LowerBound(lo, lo+row, uint32(v))
			}
			_ = sink
		})
	}
}
