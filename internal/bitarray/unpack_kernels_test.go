package bitarray

import (
	"fmt"
	"testing"
)

// xorshift64 is the deterministic filler used to build test arrays.
func xorshift64(s *uint64) uint64 {
	x := *s
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*s = x
	return x
}

func randomArray(nbits int, seed uint64) *Array {
	a := New(nbits)
	for a.Len() < nbits {
		take := nbits - a.Len()
		if take > 64 {
			take = 64
		}
		a.AppendBits(xorshift64(&seed)>>(64-take), take)
	}
	return a
}

// periodOf returns the number of values after which width's packed layout
// repeats: 64/gcd(width,64).
func periodOf(width int) int {
	return 64 / (width & -width) // the largest power of two dividing width is the gcd
}

// checkUnpack asserts the dispatched kernel, the generic reference loop,
// and per-value Uint reads all agree on one (pos, width, count) triple. dst
// is sized exactly, so a kernel writing past count faults the slice bound.
func checkUnpack(t *testing.T, a *Array, pos, width, count int) {
	t.Helper()
	got := make([]uint32, count)
	a.UnpackUints(got, pos, width, count)
	ref := make([]uint32, count)
	unpackGeneric(ref, a.Words(), pos, width, count)
	for i := 0; i < count; i++ {
		want := uint32(a.Uint(pos+i*width, width))
		if ref[i] != want {
			t.Fatalf("width=%d pos=%d count=%d: unpackGeneric[%d] = %d, Uint = %d", width, pos, count, i, ref[i], want)
		}
		if got[i] != want {
			t.Fatalf("width=%d pos=%d count=%d: kernel[%d] = %d, want %d", width, pos, count, i, got[i], want)
		}
	}
}

// heapAndMapped returns a random array and a View of the same bits over a
// read-only mapping, the two backings every kernel must serve.
func heapAndMapped(t testing.TB, nbits int, seed uint64) []*Array {
	t.Helper()
	heap := randomArray(nbits, seed)
	mapped, err := View(readOnlyWords(t, heap.Words()), nbits)
	if err != nil {
		t.Fatal(err)
	}
	return []*Array{heap, mapped}
}

// TestUnpackKernelsMatchGeneric sweeps every width over every start index
// modulo its period (the CSR hot path: element-aligned, every head length)
// with counts that put zero, one, two and many whole blocks between head
// and tail, and over bit-unaligned starts (which force the rolling loop or
// the whole-word kernels' fallback), on heap words and on a read-only
// mapping.
func TestUnpackKernelsMatchGeneric(t *testing.T) {
	for width := 1; width <= 32; width++ {
		per := periodOf(width)
		counts := []int{0, 1, 2, 3, 7, per - 1, per, per + 1, 2*per - 1, 2*per + 1, 5*per + 3}
		nbits := width*(7*per+3) + 65
		for _, a := range heapAndMapped(t, nbits, uint64(width)*0x9e3779b97f4a7c15+1) {
			for start := 0; start <= per; start++ {
				for _, count := range counts {
					checkUnpack(t, a, start*width, width, count)
				}
			}
			for _, pos := range []int{1, 2, 3, 5, 7, 17, 63, 64, 65, 100, 255} {
				for _, count := range counts {
					if pos+count*width <= a.Len() {
						checkUnpack(t, a, pos, width, count)
					}
				}
			}
		}
	}
}

// TestBlockKernelTable pins the generated period table against its
// definition: the block length, and that head lands every reachable start
// on a word boundary in fewer than one period of values.
func TestBlockKernelTable(t *testing.T) {
	for width := 1; width <= 32; width++ {
		bk := unpackKernels[width]
		if 64%width == 0 {
			if bk.unpack != nil || bk.vals != 0 {
				t.Errorf("width %d divides 64 and must not have a block kernel", width)
			}
			continue
		}
		per := periodOf(width)
		if bk.unpack == nil || int(bk.vals) != per || 64>>bk.shift != per {
			t.Fatalf("width %d: table says %d values per block (shift %d), want %d", width, bk.vals, bk.shift, per)
		}
		g := 64 / per
		for pos := 0; pos < 64*width; pos += g {
			head := int(-(uint(pos) >> bk.shift) * uint(bk.inv) & uint(per-1))
			if (pos+head*width)%64 != 0 {
				t.Fatalf("width %d pos %d: head %d does not reach a word boundary", width, pos, head)
			}
		}
	}
}

// TestUnpackKernelTableComplete pins the dispatch invariant UnpackUints
// relies on: a kernel for every legal width.
func TestUnpackKernelTableComplete(t *testing.T) {
	if unpackKernels[0].roll != nil {
		t.Error("width 0 must not have a kernel")
	}
	for w := 1; w <= 32; w++ {
		if unpackKernels[w].roll == nil {
			t.Errorf("no kernel for width %d", w)
		}
	}
}

// FuzzUnpackKernels differentially fuzzes the dispatched kernels against
// unpackGeneric and per-value Uint reads over random widths, positions,
// and counts, on heap words and on a read-only mapping. Even positions are
// snapped to a value boundary, so half the inputs take the CSR path (every
// head length of every width) and half an arbitrary bit offset.
func FuzzUnpackKernels(f *testing.F) {
	f.Add(uint64(1), 5, 0, 10)
	f.Add(uint64(42), 32, 32, 3)
	f.Add(uint64(7), 1, 63, 130)
	f.Add(uint64(9), 17, 3, 64)
	f.Add(uint64(11), 8, 8, 9)
	for _, width := range []int{18, 21, 24} {
		per := periodOf(width)
		for i, count := range []int{per - 1, per, per + 1, 2*per - 1, 2*per + 1, 5 * per} {
			f.Add(uint64(13+i), width-1, 2*width*(i*7+1), count)
		}
	}
	f.Fuzz(func(t *testing.T, seed uint64, width, pos, count int) {
		width = 1 + abs(width)%32
		count = abs(count) % 4096
		const nbits = 4096*32 + 64
		pos = abs(pos) % (nbits - width*count + 1)
		if pos&1 == 0 {
			pos -= pos % width
		}
		for _, a := range heapAndMapped(t, nbits, seed|1) {
			checkUnpack(t, a, pos, width, count)
		}
	})
}

func abs(x int) int {
	if x < 0 {
		if x == -x { // math.MinInt
			return 0
		}
		return -x
	}
	return x
}

// BenchmarkUnpackWidths sweeps the kernel table over every width with
// element-aligned starts, both on a word boundary ("aligned") and mid-word
// ("straddle"), against the generic reference loop. b.SetBytes reports
// decoded payload bits as bytes so ns/op converts to decode bandwidth.
//
// The rows/ family is the row-length axis at the two widths the benchmark
// graphs pack to (18 and 21 bits): 7- and 31-value rows take the short-row
// bypass, 32 is the first length a width-18 block fits, 100 and 1000 are
// head + blocks + tail. Each iteration decodes 64 rows spread over the
// array, all starting on a period boundary ("aligned") or 13 values past
// one ("mid"), and reports ns per decoded value.
func BenchmarkUnpackWidths(b *testing.B) {
	const count = 4096
	dst := make([]uint32, count)
	for width := 1; width <= 32; width++ {
		a := randomArray(width*(count+128)+64, uint64(width)+3)
		// "aligned": bit 0, a word boundary. "straddle": element 1, which
		// for widths not dividing 64 leaves values straddling word
		// boundaries throughout (and for dividing widths exercises the
		// head/tail paths).
		starts := []struct {
			name string
			pos  int
		}{{"aligned", 0}, {"straddle", width}}
		for _, s := range starts {
			b.Run(fmt.Sprintf("kernel/w=%d/%s", width, s.name), func(b *testing.B) {
				b.SetBytes(int64(width * count / 8))
				for i := 0; i < b.N; i++ {
					a.UnpackUints(dst, s.pos, width, count)
				}
			})
			b.Run(fmt.Sprintf("generic/w=%d/%s", width, s.name), func(b *testing.B) {
				b.SetBytes(int64(width * count / 8))
				for i := 0; i < b.N; i++ {
					unpackGeneric(dst, a.Words(), s.pos, width, count)
				}
			})
		}
	}
	const rows = 64
	for _, width := range []int{18, 21} {
		for _, length := range []int{7, 31, 32, 100, 1000} {
			stride := (length/64 + 2) * 64 // values between row starts, a multiple of every period
			a := randomArray(width*(rows*stride+64), uint64(width)+5)
			for _, s := range []struct {
				name string
				skew int
			}{{"aligned", 0}, {"mid", 13}} {
				b.Run(fmt.Sprintf("rows/w=%d/len=%d/%s", width, length, s.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						for r := 0; r < rows; r++ {
							a.UnpackUints(dst, (r*stride+s.skew)*width, width, length)
						}
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows*length), "ns/value")
				})
			}
		}
	}
}
