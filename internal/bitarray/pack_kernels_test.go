package bitarray

import (
	"fmt"
	"testing"
)

// TestPackUintsMatchesAppendBits checks the pack kernels against the
// value-by-value AppendBits reference for every width and every length
// from empty through three periods and a tail, with junk above the width
// in every value (only the low bits may land) and sentinel words past the
// output (nothing beyond the last needed word may be written).
func TestPackUintsMatchesAppendBits(t *testing.T) {
	const sentinel = 0xdeadbeefcafef00d
	for width := 1; width <= 32; width++ {
		per := periodOf(width)
		seed := uint64(width)*0x9e3779b97f4a7c15 + 7
		for n := 0; n <= 3*per+5; n++ {
			vals := make([]uint32, n)
			want := New(n * width)
			for i := range vals {
				vals[i] = uint32(xorshift64(&seed))
				want.AppendBits(uint64(vals[i]), width)
			}
			need := (n*width + 63) / 64
			dst := make([]uint64, need+2)
			for i := range dst {
				dst[i] = sentinel
			}
			PackUints(dst, vals, width)
			if dst[need] != sentinel || dst[need+1] != sentinel {
				t.Fatalf("width=%d n=%d: wrote past the %d words needed", width, n, need)
			}
			if got := FromWords(dst[:need], n*width); !got.Equal(want) {
				t.Fatalf("width=%d n=%d: packed bits differ from AppendBits", width, n)
			}
		}
	}
}

func TestPackUintsPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"width 0":   func() { PackUints(make([]uint64, 1), []uint32{1}, 0) },
		"width 33":  func() { PackUints(make([]uint64, 1), []uint32{1}, 33) },
		"short dst": func() { PackUints(make([]uint64, 1), make([]uint32, 5), 13) },
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

// BenchmarkPackWidths is BenchmarkUnpackWidths' twin on the write side:
// every width over 4096 values against the AppendBits reference, then the
// row-length axis at widths 18 and 21 (64 runs per iteration, ns per packed
// value).
func BenchmarkPackWidths(b *testing.B) {
	const count = 4096
	vals := make([]uint32, count)
	seed := uint64(99)
	for width := 1; width <= 32; width++ {
		for i := range vals {
			vals[i] = uint32(xorshift64(&seed)) >> (32 - width)
		}
		dst := make([]uint64, count*width/64)
		b.Run(fmt.Sprintf("kernel/w=%d", width), func(b *testing.B) {
			b.SetBytes(int64(width * count / 8))
			for i := 0; i < b.N; i++ {
				PackUints(dst, vals, width)
			}
		})
		b.Run(fmt.Sprintf("appendbits/w=%d", width), func(b *testing.B) {
			b.SetBytes(int64(width * count / 8))
			a := New(count * width)
			for i := 0; i < b.N; i++ {
				a.Reset()
				for _, v := range vals {
					a.AppendBits(uint64(v), width)
				}
			}
		})
	}
	const rows = 64
	for _, width := range []int{18, 21} {
		for i := range vals {
			vals[i] = uint32(xorshift64(&seed)) >> (32 - width)
		}
		for _, length := range []int{7, 31, 32, 100, 1000} {
			dst := make([]uint64, (length*width+63)/64)
			b.Run(fmt.Sprintf("rows/w=%d/len=%d", width, length), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for r := 0; r < rows; r++ {
						PackUints(dst, vals[r*48:r*48+length], width)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows*length), "ns/value")
			})
		}
	}
}
