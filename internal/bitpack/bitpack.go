// Package bitpack implements the integer bit-packing compression the paper
// applies to both CSR arrays (Section III-A3, Algorithm 4, citing the
// authors' earlier ALLDATA'21 scheme): every value in an array is stored at
// the same fixed bit width w = ceil(log2(max+1)), giving random access to
// element i at bit offset i*w — the property the parallel querying
// algorithms of Section V rely on (their `numBits` parameter is this width).
//
// Algorithm 4 parallelizes the encoding: the value array is split into p
// chunks, each processor packs its chunk into a private bit array, and the
// per-chunk bit arrays are concatenated. Because the width is global, the
// concatenation is bit-identical to a sequential pack — and because the
// width is global every chunk's final bit offset is known up front, so Pack
// cuts the chunks on word boundaries and writes them in place instead.
//
// The package also provides byte-aligned varint and Elias-gamma codecs used
// as ablation baselines (they compress skewed data better but forfeit O(1)
// random access).
package bitpack

import (
	"fmt"
	"math/bits"

	"csrgraph/internal/bitarray"
	"csrgraph/internal/parallel"
)

// WidthFor returns the number of bits needed to store max: at least 1, so
// that an all-zero array still advances positions.
func WidthFor(max uint32) int {
	if max == 0 {
		return 1
	}
	return bits.Len32(max)
}

// MaxValue returns the largest element of vals computed with p processors,
// or 0 for an empty slice.
func MaxValue(vals []uint32, p int) uint32 {
	chunks := parallel.Chunks(len(vals), p)
	if len(chunks) == 0 {
		return 0
	}
	maxes := make([]uint32, len(chunks))
	parallel.For(len(vals), len(chunks), func(c int, r parallel.Range) {
		var m uint32
		for _, v := range vals[r.Start:r.End] {
			if v > m {
				m = v
			}
		}
		maxes[c] = m
	})
	var m uint32
	for _, v := range maxes {
		if v > m {
			m = v
		}
	}
	return m
}

// Packed is a fixed-width bit-packed array of uint32 values.
type Packed struct {
	width int
	n     int
	bits  *bitarray.Array
}

// View wraps an externally owned word slice — a mapped container section —
// as a Packed array of n width-bit values without copying. The words are
// untrusted file content, so every shape violation (width outside [1,32],
// negative or oversized n, wrong word count, dirty tail bits) is an error,
// not a panic. The returned Packed aliases words; see bitarray.View for the
// lifetime and read-only rules.
func View(width, n int, words []uint64) (*Packed, error) {
	const maxLen = 1 << 56 // keeps width*n overflow-free
	if width < 1 || width > 32 || n < 0 || n > maxLen {
		return nil, fmt.Errorf("bitpack: implausible view width=%d n=%d", width, n)
	}
	bits, err := bitarray.View(words, width*n)
	if err != nil {
		return nil, err
	}
	return &Packed{width: width, n: n, bits: bits}, nil
}

// Pack encodes vals using p processors per Algorithm 4: compute the global
// width, then pack chunks independently. Chunks are cut at multiples of 64
// values — 64 values of any width fill a whole number of words — so every
// chunk starts on a word boundary of the shared output and its processor
// packs it straight into its final place (bitarray.PackUints) without
// touching another's words. This stands in for the paper's per-chunk bit
// arrays and serial merge, bit for bit; the tests keep that formulation as
// the reference.
func Pack(vals []uint32, p int) *Packed {
	width := WidthFor(MaxValue(vals, p))
	words := make([]uint64, (len(vals)*width+63)/64)
	parallel.For((len(vals)+63)/64, p, func(_ int, r parallel.Range) {
		lo, hi := r.Start*64, min(r.End*64, len(vals))
		bitarray.PackUints(words[r.Start*width:], vals[lo:hi], width)
	})
	return &Packed{width: width, n: len(vals), bits: bitarray.FromWords(words, len(vals)*width)}
}

// PackSequential encodes vals value by value on one processor; the
// reference for Pack.
func PackSequential(vals []uint32) *Packed {
	width := WidthFor(MaxValue(vals, 1))
	a := bitarray.New(len(vals) * width)
	for _, v := range vals {
		a.AppendBits(uint64(v), width)
	}
	return &Packed{width: width, n: len(vals), bits: a}
}

// Len returns the number of packed values.
func (pk *Packed) Len() int { return pk.n }

// Width returns the per-value bit width (the paper's numBits).
func (pk *Packed) Width() int { return pk.width }

// Bits exposes the underlying bit array (read-only by convention).
func (pk *Packed) Bits() *bitarray.Array { return pk.bits }

// SizeBytes returns the payload footprint in bytes.
func (pk *Packed) SizeBytes() int64 { return int64(pk.bits.SizeBytes()) }

// Get returns element i: one two-word window read (bitarray.UintWindow),
// with no branch on whether the value straddles a word boundary.
//
//csr:hotpath
func (pk *Packed) Get(i int) uint32 {
	if i < 0 || i >= pk.n {
		panic(fmt.Sprintf("bitpack: index %d out of range [0,%d)", i, pk.n))
	}
	return pk.bits.UintWindow(i*pk.width, pk.width)
}

// Pair returns elements i and i+1 from one bounds check and one two-value
// read (bitarray.UintPair) — a CSR row's [start, end) offsets are exactly
// such a pair, and two Gets would compute the position and check the
// bounds twice.
//
//csr:hotpath
func (pk *Packed) Pair(i int) (uint32, uint32) {
	if i < 0 || i+1 >= pk.n {
		panic(fmt.Sprintf("bitpack: pair [%d,%d] out of range [0,%d)", i, i+1, pk.n))
	}
	return pk.bits.UintPair(i*pk.width, pk.width)
}

// LowerBound returns the smallest index i in [lo, hi) with Get(i) >= v, or
// hi when every element is below v. The elements in [lo, hi) must be
// sorted ascending. Each probe is a single packed random access, so a
// sorted run — a CSR neighbor row — is searched without decoding it: the
// zero-decode primitive behind csr.Packed.SearchRow.
//
// The search is branch-free: each level compares the middle of [base,
// base+n) and advances base by the upper part's length under a sign mask
// (the compiler keeps an if-advance as a branch, a coin flip on a long
// row). The trip count depends only on hi-lo; an empty range reads nothing.
//
//csr:hotpath
func (pk *Packed) LowerBound(lo, hi int, v uint32) int {
	if lo < 0 || hi > pk.n || lo > hi {
		panic(fmt.Sprintf("bitpack: range [%d,%d) out of range [0,%d)", lo, hi, pk.n))
	}
	base, n := lo, hi-lo
	for n > 0 {
		half := n >> 1
		x := pk.bits.UintWindow((base+half)*pk.width, pk.width)
		base += (n - half) & int((int64(x)-int64(v))>>63) // n-half when x < v
		n = half
	}
	return base
}

// Slice decodes count elements starting at element start into dst, which is
// grown as needed, and returns it. This is the GetRowFromCSR primitive of
// ref [28]: a CSR row is exactly a contiguous run of packed values.
func (pk *Packed) Slice(dst []uint32, start, count int) []uint32 {
	if start < 0 || count < 0 || start+count > pk.n {
		panic(fmt.Sprintf("bitpack: slice [%d,%d) out of range [0,%d)", start, start+count, pk.n))
	}
	if cap(dst) < count {
		dst = make([]uint32, count)
	}
	dst = dst[:count]
	pk.bits.UnpackUints(dst, start*pk.width, pk.width, count)
	return dst
}

// Unpack decodes the whole array.
func (pk *Packed) Unpack() []uint32 {
	return pk.Slice(nil, 0, pk.n)
}

// Equal reports whether two packed arrays hold the same values at the same
// width.
func (pk *Packed) Equal(o *Packed) bool {
	return pk.width == o.width && pk.n == o.n && pk.bits.Equal(o.bits)
}
