// Width-specialized bulk pack kernels — the write-side mirror of the unpack
// kernels (Algorithm 4's per-processor packing step). A run of values that
// starts on a word boundary is packed as whole periods of 64/gcd(W,64)
// values into W/gcd(W,64) words by a straight-line generated kernel
// (packBlocks<W> in pack_kernels_widths.go: every output word one
// expression of literal shifts, stored once), then a short rolling tail.
package bitarray

import "fmt"

// packKernel describes the period of one width W with g = gcd(W,64) and the
// kernel that packs whole periods.
type packKernel struct {
	shift uint8 // log2(g): a block holds 64>>shift values
	words uint8 // W/g words per block
	// pack encodes n blocks from src into the start of dst.
	pack func(dst []uint64, src []uint32, n int)
}

// PackUints packs the low width bits of every value of src (width in
// [1,32]), MSB-first from bit 0 of dst[0]. It writes the
// first ceil(len(src)*width/64) words of dst in full — unused low bits of
// the last one zero — and touches nothing past them, so callers that cut an
// array at multiples of 64 values can pack the pieces concurrently into one
// shared word slice.
//
//csr:hotpath
func PackUints(dst []uint64, src []uint32, width int) {
	if width < 1 || width > 32 {
		panic(fmt.Sprintf("bitarray: bulk width %d out of range [1,32]", width))
	}
	if need := (len(src)*width + 63) / 64; len(dst) < need {
		panic(fmt.Sprintf("bitarray: %d words for %d values of width %d, need %d", len(dst), len(src), width, need))
	}
	pk := &packKernels[width]
	n := len(src) >> (6 - pk.shift)
	pk.pack(dst, src, n)
	w := n * int(pk.words)
	mask := uint64(1)<<width - 1
	var acc uint64
	free := 64
	for _, v := range src[n<<(6-pk.shift):] {
		x := uint64(v) & mask
		if width < free {
			free -= width
			acc |= x << free
			continue
		}
		// The value fills the word (rest == 0) or straddles into the next.
		rest := width - free
		dst[w] = acc | x>>rest
		w++
		free = 64 - rest
		acc = x << free // rest == 0: x<<64 is 0 in Go
	}
	if free < 64 {
		dst[w] = acc
	}
}
