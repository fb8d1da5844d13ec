// Package bitarray provides a dense, growable bit vector used as the storage
// substrate for the bit-packed CSR representation (Section III-A3 of the
// paper) and for per-frame activity masks in the time-evolving CSR.
//
// The array is backed by 64-bit words. Bits are addressed MSB-first within a
// logical stream: bit 0 is the first bit appended. Appending is amortized
// O(1) per word; random access is O(1).
package bitarray

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

const wordBits = 64

// Array is a growable vector of bits. The zero value is an empty array ready
// to use.
type Array struct {
	words []uint64
	n     int // number of valid bits
}

// New returns an Array with capacity for at least nbits bits.
func New(nbits int) *Array {
	if nbits < 0 {
		nbits = 0
	}
	return &Array{words: make([]uint64, 0, (nbits+wordBits-1)/wordBits)}
}

// FromBits builds an Array from a slice of booleans, mostly for tests.
func FromBits(bs []bool) *Array {
	a := New(len(bs))
	for _, b := range bs {
		a.AppendBit(b)
	}
	return a
}

// FromWords adopts a pre-filled word slice as an Array of nbits bits. The
// slice is taken over (not copied); it must hold exactly
// ceil(nbits/64) words and any bits past nbits in the final word must be
// zero — the invariant every other constructor maintains.
func FromWords(words []uint64, nbits int) *Array {
	a, err := View(words, nbits)
	if err != nil {
		panic(err.Error())
	}
	return a
}

// View wraps an externally owned word slice — typically a []uint64
// reinterpretation of a memory-mapped file section — as an Array of nbits
// bits without copying. It enforces the same shape invariants as FromWords
// (exact word count, clean tail bits) but reports violations as errors,
// since mapped input is untrusted file content rather than a programming
// mistake. The Array aliases words for its whole lifetime: the caller must
// keep the backing memory mapped, and when the mapping is read-only only
// the read-side methods (Bit, Uint, UintWindow, the unpack kernels) may be
// used — a SetBit or append would fault or silently detach from the file.
func View(words []uint64, nbits int) (*Array, error) {
	if nbits < 0 || len(words) != (nbits+wordBits-1)/wordBits {
		return nil, fmt.Errorf("bitarray: %d words for %d bits", len(words), nbits)
	}
	if off := nbits % wordBits; off != 0 && len(words) > 0 {
		if words[len(words)-1]&(^uint64(0)>>off) != 0 {
			return nil, errors.New("bitarray: dirty bits past the declared length")
		}
	}
	return &Array{words: words, n: nbits}, nil
}

// Len returns the number of bits stored.
func (a *Array) Len() int { return a.n }

// Words returns the backing words. The final word's unused low bits are zero.
// The returned slice aliases the array; callers must not modify it.
func (a *Array) Words() []uint64 { return a.words }

// SizeBytes returns the storage footprint of the bit payload in bytes,
// rounded up to whole bytes.
func (a *Array) SizeBytes() int { return (a.n + 7) / 8 }

// AppendBit appends a single bit.
func (a *Array) AppendBit(b bool) {
	w, off := a.n/wordBits, a.n%wordBits
	if off == 0 {
		a.words = append(a.words, 0)
	}
	if b {
		a.words[w] |= 1 << (wordBits - 1 - off)
	}
	a.n++
}

// AppendBits appends the low `width` bits of v, most significant first.
// width must be in [0, 64].
func (a *Array) AppendBits(v uint64, width int) {
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("bitarray: width %d out of range", width))
	}
	if width == 0 {
		return
	}
	if width < 64 {
		v &= (1 << width) - 1
	}
	off := a.n % wordBits
	if off == 0 {
		a.words = append(a.words, 0)
	}
	w := len(a.words) - 1
	room := wordBits - off
	if width <= room {
		a.words[w] |= v << (room - width)
	} else {
		a.words[w] |= v >> (width - room)
		rest := width - room
		a.words = append(a.words, v<<(wordBits-rest))
	}
	a.n += width
}

// Bit reports the bit at position i.
func (a *Array) Bit(i int) bool {
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("bitarray: index %d out of range [0,%d)", i, a.n))
	}
	return a.words[i/wordBits]&(1<<(wordBits-1-i%wordBits)) != 0
}

// SetBit sets the bit at position i to b.
func (a *Array) SetBit(i int, b bool) {
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("bitarray: index %d out of range [0,%d)", i, a.n))
	}
	mask := uint64(1) << (wordBits - 1 - i%wordBits)
	if b {
		a.words[i/wordBits] |= mask
	} else {
		a.words[i/wordBits] &^= mask
	}
}

// Uint reads `width` bits starting at bit position pos, MSB-first, and
// returns them as the low bits of a uint64. width must be in [0, 64] and the
// range [pos, pos+width) must be within the array.
//
//csr:hotpath
func (a *Array) Uint(pos, width int) uint64 {
	if width == 0 {
		return 0
	}
	if width < 0 || width > 64 {
		panic(fmt.Sprintf("bitarray: width %d out of range", width))
	}
	if pos < 0 || pos+width > a.n {
		panic(fmt.Sprintf("bitarray: range [%d,%d) out of bounds [0,%d)", pos, pos+width, a.n))
	}
	w, off := pos/wordBits, pos%wordBits
	room := wordBits - off
	if width <= room {
		return (a.words[w] >> (room - width)) & maskFor(width)
	}
	hi := a.words[w] & maskFor(room)
	rest := width - room
	lo := a.words[w+1] >> (wordBits - rest)
	return hi<<rest | lo
}

// UintWindow reads the width-bit value (width in [1,32]) at bit pos
// straight from the two-word window that holds it: always
// w[k]<<off | w[k+1]>>(64-off), with no test for whether the value
// straddles a word boundary, which at a width not dividing 64 is a coin
// flip the branch predictor loses. The second index is clamped to the last
// word by a sign mask rather than a branch, so a value ending in the final
// word never reads past the array — mapped views may end on the last
// readable page. Like Uint without its checks it is an internal fast path
// for checked callers: [pos, pos+width) must lie inside the array.
//
//csr:hotpath
func (a *Array) UintWindow(pos, width int) uint32 {
	return uint32(a.window(pos) >> ((wordBits - width) & 63))
}

// UintPair reads the two consecutive width-bit values starting at bit pos
// (width in [1,32], so the pair spans at most 64 bits) from one window —
// a CSR row's [start, end) offsets, where two UintWindow calls would split
// the position twice. [pos, pos+2*width) must lie inside the array.
//
//csr:hotpath
func (a *Array) UintPair(pos, width int) (first, second uint32) {
	x, sh := a.window(pos), uint(wordBits-width)&63
	return uint32(x >> sh), uint32(x << (width & 63) >> sh)
}

// window returns the 64 bits starting at bit pos. The low word's index is
// k+1 clamped to the last word: (last-k-1)>>63 is -1 exactly when k is the
// last word, an arithmetic select (the compiler emits a branch for min or
// an if here). In the last word the low half therefore re-reads that word,
// so bits past the end of the array are garbage, never a fault; callers
// keep only bits inside it. The low word is pre-shifted by one and then by
// 63-off, so off == 0 shifts it out entirely instead of shifting by 64.
//
//csr:hotpath
func (a *Array) window(pos int) uint64 {
	w := a.words
	k, off := pos>>6, uint(pos&63)
	next := k + 1 + (len(w)-2-k)>>63
	return w[k]<<off | (w[next]>>1)>>((63-off)&63)
}

func maskFor(width int) uint64 {
	if width >= 64 {
		return ^uint64(0)
	}
	return (1 << width) - 1
}

// AppendArray appends all bits of other onto a.
func (a *Array) AppendArray(other *Array) {
	// Fast path: if a ends on a word boundary the words can be bulk copied.
	if a.n%wordBits == 0 {
		a.words = append(a.words, other.words...)
		a.n += other.n
		return
	}
	rem := other.n
	for i := 0; rem > 0; i++ {
		take := wordBits
		if take > rem {
			take = rem
		}
		a.AppendBits(other.words[i]>>(wordBits-take), take)
		rem -= take
	}
}

// PopCount returns the number of set bits.
func (a *Array) PopCount() int {
	c := 0
	for _, w := range a.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Truncate shortens the array to n bits, zeroing the discarded tail so that
// future appends see clean words. It panics if n exceeds the current length.
func (a *Array) Truncate(n int) {
	if n < 0 || n > a.n {
		panic(fmt.Sprintf("bitarray: truncate to %d out of range [0,%d]", n, a.n))
	}
	a.n = n
	nw := (n + wordBits - 1) / wordBits
	a.words = a.words[:nw]
	if off := n % wordBits; off != 0 && nw > 0 {
		a.words[nw-1] &= ^uint64(0) << (wordBits - off)
	}
}

// Reset empties the array, retaining capacity.
func (a *Array) Reset() {
	a.words = a.words[:0]
	a.n = 0
}

// Clone returns a deep copy.
func (a *Array) Clone() *Array {
	w := make([]uint64, len(a.words))
	copy(w, a.words)
	return &Array{words: w, n: a.n}
}

// Equal reports whether a and b hold the same bit sequence.
func (a *Array) Equal(b *Array) bool {
	if a.n != b.n {
		return false
	}
	for i := range a.words {
		if a.words[i] != b.words[i] {
			return false
		}
	}
	return true
}

// String renders the bits as a 0/1 string, capped for debugging.
func (a *Array) String() string {
	const cap = 256
	n := a.n
	suffix := ""
	if n > cap {
		n, suffix = cap, "..."
	}
	buf := make([]byte, 0, n+len(suffix))
	for i := 0; i < n; i++ {
		if a.Bit(i) {
			buf = append(buf, '1')
		} else {
			buf = append(buf, '0')
		}
	}
	return string(buf) + suffix
}

const marshalMagic = "BARR"

// MarshalBinary encodes the array as magic, bit length, and payload words.
func (a *Array) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 4+8+8*len(a.words))
	buf = append(buf, marshalMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(a.n))
	for _, w := range a.words {
		buf = binary.LittleEndian.AppendUint64(buf, w)
	}
	return buf, nil
}

// UnmarshalBinary decodes data written by MarshalBinary.
func (a *Array) UnmarshalBinary(data []byte) error {
	if len(data) < 12 || string(data[:4]) != marshalMagic {
		return errors.New("bitarray: bad header")
	}
	// The length is untrusted file content: reject anything that could not
	// have been written (negative after the int cast, or larger than the
	// payload bytes actually present can back) before sizing allocations.
	n64 := binary.LittleEndian.Uint64(data[4:12])
	if n64 > uint64(len(data)-12)*8 {
		return fmt.Errorf("bitarray: header claims %d bits, only %d payload bytes", n64, len(data)-12)
	}
	n := int(n64)
	nw := (n + wordBits - 1) / wordBits
	if len(data) != 12+8*nw {
		return fmt.Errorf("bitarray: payload length %d, want %d", len(data)-12, 8*nw)
	}
	words := make([]uint64, nw)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(data[12+8*i:])
	}
	a.words, a.n = words, n
	return nil
}
