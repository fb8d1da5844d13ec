package bitarray

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAppendBitAndBit(t *testing.T) {
	a := New(0)
	pattern := []bool{true, false, true, true, false, false, true}
	for _, b := range pattern {
		a.AppendBit(b)
	}
	if a.Len() != len(pattern) {
		t.Fatalf("Len = %d, want %d", a.Len(), len(pattern))
	}
	for i, want := range pattern {
		if got := a.Bit(i); got != want {
			t.Errorf("Bit(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestAppendBitsCrossesWordBoundary(t *testing.T) {
	a := New(0)
	a.AppendBits(0, 60)          // fill most of word 0
	a.AppendBits(0b1011_0110, 8) // straddles words 0 and 1
	if got := a.Uint(60, 8); got != 0b1011_0110 {
		t.Fatalf("Uint(60,8) = %b, want 10110110", got)
	}
	if a.Len() != 68 {
		t.Fatalf("Len = %d, want 68", a.Len())
	}
}

func TestAppendBitsMasksHighBits(t *testing.T) {
	a := New(0)
	a.AppendBits(0xFFFF, 4) // only low 4 bits should land
	if a.Len() != 4 {
		t.Fatalf("Len = %d, want 4", a.Len())
	}
	if got := a.Uint(0, 4); got != 0xF {
		t.Fatalf("Uint = %x, want F", got)
	}
	// The next append must not see dirty bits.
	a.AppendBits(0, 4)
	if got := a.Uint(4, 4); got != 0 {
		t.Fatalf("following bits dirty: %x", got)
	}
}

func TestUintFullWidth(t *testing.T) {
	a := New(0)
	const v = uint64(0xDEADBEEFCAFEF00D)
	a.AppendBits(v, 64)
	if got := a.Uint(0, 64); got != v {
		t.Fatalf("Uint(0,64) = %x, want %x", got, v)
	}
	// Unaligned 64-bit read.
	b := New(0)
	b.AppendBits(0b101, 3)
	b.AppendBits(v, 64)
	if got := b.Uint(3, 64); got != v {
		t.Fatalf("unaligned Uint = %x, want %x", got, v)
	}
}

func TestSetBit(t *testing.T) {
	a := New(0)
	a.AppendBits(0, 10)
	a.SetBit(3, true)
	a.SetBit(9, true)
	a.SetBit(3, false)
	if a.Bit(3) || !a.Bit(9) {
		t.Fatalf("SetBit wrong: bit3=%v bit9=%v", a.Bit(3), a.Bit(9))
	}
	if a.PopCount() != 1 {
		t.Fatalf("PopCount = %d, want 1", a.PopCount())
	}
}

func TestAppendArrayAligned(t *testing.T) {
	a, b := New(0), New(0)
	a.AppendBits(0xABCD, 64)
	b.AppendBits(0x1234, 16)
	a.AppendArray(b)
	if a.Len() != 80 {
		t.Fatalf("Len = %d, want 80", a.Len())
	}
	if got := a.Uint(64, 16); got != 0x1234 {
		t.Fatalf("appended bits = %x, want 1234", got)
	}
}

func TestAppendArrayUnaligned(t *testing.T) {
	a, b := New(0), New(0)
	a.AppendBits(0b101, 3)
	for i := 0; i < 130; i++ {
		b.AppendBit(i%3 == 0)
	}
	a.AppendArray(b)
	if a.Len() != 133 {
		t.Fatalf("Len = %d, want 133", a.Len())
	}
	for i := 0; i < 130; i++ {
		if a.Bit(3+i) != (i%3 == 0) {
			t.Fatalf("bit %d mismatch", i)
		}
	}
}

func TestTruncate(t *testing.T) {
	a := New(0)
	a.AppendBits(^uint64(0), 64)
	a.AppendBits(^uint64(0), 64)
	a.Truncate(70)
	if a.Len() != 70 {
		t.Fatalf("Len = %d, want 70", a.Len())
	}
	if a.PopCount() != 70 {
		t.Fatalf("PopCount = %d, want 70", a.PopCount())
	}
	// Appends after truncate must not resurrect zeroed bits.
	a.AppendBits(0, 10)
	if a.PopCount() != 70 {
		t.Fatalf("dirty bits after truncate+append: PopCount = %d", a.PopCount())
	}
}

func TestCloneAndEqual(t *testing.T) {
	a := FromBits([]bool{true, false, true})
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b.SetBit(1, true)
	if a.Equal(b) {
		t.Fatal("mutating clone affected original comparison")
	}
	if a.Bit(1) {
		t.Fatal("clone aliases original storage")
	}
}

func TestString(t *testing.T) {
	a := FromBits([]bool{true, false, true})
	if a.String() != "101" {
		t.Fatalf("String = %q", a.String())
	}
}

// Property: appending values of random widths then reading them back yields
// the original values.
func TestQuickAppendReadRoundTrip(t *testing.T) {
	f := func(vals []uint64, widthSeed uint8) bool {
		a := New(0)
		widths := make([]int, len(vals))
		rng := rand.New(rand.NewSource(int64(widthSeed)))
		for i := range vals {
			widths[i] = 1 + rng.Intn(64)
			a.AppendBits(vals[i], widths[i])
		}
		r := NewReader(a, 0)
		for i, v := range vals {
			want := v
			if widths[i] < 64 {
				want &= (1 << widths[i]) - 1
			}
			if got := r.ReadUint(widths[i]); got != want {
				return false
			}
		}
		return r.Remaining() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: AppendArray is concatenation.
func TestQuickAppendArrayIsConcat(t *testing.T) {
	f := func(x, y []bool) bool {
		a, b := FromBits(x), FromBits(y)
		a.AppendArray(b)
		want := FromBits(append(append([]bool{}, x...), y...))
		return a.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPanicsOnBadArgs(t *testing.T) {
	a := FromBits([]bool{true})
	for name, fn := range map[string]func(){
		"Bit out of range":    func() { a.Bit(5) },
		"SetBit out of range": func() { a.SetBit(-1, true) },
		"Uint out of range":   func() { a.Uint(0, 10) },
		"width too large":     func() { a.AppendBits(0, 65) },
		"Truncate too long":   func() { a.Truncate(10) },
		"Reader bad pos":      func() { NewReader(a, 9) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: UnpackUints equals per-value Uint reads for every width,
// offset and count.
func TestQuickUnpackUintsEqualsUint(t *testing.T) {
	f := func(vals []uint32, width8, lead uint8) bool {
		width := 1 + int(width8)%32
		a := New(0)
		a.AppendBits(uint64(lead), int(lead)%17) // misalign the start
		startBit := a.Len()
		for _, v := range vals {
			a.AppendBits(uint64(v), width)
		}
		got := make([]uint32, len(vals))
		a.UnpackUints(got, startBit, width, len(vals))
		for i, v := range vals {
			want := uint32(uint64(v) & (1<<width - 1))
			if got[i] != want {
				return false
			}
			if uint32(a.Uint(startBit+i*width, width)) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUnpackUintsPanics(t *testing.T) {
	a := New(0)
	a.AppendBits(0xFF, 8)
	dst := make([]uint32, 4)
	for name, fn := range map[string]func(){
		"width 0":      func() { a.UnpackUints(dst, 0, 0, 1) },
		"width 33":     func() { a.UnpackUints(dst, 0, 33, 1) },
		"past end":     func() { a.UnpackUints(dst, 0, 8, 2) },
		"negative pos": func() { a.UnpackUints(dst, -1, 4, 1) },
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
	// Zero count is a no-op regardless of other args.
	a.UnpackUints(nil, 0, 8, 0)
}

func TestReaderSeekSkip(t *testing.T) {
	a := New(0)
	a.AppendBits(0b1010_1010, 8)
	r := NewReader(a, 0)
	r.Skip(2)
	if !r.ReadBit() {
		t.Fatal("bit 2 should be 1")
	}
	r.Seek(7)
	if r.ReadBit() {
		t.Fatal("bit 7 should be 0")
	}
	if r.Remaining() != 0 {
		t.Fatalf("Remaining = %d", r.Remaining())
	}
}
