package csr

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
)

func TestPackMatrixRoundTrip(t *testing.T) {
	m := BuildSequential(paperGraph(), 10)
	for _, p := range []int{1, 2, 4, 16} {
		pk := PackMatrix(m, p)
		if !pk.Unpack().Equal(m) {
			t.Fatalf("p=%d: unpack(pack(m)) != m", p)
		}
		if pk.NumNodes() != 10 || pk.NumEdges() != 14 {
			t.Fatalf("p=%d: n=%d m=%d", p, pk.NumNodes(), pk.NumEdges())
		}
	}
}

func TestPackedWidths(t *testing.T) {
	m := BuildSequential(paperGraph(), 10)
	pk := PackMatrix(m, 1)
	// Max node id 9 -> 4 bits; max offset 14 -> 4 bits.
	if pk.NumBits() != 4 {
		t.Fatalf("NumBits = %d, want 4", pk.NumBits())
	}
	if pk.OffsetBits() != 4 {
		t.Fatalf("OffsetBits = %d, want 4", pk.OffsetBits())
	}
	// 11 offsets * 4 bits + 14 cols * 4 bits = 100 bits = 13 bytes, vs 100
	// bytes uncompressed.
	if pk.SizeBytes() != 13 {
		t.Fatalf("SizeBytes = %d, want 13", pk.SizeBytes())
	}
}

func TestPackedRowMatchesMatrix(t *testing.T) {
	l := randomSortedList(4000, 300, 20)
	m := Build(l, 300, 4)
	pk := PackMatrix(m, 4)
	var buf []uint32
	for u := uint32(0); u < 300; u++ {
		buf = pk.Row(buf, u)
		if !reflect.DeepEqual(buf, m.Neighbors(u)) && !(len(buf) == 0 && len(m.Neighbors(u)) == 0) {
			t.Fatalf("Row(%d) = %v, want %v", u, buf, m.Neighbors(u))
		}
		if pk.Degree(u) != m.Degree(u) {
			t.Fatalf("Degree(%d) mismatch", u)
		}
	}
}

func TestPackedNeighbor(t *testing.T) {
	m := BuildSequential(paperGraph(), 10)
	pk := PackMatrix(m, 1)
	if pk.Neighbor(7, 0) != 1 || pk.Neighbor(7, 1) != 2 {
		t.Fatal("Neighbor wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for out-of-range neighbor index")
		}
	}()
	pk.Neighbor(7, 2)
}

func TestPackedHasEdgeAgree(t *testing.T) {
	l := randomSortedList(3000, 200, 21)
	m := Build(l, 200, 2)
	pk := PackMatrix(m, 2)
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 3000; i++ {
		u, v := rng.Uint32()%200, rng.Uint32()%200
		want := m.HasEdge(u, v)
		if pk.HasEdge(u, v) != want || pk.SearchRow(u, v) != want {
			t.Fatalf("packed HasEdge(%d,%d) disagrees with matrix", u, v)
		}
	}
}

func TestPackedSmallerThanMatrixAndEdgeList(t *testing.T) {
	l := randomSortedList(20000, 5000, 23)
	m := Build(l, 5000, 4)
	pk := PackMatrix(m, 4)
	if pk.SizeBytes() >= m.SizeBytes() {
		t.Fatalf("packed %d bytes >= plain %d bytes", pk.SizeBytes(), m.SizeBytes())
	}
	if pk.SizeBytes() >= l.SizeBytes() {
		t.Fatalf("packed %d bytes >= edge list %d bytes", pk.SizeBytes(), l.SizeBytes())
	}
}

func TestPackedSerializationRoundTrip(t *testing.T) {
	l := randomSortedList(1000, 256, 24)
	pk := BuildPacked(l, 256, 4)
	var buf bytes.Buffer
	if _, err := pk.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadPacked(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(pk) {
		t.Fatal("serialization round trip mismatch")
	}
}

func TestReadPackedErrors(t *testing.T) {
	if _, err := ReadPacked(bytes.NewReader([]byte("XXXX"))); err == nil {
		t.Fatal("want magic error")
	}
	if _, err := ReadPacked(bytes.NewReader([]byte("PC"))); err == nil {
		t.Fatal("want short header error")
	}
	if _, err := ReadPacked(bytes.NewReader([]byte("PCSR\x10\x00\x00\x00\x00\x00\x00\x00"))); err == nil {
		t.Fatal("want truncated part error")
	}
}

func TestPackedFileRoundTrip(t *testing.T) {
	pk := BuildPacked(paperGraph(), 10, 2)
	path := filepath.Join(t.TempDir(), "g.pcsr")
	if err := pk.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadPackedFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(pk) {
		t.Fatal("file round trip mismatch")
	}
	if _, err := LoadPackedFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("want error for missing file")
	}
}

func BenchmarkBuild(b *testing.B) {
	l := randomSortedList(1<<19, 1<<16, 30)
	for name, p := range map[string]int{"p=1": 1, "p=4": 4, "p=16": 16} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Build(l, 1<<16, p)
			}
		})
	}
}

func BenchmarkBuildPacked(b *testing.B) {
	l := randomSortedList(1<<19, 1<<16, 31)
	for name, p := range map[string]int{"p=1": 1, "p=4": 4, "p=16": 16} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				BuildPacked(l, 1<<16, p)
			}
		})
	}
}
