package mgraph

import (
	"bytes"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"csrgraph/internal/algo"
	"csrgraph/internal/bitpack"
	"csrgraph/internal/csr"
	"csrgraph/internal/edgelist"
	"csrgraph/internal/gen"
)

// testGraph builds a deterministic random packed CSR for round-trip tests.
func testGraph(t *testing.T, nodes, edges int, symmetrize bool) (*csr.Packed, edgelist.List) {
	t.Helper()
	list, err := gen.ErdosRenyi(nodes, edges, 42, 4)
	if err != nil {
		t.Fatalf("gen: %v", err)
	}
	prepared := list.Prepared(symmetrize, 4)
	pk := csr.BuildPacked(prepared, prepared.NumNodes(), 4)
	return pk, list
}

// writeTemp writes a packed container into the test's temp dir.
func writeTemp(t *testing.T, name string, pk *csr.Packed) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := WritePackedFile(path, pk); err != nil {
		t.Fatalf("WritePackedFile: %v", err)
	}
	return path
}

// TestRoundTripPacked pins the core contract: build → write → mmap → every
// query answer identical, including a full BFS through the query engine.
func TestRoundTripPacked(t *testing.T) {
	pk, _ := testGraph(t, 2000, 10000, true)
	path := writeTemp(t, "g.csrc", pk)

	m, err := Open(path, WithVerify())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer m.Close() //csr:errok test cleanup of a read-only mapping

	got := m.Packed()
	if got.NumNodes() != pk.NumNodes() || got.NumEdges() != pk.NumEdges() {
		t.Fatalf("shape (%d,%d), want (%d,%d)", got.NumNodes(), got.NumEdges(), pk.NumNodes(), pk.NumEdges())
	}
	var a, b []uint32
	for u := 0; u < pk.NumNodes(); u++ {
		a, b = pk.Row(a[:0], uint32(u)), got.Row(b[:0], uint32(u))
		if len(a) != len(b) {
			t.Fatalf("row %d length %d != %d", u, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("row %d[%d] = %d, want %d", u, i, b[i], a[i])
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		u, v := uint32(rng.Intn(pk.NumNodes())), uint32(rng.Intn(pk.NumNodes()))
		if pk.SearchRow(u, v) != got.SearchRow(u, v) {
			t.Fatalf("SearchRow(%d,%d) diverges", u, v)
		}
	}
	want := algo.BFSFrontier(pk, nil, 0, 4)
	have := algo.BFSFrontier(m.Source(), nil, 0, 4)
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("BFS level[%d] = %d, want %d", i, have[i], want[i])
		}
	}
}

// TestRoundTripWidths sweeps every packable neighbor width 1..32: synthetic
// sorted rows with a forced maximum value so WidthFor picks exactly w, then
// write → parse → compare decoded rows and searches. High widths use node
// values far beyond numNodes, which AssemblePacked permits (only offsets
// are validated), so this exercises the raw bit layout at every width
// without gigantic node spaces.
func TestRoundTripWidths(t *testing.T) {
	const n = 48
	for w := 1; w <= 32; w++ {
		maxVal := uint32(1)<<uint(w) - 1
		if w == 32 {
			maxVal = ^uint32(0)
		}
		rng := rand.New(rand.NewSource(int64(w)))
		var cols []uint32
		offsets := make([]uint32, n+1)
		for u := 0; u < n; u++ {
			deg := rng.Intn(6)
			row := make([]uint32, 0, deg+1)
			for i := 0; i < deg; i++ {
				row = append(row, uint32(rng.Int63n(int64(maxVal)+1)))
			}
			if u == 0 {
				row = append(row, maxVal) // force the width
			}
			// Sorted, deduplicated row — the CSR invariant.
			for i := 1; i < len(row); i++ {
				for j := i; j > 0 && row[j] < row[j-1]; j-- {
					row[j], row[j-1] = row[j-1], row[j]
				}
			}
			for i := 0; i < len(row); i++ {
				if i > 0 && row[i] == row[i-1] {
					continue
				}
				cols = append(cols, row[i])
			}
			offsets[u+1] = uint32(len(cols))
		}
		offPk := bitpack.Pack(offsets, 1)
		colPk := bitpack.Pack(cols, 1)
		if colPk.Width() != w {
			t.Fatalf("width %d: packed as %d", w, colPk.Width())
		}
		pk, err := csr.AssemblePacked(offPk, colPk)
		if err != nil {
			t.Fatalf("width %d: assemble: %v", w, err)
		}
		path := filepath.Join(t.TempDir(), "w.csrc")
		if err := WritePackedFile(path, pk); err != nil {
			t.Fatalf("width %d: write: %v", w, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Parse(data, ParseOptions{VerifyCRC: true})
		if err != nil {
			t.Fatalf("width %d: parse: %v", w, err)
		}
		got := c.Packed()
		if got.NumBits() != w {
			t.Fatalf("width %d: container view has width %d", w, got.NumBits())
		}
		var a, b []uint32
		for u := 0; u < n; u++ {
			a, b = pk.Row(a[:0], uint32(u)), got.Row(b[:0], uint32(u))
			if len(a) != len(b) {
				t.Fatalf("width %d row %d: len %d != %d", w, u, len(b), len(a))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("width %d row %d[%d]: %d != %d", w, u, i, b[i], a[i])
				}
			}
			for _, v := range a {
				if !got.SearchRow(uint32(u), v) {
					t.Fatalf("width %d: SearchRow(%d,%d) lost an edge", w, u, v)
				}
			}
		}
	}
}

// TestRoundTripWeighted covers the three-section weighted form.
func TestRoundTripWeighted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	edges := make([]csr.WeightedEdge, 4000)
	for i := range edges {
		edges[i] = csr.WeightedEdge{U: uint32(rng.Intn(500)), V: uint32(rng.Intn(500)), W: rng.Uint32() >> 8}
	}
	wm, err := csr.BuildWeighted(edges, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	pw := csr.PackWeighted(wm, 4)
	path := filepath.Join(t.TempDir(), "g.csrc")
	if err := WriteWeightedFile(path, pw); err != nil {
		t.Fatal(err)
	}
	m, err := Open(path, WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close() //csr:errok test cleanup of a read-only mapping
	if m.GraphForm() != FormWeighted {
		t.Fatalf("form = %v", m.GraphForm())
	}
	got := m.Weighted()
	for u := 0; u < pw.NumNodes(); u++ {
		for _, v := range pw.Row(nil, uint32(u)) {
			ww, ok1 := pw.Weight(uint32(u), v)
			gw, ok2 := got.Weight(uint32(u), v)
			if !ok1 || !ok2 || ww != gw {
				t.Fatalf("Weight(%d,%d): (%d,%v) != (%d,%v)", u, v, gw, ok2, ww, ok1)
			}
		}
	}
}

// TestRoundTripDelta covers the raw-bits payload section of the delta form.
func TestRoundTripDelta(t *testing.T) {
	list, err := gen.ErdosRenyi(800, 6000, 5, 4)
	if err != nil {
		t.Fatal(err)
	}
	prepared := list.Prepared(true, 4)
	mat := csr.Build(prepared, prepared.NumNodes(), 4)
	dp := csr.PackDelta(mat, 4)
	path := filepath.Join(t.TempDir(), "g.csrc")
	if err := WriteDeltaFile(path, dp); err != nil {
		t.Fatal(err)
	}
	m, err := Open(path, WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close() //csr:errok test cleanup of a read-only mapping
	if m.GraphForm() != FormDelta {
		t.Fatalf("form = %v", m.GraphForm())
	}
	got := m.Delta()
	var a, b []uint32
	for u := 0; u < dp.NumNodes(); u++ {
		a, b = dp.Row(a[:0], uint32(u)), got.Row(b[:0], uint32(u))
		if len(a) != len(b) {
			t.Fatalf("row %d: len %d != %d", u, len(b), len(a))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("row %d[%d]: %d != %d", u, i, b[i], a[i])
			}
		}
	}
}

// TestExternalBuildByteIdentical is the acceptance differential: the
// spill-to-disk build must emit byte-for-byte the file the in-RAM path
// emits, at a comfortable budget (single shard) and at starvation budgets
// that force many spill shards and a wide merge.
func TestExternalBuildByteIdentical(t *testing.T) {
	for _, sym := range []bool{false, true} {
		list, err := gen.ErdosRenyi(2000, 8000, 11, 4)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()

		// Reference: fully in-RAM.
		prepared := list.Prepared(sym, 4)
		pk := csr.BuildPacked(prepared, prepared.NumNodes(), 4)
		ramPath := filepath.Join(dir, "ram.csrc")
		if err := WritePackedFile(ramPath, pk); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(ramPath)
		if err != nil {
			t.Fatal(err)
		}

		// Edge input file for the streaming path.
		input := filepath.Join(dir, "edges.bin")
		f, err := os.Create(input)
		if err != nil {
			t.Fatal(err)
		}
		if err := list.WriteBinary(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}

		for _, budget := range []int64{1 << 30, 1 << 16, 1} {
			out := filepath.Join(dir, "ext.csrc")
			stats, err := ExternalBuildFile(input, out, ExternalOptions{
				MemoryBudget: budget,
				TempDir:      dir,
				Procs:        4,
				Symmetrize:   sym,
			})
			if err != nil {
				t.Fatalf("sym=%v budget=%d: %v", sym, budget, err)
			}
			if budget == 1 && stats.Shards < 2 {
				t.Fatalf("sym=%v budget=1: %d shards, wanted a multi-shard spill", sym, stats.Shards)
			}
			if stats.UniqueEdges != int64(pk.NumEdges()) || stats.NumNodes != pk.NumNodes() {
				t.Fatalf("sym=%v budget=%d: stats (%d,%d), want (%d,%d)",
					sym, budget, stats.NumNodes, stats.UniqueEdges, pk.NumNodes(), pk.NumEdges())
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("sym=%v budget=%d: external container differs from in-RAM (%d vs %d bytes)",
					sym, budget, len(got), len(want))
			}
			// The external container must also load and answer queries.
			m, err := Open(out, WithVerify())
			if err != nil {
				t.Fatalf("sym=%v budget=%d: open external: %v", sym, budget, err)
			}
			if m.Packed().NumEdges() != pk.NumEdges() {
				t.Fatalf("sym=%v budget=%d: mapped external has %d edges", sym, budget, m.Packed().NumEdges())
			}
			m.Close() //csr:errok test cleanup of a read-only mapping //csr:errok test cleanup of a read-only mapping
		}
	}
}

// TestExternalBuildEmpty pins the degenerate shapes.
func TestExternalBuildEmpty(t *testing.T) {
	dir := t.TempDir()
	input := filepath.Join(dir, "edges.txt")
	if err := os.WriteFile(input, []byte("# empty\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "empty.csrc")
	stats, err := ExternalBuildFile(input, out, ExternalOptions{TempDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if stats.UniqueEdges != 0 || stats.NumNodes != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	m, err := Open(out, WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close() //csr:errok test cleanup of a read-only mapping
	if m.Packed().NumNodes() != 0 || m.Packed().NumEdges() != 0 {
		t.Fatalf("empty container has shape (%d,%d)", m.Packed().NumNodes(), m.Packed().NumEdges())
	}
}

// TestReadMetaFile checks the metadata-only reader used by csrstats.
func TestReadMetaFile(t *testing.T) {
	pk, _ := testGraph(t, 500, 3000, false)
	path := writeTemp(t, "g.csrc", pk)

	meta, crcOK, err := ReadMetaFile(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Version != Version || meta.Form() != FormPacked {
		t.Fatalf("meta = %+v", meta)
	}
	if meta.NumNodes != uint64(pk.NumNodes()) || meta.NumEdges != uint64(pk.NumEdges()) {
		t.Fatalf("meta counts (%d,%d)", meta.NumNodes, meta.NumEdges)
	}
	if len(meta.Sections) != 2 || len(crcOK) != 2 || !crcOK[0] || !crcOK[1] {
		t.Fatalf("sections %d, crcOK %v", len(meta.Sections), crcOK)
	}
	if meta.Sections[0].Kind != KindOffsets || meta.Sections[1].Kind != KindNeighbors {
		t.Fatalf("section kinds %d,%d", meta.Sections[0].Kind, meta.Sections[1].Kind)
	}

	// Corrupt one payload byte: metadata still reads, CRC flags it.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[meta.Sections[1].Offset] ^= 0xff
	bad := filepath.Join(t.TempDir(), "bad.csrc")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, crcOK, err = ReadMetaFile(bad, true)
	if err != nil {
		t.Fatal(err)
	}
	if !crcOK[0] || crcOK[1] {
		t.Fatalf("crcOK = %v after corrupting section 1", crcOK)
	}
	if _, err := Open(bad, WithVerify()); err == nil {
		t.Fatal("Open(WithVerify) accepted a corrupt payload")
	}
	// Without verification the mapped open trusts the payload (documented
	// trust model) but must still validate the header and offsets.
	m, err := Open(bad)
	if err != nil {
		t.Fatalf("Open without verify: %v", err)
	}
	m.Close() //csr:errok test cleanup of a read-only mapping
}

// TestFormatMismatch pins the wrong-format error: a file of the retired
// PCSR/WCSR/TCSR stream formats is named as such by every container
// entry point, long enough for a header or not.
func TestFormatMismatch(t *testing.T) {
	for _, magic := range []string{"PCSR", "WCSR", "TCSR"} {
		for _, size := range []int{4, 256} {
			data := append([]byte(magic), make([]byte, size-4)...)
			path := filepath.Join(t.TempDir(), "legacy")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(path); !errors.Is(err, ErrLegacyStream) {
				t.Fatalf("Open(%s, %d B) = %v, want ErrLegacyStream", magic, size, err)
			}
			if _, err := ReadFile(path); !errors.Is(err, ErrLegacyStream) {
				t.Fatalf("ReadFile(%s, %d B) = %v, want ErrLegacyStream", magic, size, err)
			}
			if _, _, err := ReadMetaFile(path, false); !errors.Is(err, ErrLegacyStream) {
				t.Fatalf("ReadMetaFile(%s, %d B) = %v, want ErrLegacyStream", magic, size, err)
			}
		}
	}
}

// TestParseRejectsCorruptHeaders walks a gauntlet of structural corruption;
// every case must error cleanly, never panic, never return a bad Container.
func TestParseRejectsCorruptHeaders(t *testing.T) {
	pk, _ := testGraph(t, 300, 1500, false)
	path := writeTemp(t, "g.csrc", pk)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mutate := func(name string, f func(b []byte) []byte) {
		b := f(append([]byte(nil), good...))
		if _, err := Parse(b, ParseOptions{}); err == nil {
			t.Fatalf("%s: Parse accepted corrupt input", name)
		}
	}
	mutate("empty", func(b []byte) []byte { return nil })
	mutate("short-header", func(b []byte) []byte { return b[:40] })
	mutate("bad-magic", func(b []byte) []byte { b[0] = 'X'; return b })
	mutate("bad-version", func(b []byte) []byte { b[4] = 99; return b })
	mutate("bad-endian-marker", func(b []byte) []byte { b[16] ^= 0xff; return b })
	mutate("bad-header-crc", func(b []byte) []byte { b[24] ^= 0x01; return b })
	mutate("bad-table-crc", func(b []byte) []byte { b[headerSize] ^= 0x01; return b })
	mutate("truncated-payload", func(b []byte) []byte { return b[:len(b)-8] })
	mutate("section-count-overflow", func(b []byte) []byte {
		putU32(b[12:], 200)
		// Recompute header CRC so the count is what parsing rejects.
		rehdr(b)
		return b
	})
	mutate("offsets-not-monotone", func(b []byte) []byte {
		// Smash the offsets payload; AssemblePacked's monotonicity check
		// must catch it even without CRC verification.
		off := leU64(b[headerSize+16:])
		for i := uint64(0); i < 16; i++ {
			b[off+i] = 0xff
		}
		return b
	})
}

// rehdr recomputes the table and header CRCs after a test mutates fields,
// so parsing exercises the semantic check rather than the checksum.
func rehdr(b []byte) {
	n := int(leU32(b[12:]))
	end := headerSize + n*sectionEntrySize
	if end > len(b) {
		end = len(b)
	}
	putU32(b[40:], crc32.Checksum(b[headerSize:end], crcTable))
	putU32(b[44:], crc32.Checksum(b[0:44], crcTable))
}

// TestConcurrentQueriesOnMapped drives parallel readers over one mapping —
// the race detector's view of the zero-copy path (wired into make
// test-race).
func TestConcurrentQueriesOnMapped(t *testing.T) {
	pk, _ := testGraph(t, 1500, 9000, true)
	path := writeTemp(t, "g.csrc", pk)
	m, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close() //csr:errok test cleanup of a read-only mapping

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var row []uint32
			got := m.Packed()
			for i := 0; i < 2000; i++ {
				u := uint32(rng.Intn(got.NumNodes()))
				row = got.Row(row[:0], u)
				got.SearchRow(u, uint32(rng.Intn(got.NumNodes())))
			}
			algo.BFSFrontier(m.Source(), nil, uint32(seed), 2)
		}(int64(g))
	}
	wg.Wait()
}
