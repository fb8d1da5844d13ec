package mgraph

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"csrgraph/internal/bitpack"
	"csrgraph/internal/csr"
	"csrgraph/internal/gen"
	"csrgraph/internal/tcsr"
)

// testTemporal builds a packed TCSR from a seeded churn stream with some
// frames left empty, so the container sees frames of different widths
// and zero-edge frames.
func testTemporal(t testing.TB, nodes, frames int) *tcsr.Packed {
	t.Helper()
	events, err := gen.TemporalStream(nodes, 4*nodes, nodes, frames, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	kept := events[:0]
	for _, e := range events {
		if e.T%3 != 1 { // frames 1, 4, 7, ... stay empty
			kept = append(kept, e)
		}
	}
	kept.Sort(2)
	tc, err := tcsr.BuildFromEvents(kept, nodes, frames, 2)
	if err != nil {
		t.Fatal(err)
	}
	return tc
}

// writeTemporalTemp writes pt as a temporal container in the test's temp
// dir.
func writeTemporalTemp(t *testing.T, pt *tcsr.Packed) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.csrc")
	if err := WriteTemporalFile(path, pt); err != nil {
		t.Fatalf("WriteTemporalFile: %v", err)
	}
	return path
}

// sameTemporal compares every frame's widths and the answers of every
// Active / ActiveNeighbors query on the first nodes nodes.
func sameTemporal(t *testing.T, how string, got, want *tcsr.Packed) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumFrames() != want.NumFrames() || got.SizeBytes() != want.SizeBytes() {
		t.Fatalf("%s: shape (%d nodes, %d frames, %d B), want (%d, %d, %d B)", how,
			got.NumNodes(), got.NumFrames(), got.SizeBytes(), want.NumNodes(), want.NumFrames(), want.SizeBytes())
	}
	for f := 0; f < want.NumFrames(); f++ {
		g, w := got.Frame(f), want.Frame(f)
		if g.OffsetBits() != w.OffsetBits() || g.NumBits() != w.NumBits() || g.SizeBytes() != w.SizeBytes() || !g.Equal(w) {
			t.Fatalf("%s: frame %d widths %d/%d (%d B), want %d/%d (%d B)", how, f,
				g.OffsetBits(), g.NumBits(), g.SizeBytes(), w.OffsetBits(), w.NumBits(), w.SizeBytes())
		}
	}
	n := uint32(want.NumNodes())
	for f := 0; f < want.NumFrames(); f++ {
		for u := uint32(0); u < n; u++ {
			if a, b := got.ActiveNeighbors(nil, u, f), want.ActiveNeighbors(nil, u, f); !reflect.DeepEqual(a, b) {
				t.Fatalf("%s: ActiveNeighbors(%d, %d) = %v, want %v", how, u, f, a, b)
			}
			for v := uint32(0); v < n; v += 7 {
				if got.Active(u, v, f) != want.Active(u, v, f) {
					t.Fatalf("%s: Active(%d, %d, %d) diverges", how, u, v, f)
				}
			}
		}
	}
}

// TestRoundTripTemporal: the temporal form round-trips through the mapped
// and the heap reader with identical per-frame widths, SizeBytes and query
// answers.
func TestRoundTripTemporal(t *testing.T) {
	want := testTemporal(t, 120, 8)
	path := writeTemporalTemp(t, want)

	m, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer m.Close() //csr:errok test cleanup of a read-only mapping
	if m.GraphForm() != FormTemporal || m.Source() != nil {
		t.Fatalf("form = %v, source = %v", m.GraphForm(), m.Source())
	}
	sameTemporal(t, "mapped", m.Temporal(), want)

	c, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	sameTemporal(t, "heap", c.Temporal(), want)

	// A reloaded graph is in the paper's form; checkpointing it must give
	// the graph that checkpointing the built one gives.
	for _, interval := range []int{1, 3, want.NumFrames()} {
		wantCk, err := want.Checkpoint(interval, 2)
		if err != nil {
			t.Fatal(err)
		}
		for how, pt := range map[string]*tcsr.Packed{"mapped": m.Temporal(), "heap": c.Temporal()} {
			ck, err := pt.Checkpoint(interval, 2)
			if err != nil {
				t.Fatal(err)
			}
			sameTemporal(t, fmt.Sprintf("%s, interval %d", how, interval), ck, wantCk)
		}
	}

	// No frames at all is a valid temporal graph too.
	empty, err := tcsr.AssemblePacked(5, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err = ReadFile(writeTemporalTemp(t, empty))
	if err != nil {
		t.Fatalf("ReadFile(no frames): %v", err)
	}
	if pt := c.Temporal(); pt.NumNodes() != 5 || pt.NumFrames() != 0 {
		t.Fatalf("no-frame container reads back as %d nodes, %d frames", pt.NumNodes(), pt.NumFrames())
	}
}

// oneEdgeTemporal is a one-frame temporal graph over n nodes whose only
// edge is (0, v); v >= n makes a frame with an out-of-range neighbor.
func oneEdgeTemporal(t *testing.T, n int, v uint32) *tcsr.Packed {
	t.Helper()
	offsets := make([]uint32, n+1)
	for i := 1; i <= n; i++ {
		offsets[i] = 1
	}
	frame, err := csr.AssemblePacked(bitpack.Pack(offsets, 1), bitpack.Pack([]uint32{v}, 1))
	if err != nil {
		t.Fatal(err)
	}
	pt, err := tcsr.AssemblePacked(n, []*csr.Packed{frame})
	if err != nil {
		t.Fatal(err)
	}
	return pt
}

// TestTemporalLyingNodeCount: a header node count smaller than the frames'
// row count cannot load — every frame must have exactly numNodes rows.
func TestTemporalLyingNodeCount(t *testing.T) {
	path := writeTemporalTemp(t, oneEdgeTemporal(t, 10, 9))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	putU64(data[24:], 2) // nodes = 2
	rehdr(data)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("ReadFile accepted a temporal container whose frames have 10 rows under nodes=2")
	}
	if _, err := Open(path); err == nil {
		t.Fatal("Open accepted a temporal container whose frames have 10 rows under nodes=2")
	}
	// The assembler refuses the same shape in memory.
	frame := oneEdgeTemporal(t, 10, 9).Frame(0)
	if _, err := tcsr.AssemblePacked(2, []*csr.Packed{frame}); err == nil {
		t.Fatal("tcsr.AssemblePacked accepted a 10-row frame under numNodes=2")
	}
}

// TestTemporalNeighborOutOfRange: a frame neighbor id >= numNodes fails
// every verified load; the trusted mapped open lets it through, as the
// trust model documents.
func TestTemporalNeighborOutOfRange(t *testing.T) {
	path := writeTemporalTemp(t, oneEdgeTemporal(t, 2, 9))
	if _, err := ReadFile(path); err == nil {
		t.Fatal("ReadFile accepted neighbor 9 in a 2-node temporal graph")
	}
	if _, err := Open(path, WithVerify()); err == nil {
		t.Fatal("Open(WithVerify) accepted neighbor 9 in a 2-node temporal graph")
	}
	m, err := Open(path)
	if err != nil {
		t.Fatalf("trusted Open: %v", err)
	}
	m.Close() //csr:errok test cleanup of a read-only mapping
}

// TestReadFileVerifies: the heap reader always checks the section CRCs and
// the neighbor range, which the trusted mapped open skips.
func TestReadFileVerifies(t *testing.T) {
	pk, _ := testGraph(t, 300, 1500, false)
	path := writeTemp(t, "g.csrc", pk)
	c, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !c.Packed().Equal(pk) {
		t.Fatal("heap read differs from the written graph")
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[c.Sections[1].Offset] ^= 0xff
	bad := filepath.Join(t.TempDir(), "bad.csrc")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(bad); err == nil {
		t.Fatal("ReadFile accepted a corrupt neighbor section")
	}

	// A neighbor id past the node space, with a valid CRC.
	off := bitpack.Pack([]uint32{0, 1, 1}, 1)
	cols := bitpack.Pack([]uint32{7}, 1)
	wild, err := csr.AssemblePacked(off, cols)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(writeTemp(t, "wild.csrc", wild)); err == nil {
		t.Fatal("ReadFile accepted neighbor 7 in a 2-node graph")
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("ReadFile of a missing file succeeded")
	}
}
