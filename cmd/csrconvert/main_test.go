package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csrgraph/internal/csr"
	"csrgraph/internal/edgelist"
	"csrgraph/internal/mgraph"
	"csrgraph/internal/shard"
)

func writeTestGraph(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "g.txt")
	l := edgelist.List{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 0, V: 2}}
	if err := l.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// loadPacked reads the container csrconvert wrote through the verified
// heap reader.
func loadPacked(t *testing.T, path string) *csr.Packed {
	t.Helper()
	c, err := mgraph.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return c.Packed()
}

func TestConvertRoundTrip(t *testing.T) {
	dir := t.TempDir()
	in := writeTestGraph(t, dir)
	out := filepath.Join(dir, "g.csrc")
	if err := run([]string{"-in", in, "-out", out, "-procs", "2"}); err != nil {
		t.Fatal(err)
	}
	pk := loadPacked(t, out)
	if pk.NumNodes() != 3 || pk.NumEdges() != 4 {
		t.Fatalf("n=%d m=%d", pk.NumNodes(), pk.NumEdges())
	}
	if !pk.HasEdge(2, 0) {
		t.Fatal("edge lost in conversion")
	}
}

func TestConvertSymmetrize(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "one.txt")
	if err := os.WriteFile(in, []byte("0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "one.csrc")
	if err := run([]string{"-in", in, "-out", out, "-symmetrize"}); err != nil {
		t.Fatal(err)
	}
	pk := loadPacked(t, out)
	if pk.NumEdges() != 2 || !pk.HasEdge(1, 0) {
		t.Fatal("symmetrize not applied")
	}
}

func TestConvertWithOrdering(t *testing.T) {
	dir := t.TempDir()
	in := writeTestGraph(t, dir)
	for _, ord := range []string{"degree", "bfs"} {
		out := filepath.Join(dir, ord+".csrc")
		if err := run([]string{"-in", in, "-out", out, "-order", ord}); err != nil {
			t.Fatalf("%s: %v", ord, err)
		}
		pk := loadPacked(t, out)
		if pk.NumEdges() != 4 {
			t.Fatalf("%s: edges = %d", ord, pk.NumEdges())
		}
	}
	if err := run([]string{"-in", in, "-out", filepath.Join(dir, "x.csrc"), "-order", "magic"}); err == nil {
		t.Fatal("want error for unknown ordering")
	}
}

func TestConvertErrors(t *testing.T) {
	if err := run([]string{"-in", "x"}); err == nil {
		t.Fatal("want error for missing -out")
	}
	if err := run([]string{"-in", "/nonexistent", "-out", filepath.Join(t.TempDir(), "y.csrc")}); err == nil {
		t.Fatal("want error for missing input")
	}
}

func TestConvertContainerFormat(t *testing.T) {
	dir := t.TempDir()
	in := writeTestGraph(t, dir)
	out := filepath.Join(dir, "g.csrc")
	if err := run([]string{"-in", in, "-out", out}); err != nil {
		t.Fatal(err)
	}
	m, err := mgraph.Open(out, mgraph.WithVerify())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close() //csr:errok test cleanup of a read-only mapping
	pk := m.Packed()
	if pk.NumNodes() != 3 || pk.NumEdges() != 4 || !pk.SearchRow(2, 0) {
		t.Fatalf("container graph wrong: n=%d m=%d", pk.NumNodes(), pk.NumEdges())
	}
	// A name without the .csrc extension still gets a container.
	out2 := filepath.Join(dir, "g.graphbin")
	if err := run([]string{"-in", in, "-out", out2}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := mgraph.ReadMetaFile(out2, false); err != nil {
		t.Fatal(err)
	}
}

func TestConvertExternalMemory(t *testing.T) {
	dir := t.TempDir()
	in := writeTestGraph(t, dir)
	ram := filepath.Join(dir, "ram.csrc")
	ext := filepath.Join(dir, "ext.csrc")
	if err := run([]string{"-in", in, "-out", ram, "-symmetrize"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", in, "-out", ext, "-symmetrize", "-extmem-mb", "1"}); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(ram)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(ext)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("external-memory container differs from in-RAM build")
	}
	// Guard rail: -order is incompatible with -extmem-mb.
	if err := run([]string{"-in", in, "-out", ext, "-extmem-mb", "1", "-order", "degree"}); err == nil {
		t.Fatal("want error for -extmem-mb with -order")
	}
}

func TestConvertPartition(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "p.txt")
	// 8 nodes in a ring plus chords so every shard gets edges.
	var buf bytes.Buffer
	for u := 0; u < 8; u++ {
		fmt.Fprintf(&buf, "%d %d\n%d %d\n", u, (u+1)%8, u, (u+3)%8)
	}
	if err := os.WriteFile(in, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "p.shards.json")
	if err := run([]string{"-in", in, "-out", out, "-partition", "2", "-procs", "2"}); err != nil {
		t.Fatal(err)
	}
	mf, err := shard.LoadManifest(out)
	if err != nil {
		t.Fatal(err)
	}
	if mf.Nodes != 8 || mf.Edges != 16 || len(mf.Shards) != 2 {
		t.Fatalf("manifest = %+v", mf)
	}
	maps, err := shard.OpenShards(out, mf, true)
	if err != nil {
		t.Fatal(err)
	}
	edges := 0
	for _, m := range maps {
		edges += m.Packed().NumEdges()
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if edges != 16 {
		t.Fatalf("shards hold %d edges, want 16", edges)
	}
}

func TestConvertPartitionConflicts(t *testing.T) {
	dir := t.TempDir()
	in := writeTestGraph(t, dir)
	out := filepath.Join(dir, "g.shards.json")
	err := run([]string{"-in", in, "-out", out, "-partition", "2", "-extmem-mb", "64"})
	if err == nil || !strings.Contains(err.Error(), "-partition") {
		t.Fatalf("extmem+partition = %v, want conflict error", err)
	}
}
