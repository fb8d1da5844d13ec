package main

import (
	"os"
	"path/filepath"
	"testing"

	"csrgraph/internal/csr"
	"csrgraph/internal/edgelist"
	"csrgraph/internal/mgraph"
	"csrgraph/internal/tcsr"
)

func statsFixtures(t *testing.T) (txt, packed string) {
	t.Helper()
	dir := t.TempDir()
	l := edgelist.List{
		{U: 0, V: 1}, {U: 1, V: 0}, {U: 1, V: 2}, {U: 2, V: 1},
		{U: 0, V: 2}, {U: 2, V: 0}, {U: 3, V: 4}, {U: 4, V: 3},
	}
	txt = filepath.Join(dir, "g.txt")
	if err := l.SaveFile(txt); err != nil {
		t.Fatal(err)
	}
	packed = filepath.Join(dir, "g.csrc")
	if err := mgraph.WritePackedFile(packed, csr.BuildPacked(l, 5, 1)); err != nil {
		t.Fatal(err)
	}
	return txt, packed
}

func TestStatsOnTextInput(t *testing.T) {
	txt, _ := statsFixtures(t)
	if err := run([]string{"-in", txt, "-procs", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsOnPackedInput(t *testing.T) {
	_, packed := statsFixtures(t)
	if err := run([]string{"-in", packed, "-procs", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsLightMode(t *testing.T) {
	txt, _ := statsFixtures(t)
	if err := run([]string{"-in", txt, "-heavy=false"}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsErrors(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("want error for missing -in")
	}
	if err := run([]string{"-in", "/nonexistent"}); err == nil {
		t.Fatal("want error for missing file")
	}
}

func containerFixture(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	l := edgelist.List{
		{U: 0, V: 1}, {U: 1, V: 0}, {U: 1, V: 2}, {U: 2, V: 1},
		{U: 0, V: 2}, {U: 2, V: 0}, {U: 3, V: 4}, {U: 4, V: 3},
	}
	path := filepath.Join(dir, "g.csrc")
	if err := mgraph.WritePackedFile(path, csr.BuildPacked(l, 5, 1)); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestStatsOnContainerInput(t *testing.T) {
	path := containerFixture(t)
	if err := run([]string{"-in", path, "-procs", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", path, "-meta", "-verify"}); err != nil {
		t.Fatal(err)
	}
	// Magic sniffing: the same container under an unrelated extension.
	renamed := filepath.Join(filepath.Dir(path), "g.dat")
	if err := os.Rename(path, renamed); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", renamed, "-meta"}); err != nil {
		t.Fatal(err)
	}
	// A temporal container prints its metadata but has no static graph to
	// analyze.
	tc, err := tcsr.BuildFromEvents(edgelist.TemporalList{{U: 0, V: 1, T: 0}, {U: 0, V: 1, T: 1}}, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	temporal := filepath.Join(filepath.Dir(path), "t.csrc")
	if err := mgraph.WriteTemporalFile(temporal, tc); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", temporal, "-meta", "-verify"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-in", temporal}); err == nil {
		t.Fatal("want error analyzing a temporal container")
	}
}
