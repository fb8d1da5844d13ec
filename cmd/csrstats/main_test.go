package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
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
	l.SortByUV(1) // BuildPacked wants sorted rows, as csrconvert writes them
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
	// A triangle and a pendant edge, symmetric, sorted by (u, v) as
	// csr.BuildPacked requires for searchable rows.
	l := edgelist.List{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 0}, {U: 1, V: 2},
		{U: 2, V: 0}, {U: 2, V: 1}, {U: 3, V: 4}, {U: 4, V: 3},
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

// TestStatsHeavyNeedsSymmetry: the heavy lines print only for a graph that
// stores every edge both ways; a directed graph gets one line saying they
// were skipped. Both report the exact stored edge count.
func TestStatsHeavyNeedsSymmetry(t *testing.T) {
	txt, packed := statsFixtures(t)
	dir := t.TempDir()
	directed, directedTxt := filepath.Join(dir, "d.csrc"), filepath.Join(dir, "d.txt")
	l := edgelist.List{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 2, V: 3}, {U: 3, V: 2}}
	if err := mgraph.WritePackedFile(directed, csr.BuildPacked(l, 4, 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.SaveFile(directedTxt); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args  []string
		edges string
		heavy bool
	}{
		{[]string{"-in", txt}, "edges:      8\n", true},
		{[]string{"-in", packed}, "edges:      8\n", true},
		{[]string{"-in", directed}, "edges:      5\n", false},
		{[]string{"-in", directedTxt}, "edges:      5\n", false},
		{[]string{"-in", directedTxt, "-symmetrize"}, "edges:      8\n", true},
	} {
		out := stdout(t, append(tc.args, "-procs", "2")...)
		if !strings.Contains(out, tc.edges) {
			t.Errorf("%v: want %q in\n%s", tc.args, tc.edges, out)
		}
		heavy := strings.Contains(out, "triangles:  1\n") && strings.Contains(out, "clustering:") &&
			strings.Contains(out, "max k-core: 2\n")
		skipped := strings.Contains(out, "skipped triangles, clustering and k-core: the graph is directed")
		if heavy != tc.heavy || skipped == tc.heavy {
			t.Errorf("%v: heavy lines %v, skip line %v, want heavy %v:\n%s", tc.args, heavy, skipped, tc.heavy, out)
		}
	}
}

// stdout runs csrstats with args and returns what it printed.
func stdout(t *testing.T, args ...string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close() //csr:errok read end of a pipe; close cannot lose data
	printed := make(chan string)
	go func() {
		b, err := io.ReadAll(r) // returns once w is closed below
		if err != nil {
			t.Error(err)
		}
		printed <- string(b)
	}()
	saved := os.Stdout
	os.Stdout = w
	runErr := run(args)
	os.Stdout = saved
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	out := <-printed
	if runErr != nil {
		t.Fatalf("%v: %v", args, runErr)
	}
	return out
}
