package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csrgraph/internal/csr"
	"csrgraph/internal/edgelist"
	"csrgraph/internal/gen"
	"csrgraph/internal/mgraph"
	"csrgraph/internal/tcsr"
)

func packedFixture(t *testing.T) string {
	t.Helper()
	l := edgelist.List{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}}
	pk := csr.BuildPacked(l, 3, 1)
	path := filepath.Join(t.TempDir(), "g.csrc")
	if err := mgraph.WritePackedFile(path, pk); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestQuerySubcommands(t *testing.T) {
	path := packedFixture(t)
	for name, args := range map[string][]string{
		"stats":     {"-graph", path, "stats"},
		"neighbors": {"-graph", path, "neighbors", "0", "2"},
		"degree":    {"-graph", path, "degree", "1"},
		"exists":    {"-graph", path, "exists", "0:1", "2:0"},
	} {
		if err := run(args); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestDeltaAnswersLikePacked: a delta container and its packed twin print
// the same neighbors, degrees and existence answers, and stats prints bit
// widths for the packed one only.
func TestDeltaAnswersLikePacked(t *testing.T) {
	l, err := gen.RMAT(8, 2000, gen.DefaultRMAT, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	m := csr.Build(l.Prepared(false, 2), 256, 2)
	dir := t.TempDir()
	packed, delta := filepath.Join(dir, "p.csrc"), filepath.Join(dir, "d.csrc")
	if err := mgraph.WritePackedFile(packed, csr.PackMatrix(m, 2)); err != nil {
		t.Fatal(err)
	}
	if err := mgraph.WriteDeltaFile(delta, csr.PackDelta(m, 2)); err != nil {
		t.Fatal(err)
	}
	for _, sub := range [][]string{
		{"neighbors", "0", "1", "17", "255", "0"},
		{"degree", "0", "1", "17", "255"},
		{"exists", "0:1", "1:0", "17:4", "255:255", "3:200", "0:0"},
	} {
		want := stdout(t, append([]string{"-graph", packed, "-procs", "2"}, sub...)...)
		if got := stdout(t, append([]string{"-graph", delta, "-procs", "2"}, sub...)...); got != want {
			t.Fatalf("%s: delta printed\n%s\npacked printed\n%s", sub[0], got, want)
		}
	}
	for path, widths := range map[string]bool{packed: true, delta: false} {
		out := stdout(t, "-graph", path, "stats")
		if got := strings.Contains(out, "neighbor bits"); got != widths {
			t.Fatalf("%s stats prints widths = %v, want %v:\n%s", filepath.Base(path), got, widths, out)
		}
	}
}

// stdout runs csrquery with args and returns what it printed.
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

func temporalFixture(t *testing.T) string {
	t.Helper()
	events := edgelist.TemporalList{
		{U: 0, V: 1, T: 0}, {U: 0, V: 1, T: 1}, {U: 1, V: 2, T: 1},
	}
	tc, err := tcsr.BuildFromEvents(events, 3, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.csrc")
	if err := mgraph.WriteTemporalFile(path, tc); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestTemporalSubcommands(t *testing.T) {
	path := temporalFixture(t)
	for name, args := range map[string][]string{
		"stats":      {"-graph", path, "stats"},
		"active":     {"-graph", path, "active", "0:1:0", "0:1:1"},
		"tneighbors": {"-graph", path, "tneighbors", "1", "1"},
	} {
		if err := run(args); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestTemporalErrors(t *testing.T) {
	path := temporalFixture(t)
	for name, args := range map[string][]string{
		"no subcommand":     {"-graph", path},
		"bad subcommand":    {"-graph", path, "zap"},
		"static subcommand": {"-graph", path, "neighbors", "0"},
		"bad active query":  {"-graph", path, "active", "1:2"},
		"active range":      {"-graph", path, "active", "0:1:99"},
		"no active args":    {"-graph", path, "active"},
		"tneighbors usage":  {"-graph", path, "tneighbors", "1"},
		"tneighbors range":  {"-graph", path, "tneighbors", "9", "0"},
		"missing file":      {"-graph", "/nonexistent.csrc", "stats"},
		"static container":  {"-graph", packedFixture(t), "active", "0:1:0"},
	} {
		if err := run(args); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

func TestQueryErrors(t *testing.T) {
	path := packedFixture(t)
	for name, args := range map[string][]string{
		"no graph":          {"stats"},
		"no subcommand":     {"-graph", path},
		"bad subcommand":    {"-graph", path, "explode"},
		"node out of range": {"-graph", path, "neighbors", "99"},
		"bad node":          {"-graph", path, "neighbors", "abc"},
		"no nodes":          {"-graph", path, "neighbors"},
		"bad edge":          {"-graph", path, "exists", "12"},
		"edge out of range": {"-graph", path, "exists", "9:9"},
		"bad edge u":        {"-graph", path, "exists", "x:1"},
		"bad edge v":        {"-graph", path, "exists", "1:x"},
		"missing file":      {"-graph", "/nonexistent.csrc", "stats"},
		"temporal graph":    {"-graph", temporalFixture(t), "degree", "0"},
	} {
		if err := run(args); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

// TestItemGrammar: the batch subcommands decode their arguments with the
// server's item grammar, so white space around an item is accepted and a
// refused item gets the server's error text.
func TestItemGrammar(t *testing.T) {
	static, temporal := packedFixture(t), temporalFixture(t)
	for _, args := range [][]string{
		{"-graph", static, "neighbors", " 0 ", "2\t"},
		{"-graph", static, "exists", " 0:1"},
		{"-graph", temporal, "active", "0:1:1 "},
		{"-graph", temporal, "tneighbors", " 0", "1 "},
	} {
		if err := run(args); err != nil {
			t.Errorf("%q: %v", args[2:], err)
		}
	}
	for _, c := range []struct {
		want string
		args []string
	}{
		{`node 99 out of range [0,3)`, []string{"-graph", static, "degree", "99"}},
		{`bad edge "12", want u:v`, []string{"-graph", static, "exists", "12"}},
		{`edge "9:9" out of range [0,3)`, []string{"-graph", static, "exists", "9:9"}},
		{`frame 99 out of range [0,2)`, []string{"-graph", temporal, "active", "0:1:99"}},
		{`query "5:1:0" out of node range [0,3)`, []string{"-graph", temporal, "active", "5:1:0"}},
		{`bad query "1:2", want u:v:t`, []string{"-graph", temporal, "active", "1:2"}},
		{`node 9 out of range [0,3)`, []string{"-graph", temporal, "tneighbors", "9", "0"}},
		{`frame 99 out of range [0,2)`, []string{"-graph", temporal, "tneighbors", "0", "99"}},
		{`bad frame "x"`, []string{"-graph", temporal, "tneighbors", "0", "x"}},
	} {
		if err := run(c.args); err == nil || err.Error() != c.want {
			t.Errorf("%q: got %v, want %s", c.args[2:], err, c.want)
		}
	}
}
