package main

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	cases := []struct {
		line    string
		ok      bool
		name    string
		metrics map[string]float64
	}{
		{
			line:    "BenchmarkUnpackWidths/kernel/w=8/aligned-4 \t 30285 \t 1978 ns/op \t 2070.26 MB/s",
			ok:      true,
			name:    "BenchmarkUnpackWidths/kernel/w=8/aligned-4",
			metrics: map[string]float64{"ns/op": 1978, "MB/s": 2070.26},
		},
		{
			line:    "BenchmarkQueryThroughput/exists/packed-4 139 370612 ns/op 11052541 queries/s 12 B/op 3 allocs/op",
			ok:      true,
			name:    "BenchmarkQueryThroughput/exists/packed-4",
			metrics: map[string]float64{"ns/op": 370612, "queries/s": 11052541, "B/op": 12, "allocs/op": 3},
		},
		{line: "goos: linux", ok: false},
		{line: "PASS", ok: false},
		{line: "BenchmarkBroken abc 12 ns/op", ok: false},
		{line: "BenchmarkNoMetric 100 fast", ok: false},
		{line: "", ok: false},
	}
	for _, c := range cases {
		name, metrics, ok := parseBenchLine(c.line)
		if ok != c.ok {
			t.Errorf("parse(%q): ok = %v, want %v", c.line, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if name != c.name || len(metrics) != len(c.metrics) {
			t.Errorf("parse(%q) = %q %v, want %q %v", c.line, name, metrics, c.name, c.metrics)
		}
		for unit, val := range c.metrics {
			if metrics[unit] != val {
				t.Errorf("parse(%q): metric %q = %v, want %v", c.line, unit, metrics[unit], val)
			}
		}
	}
}

const benchText = `goos: linux
BenchmarkSortByUV/dist=uniform/edges=100/algo=merge-8   5   2000 ns/op
BenchmarkSortByUV/dist=uniform/edges=100/algo=radix-8   5   1000 ns/op
BenchmarkNeighborsBatch/dist=powerlaw/batch=hub/cache=cold-8   3   9000 ns/op
BenchmarkNeighborsBatch/dist=powerlaw/batch=hub/cache=warm-8   3   3000 ns/op
PASS
`

// variantRows pairs benchText's variants as ten identical runs would and
// returns the printed table.
func variantRows(t *testing.T, m mode) (string, error) {
	t.Helper()
	tab := table{}
	for i := range pairs {
		tab.addRun(benchText, i, variantClassify(m))
	}
	var out strings.Builder
	err := tab.write(&out, "head")
	return out.String(), err
}

// rowLine returns the printed row of benchmark name and unit.
func rowLine(t *testing.T, text, name, unit string) []string {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == unit && f[len(f)-1] == name {
			return f
		}
	}
	t.Fatalf("no %s row for %s in:\n%s", unit, name, text)
	return nil
}

func TestVariantModeAlgoKey(t *testing.T) {
	got, err := variantRows(t, mode{key: "algo", baseline: "merge", candidate: "radix"})
	if err != nil {
		t.Fatal(err)
	}
	// unit, median A, median B, B/A, q1-q3, A iqr%, wins, verdict, name
	want := []string{"ns/op", "2000", "1000", "0.5", "0.5-0.5", "0", "10/10", "better", "BenchmarkSortByUV/dist=uniform/edges=100-8"}
	if f := rowLine(t, got, want[8], "ns/op"); strings.Join(f, " ") != strings.Join(want, " ") {
		t.Fatalf("row = %q, want %q", f, want)
	}
	if strings.Contains(got, "NeighborsBatch") {
		t.Fatalf("a benchmark without an algo= variant was paired:\n%s", got)
	}
}

func TestVariantModeCacheKey(t *testing.T) {
	got, err := variantRows(t, mode{key: "cache", baseline: "cold", candidate: "warm"})
	if err != nil {
		t.Fatal(err)
	}
	if f := rowLine(t, got, "BenchmarkNeighborsBatch/dist=powerlaw/batch=hub-8", "ns/op"); f[3] != "0.333" || f[7] != "better" {
		t.Fatalf("want a 0.333 ratio, better:\n%s", got)
	}
}

func TestVariantModeNoPairs(t *testing.T) {
	if _, err := variantRows(t, mode{key: "nope", baseline: "a", candidate: "b"}); err == nil {
		t.Fatal("want error when no variants match the key")
	}
}

// TestVariantModeOneSided lists a benchmark whose candidate variant is
// missing instead of dropping it.
func TestVariantModeOneSided(t *testing.T) {
	got, err := variantRows(t, mode{key: "algo", baseline: "merge", candidate: "absent"})
	if err != nil {
		t.Fatal(err)
	}
	if f := rowLine(t, got, "BenchmarkSortByUV/dist=uniform/edges=100-8", "ns/op"); f[2] != "-" || f[7] != "one-sided" {
		t.Fatalf("want a one-sided row:\n%s", got)
	}
}

func TestStats(t *testing.T) {
	// A is 100..1000; B is A times 1.0 (a tie), 0.9, ..., 0.1.
	r := row{{}, {}}
	for i := range pairs {
		a := float64(100 * (i + 1))
		r[0][i], r[1][i] = a, a*float64(10-i)/10
	}
	near := func(got, want float64) bool { return math.Abs(got-want) < 1e-9 }
	s := r.stats(false)
	if !near(s.medA, 550) || !near(s.iqrA, 775-325) || !near(s.medB, 240) {
		t.Errorf("medA, iqrA, medB = %v, %v, %v; want 550, 450, 240", s.medA, s.iqrA, s.medB)
	}
	if !near(s.ratio, 0.55) || !near(s.ratioQ1, 0.325) || !near(s.ratioQ3, 0.775) {
		t.Errorf("ratio median, q1, q3 = %v, %v, %v; want 0.55, 0.325, 0.775", s.ratio, s.ratioQ1, s.ratioQ3)
	}
	if s.wins != 9 || s.losses != 0 {
		t.Errorf("lower is better: wins, losses = %d, %d; want 9, 0 and a tie", s.wins, s.losses)
	}
	if s := r.stats(true); s.wins != 0 || s.losses != 9 {
		t.Errorf("higher is better: wins, losses = %d, %d; want 0, 9", s.wins, s.losses)
	}
	// A pair that misses a side counts for neither; A's median uses all of A.
	delete(r[1], 9)
	if s := r.stats(false); s.wins != 8 || !near(s.medA, 550) {
		t.Errorf("with B's pair 9 missing: wins = %d, medA = %v; want 8, 550", s.wins, s.medA)
	}
}

func TestVerdict(t *testing.T) {
	cases := []struct {
		s    stats
		want string
	}{
		{stats{medA: 100, medB: 80, iqrA: 19.99, wins: 9}, "better"},
		{stats{medA: 100, medB: 80, iqrA: 19.99, wins: 8, losses: 2}, "~"},
		{stats{medA: 100, medB: 80, iqrA: 20, wins: 10}, "~"},
		{stats{medA: 100, medB: 80, iqrA: 20.01, wins: 10}, "~"},
		{stats{medA: 100, medB: 120, iqrA: 19.99, losses: 9}, "worse"},
		{stats{medA: 100, medB: 120, iqrA: 19.99, losses: 8}, "~"},
		{stats{medA: 100, medB: 120, iqrA: 20.01, losses: 10}, "~"},
		{stats{medA: math.NaN(), medB: 1, iqrA: math.NaN()}, "one-sided"},
		{stats{medA: 1, medB: math.NaN()}, "one-sided"},
	}
	for _, c := range cases {
		if got := c.s.verdict(); got != c.want {
			t.Errorf("%+v: verdict %q, want %q", c.s, got, c.want)
		}
	}
}

// TestHigherIsBetter covers every unit the tree's benchmarks report.
func TestHigherIsBetter(t *testing.T) {
	higher := []string{"MB/s", "edges/s", "events/s", "queries/s", "wallclock_speedup_pct", "edgelist_bytes_per_csr_byte"}
	lower := []string{"ns/op", "B/op", "allocs/op", "ns/probe", "ns/value", "resident-B", "bytes", "csr_bytes",
		"delta_bytes", "edgelist_bytes", "fixed_bytes"}
	for _, u := range higher {
		if !higherIsBetter(u) {
			t.Errorf("%s: want higher is better", u)
		}
	}
	for _, u := range lower {
		if higherIsBetter(u) {
			t.Errorf("%s: want lower is better", u)
		}
	}
}

// TestRefMode drives ref mode over a throwaway module: its first commit
// lacks the benchmark the second declares, and a side branch does not
// compile.
func TestRefMode(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not on PATH")
	}
	repo, tmp := t.TempDir(), t.TempDir()
	t.Setenv("TMPDIR", tmp)
	git := func(args ...string) string {
		t.Helper()
		cmd := exec.Command("git", append([]string{"-c", "user.name=t", "-c", "user.email=t@example.com", "-c", "commit.gpgsign=false"}, args...)...)
		cmd.Dir = repo
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
		return string(out)
	}
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(repo, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module pairtest\n\ngo 1.23\n")
	write("sum.go", "package pairtest\n\nfunc Sum(n int) (s int) {\n\tfor i := range n {\n\t\ts += i\n\t}\n\treturn s\n}\n")
	git("init", "-q")
	git("add", ".")
	git("commit", "-q", "-m", "base")
	write("sum_test.go", "package pairtest\n\nimport \"testing\"\n\nfunc BenchmarkSum(b *testing.B) {\n\tfor range b.N {\n\t\tSum(1000)\n\t}\n}\n")
	git("add", ".")
	git("commit", "-q", "-m", "bench")
	git("checkout", "-q", "-b", "broken")
	write("sum.go", "package pairtest\n\nfunc Sum(n int) int { return undefinedName }\n")
	git("commit", "-q", "-am", "broken")
	git("checkout", "-q", "-")

	args := []string{"-test.bench", "BenchmarkSum", "-test.benchtime", "1x"}
	var out strings.Builder
	if err := run(&out, repo, mode{ref: "HEAD~1"}, ".", args); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, `overlay: HEAD~1 declares no benchmark matching "BenchmarkSum"; A is built with the working tree's sum_test.go`) {
		t.Errorf("no overlay line:\n%s", got)
	}
	var order []string
	for _, line := range strings.Split(got, "\n") {
		if _, runs, ok := strings.Cut(line, "pair "); ok {
			_, runs, _ = strings.Cut(runs, ": ")
			order = append(order, runs)
		}
	}
	if len(order) != pairs {
		t.Fatalf("%d pairs, want %d:\n%s", len(order), pairs, got)
	}
	for i, runs := range order {
		want := "A B"
		if i%2 == 1 {
			want = "B A"
		}
		if runs != want {
			t.Errorf("pair %d ran %q, want %q", i+1, runs, want)
		}
	}
	if !strings.Contains(got, "\nns/op ") || strings.Contains(got, "one-sided") {
		t.Errorf("want a two-sided ns/op row for BenchmarkSum:\n%s", got)
	}

	out.Reset()
	err := run(&out, repo, mode{ref: "broken"}, ".", args)
	if err == nil || !strings.Contains(err.Error(), "undefined: undefinedName") {
		t.Errorf("broken ref: err = %v, want the compiler's message", err)
	}

	if wts := strings.Count(git("worktree", "list", "--porcelain"), "worktree "); wts != 1 {
		t.Errorf("%d worktrees listed after the runs, want only the main tree", wts)
	}
	if left, err := os.ReadDir(tmp); err != nil || len(left) != 0 {
		t.Errorf("temporary directory holds %v (%v), want nothing", left, err)
	}
}
