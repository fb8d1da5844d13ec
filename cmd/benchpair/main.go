// Command benchpair runs ten A/B pairs of one package's benchmarks and
// prints per-metric pair statistics.
//
//	benchpair [-ref REF] [-key K -baseline A -new B] PKG [test-binary flags…]
//
// PKG is a package directory; the flags after it (-test.bench required) go
// to each run of its test binary after -test.run '^$' -test.benchmem. With
// -ref, side A is the package at REF, checked out by `git worktree add`,
// and B the working tree; pair i runs A first when i is even, one process
// per run. If only the working tree lists top-level benchmarks matching
// -test.bench, its _test.go files declaring them are copied over REF's.
// With -key, one binary runs ten times, and in each run the sub-benchmarks
// that differ only in "<key>=<label>" pair up: -baseline is A, -new is B.
// A row per metric: medians, B/A median and q1-q3, A's iqr, wins, verdict.
package main

import (
	"bytes"
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
)

// pairs is the number of A/B pairs every call runs.
const pairs = 10

// mode is ref mode when ref is set, variant mode when the other three are.
type mode struct{ ref, key, baseline, candidate string }

func main() {
	var m mode
	flag.StringVar(&m.ref, "ref", "", "git ref whose code is side A; the working tree is side B")
	flag.StringVar(&m.key, "key", "", "variant mode: the sub-benchmark path key the sides differ in")
	flag.StringVar(&m.baseline, "baseline", "", "variant mode: the <key> label of side A")
	flag.StringVar(&m.candidate, "new", "", "variant mode: the <key> label of side B")
	flag.Parse()
	variantMode := m.ref == "" && m.key != "" && m.baseline != "" && m.candidate != ""
	if flag.NArg() < 1 || !variantMode && (m.ref == "" || m.key+m.baseline+m.candidate != "") {
		fmt.Fprintln(os.Stderr, "usage: benchpair [-ref REF] [-key K -baseline A -new B] PKG [test-binary flags...]")
		os.Exit(2)
	}
	// Ctrl-C stops the running child; run then returns and cleans up.
	signal.Notify(make(chan os.Signal, 1), os.Interrupt)
	if err := run(os.Stdout, ".", m, flag.Arg(0), flag.Args()[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchpair:", err)
		os.Exit(1)
	}
}

// classify maps a benchmark to its row and side: 0 is A, 1 B, -1 neither.
type classify func(name string) (row string, side int)

type side struct {
	name, bin, dir string
	classify       classify
}

// run pairs the benchmarks of package directory pkg under dir. The ref's
// worktree and both binaries are removed on every return path.
func run(out io.Writer, dir string, m mode, pkg string, args []string) (err error) {
	bench := benchFlag.FindStringSubmatch(strings.Join(args, " "))
	if bench == nil {
		return errors.New("need -test.bench <regexp> after PKG")
	}
	top, _, _ := strings.Cut(bench[1], "/")
	tmp, err := os.MkdirTemp("", "benchpair-")
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, os.RemoveAll(tmp)) }()
	b := side{"B", filepath.Join(tmp, "b.test"), filepath.Join(dir, pkg), func(n string) (string, int) { return n, 1 }}
	if _, err := command(b.dir, "go", "test", "-c", "-o", b.bin, "."); err != nil {
		return err
	}
	sides, head := []side{b}, "A = "+m.ref+", B = working tree"
	if m.ref == "" {
		sides[0].name, sides[0].classify = m.key+"="+m.baseline+"|"+m.candidate, variantClassify(m)
		head = fmt.Sprintf("A = %s=%s, B = %s=%s", m.key, m.baseline, m.key, m.candidate)
	} else {
		prefix, err := command(dir, "git", "rev-parse", "--show-prefix")
		if err != nil {
			return err
		}
		wt := filepath.Join(tmp, "ref")
		if _, err := command(dir, "git", "worktree", "add", "--detach", wt, m.ref); err != nil {
			return err
		}
		defer func() {
			_, rmErr := command(dir, "git", "worktree", "remove", "--force", wt)
			err = errors.Join(err, rmErr)
		}()
		a := side{"A", filepath.Join(tmp, "a.test"), filepath.Join(wt, strings.TrimSpace(prefix), pkg),
			func(n string) (string, int) { return n, 0 }}
		if err := buildRef(out, a, b, m.ref, top); err != nil {
			return err
		}
		sides = []side{a, b}
	}
	t := table{}
	for i := range pairs {
		order := slices.Clone(sides)
		if i%2 == 1 {
			slices.Reverse(order)
		}
		fmt.Fprintf(out, "pair %2d/%d:", i+1, pairs) //csr:errok progress; the table's write reports a broken output
		for _, s := range order {
			fmt.Fprintf(out, " %s", s.name) //csr:errok progress, as above
			text, err := command(s.dir, s.bin, append([]string{"-test.run", "^$", "-test.benchmem"}, args...)...)
			if err != nil {
				return err
			}
			t.addRun(text, i, s.classify)
		}
		fmt.Fprintln(out) //csr:errok progress, as above
	}
	return t.write(out, head)
}

var (
	procsSuffix = regexp.MustCompile(`-[0-9]+$`)
	benchName   = regexp.MustCompile(`(?m)^Benchmark\S*`)
	benchFlag   = regexp.MustCompile(`(?:^| )--?test\.bench[= ](\S+)`)
)

// variantClassify names a sub-benchmark without its "<key>=<label>"
// element, "-<procs>" suffix kept, and sides it by the label.
func variantClassify(m mode) classify {
	return func(name string) (string, int) {
		suffix := procsSuffix.FindString(name)
		parts := strings.Split(strings.TrimSuffix(name, suffix), "/")
		for i, p := range parts {
			if label, ok := strings.CutPrefix(p, m.key+"="); ok {
				rest := strings.Join(slices.Delete(parts, i, i+1), "/") + suffix
				return rest, slices.Index([]string{m.baseline, m.candidate}, label)
			}
		}
		return name, -1
	}
}

// command runs name in dir and returns its output, which an error carries.
func command(dir, name string, args ...string) (string, error) {
	cmd := exec.Command(name, args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("%s %s (in %s): %v\n%s", name, strings.Join(args, " "), dir, err, out)
	}
	return string(out), nil
}

// buildRef builds a; if only b lists benchmarks matching top, it copies
// b's _test.go files declaring them into a's directory and rebuilds a. A
// package without test files builds no binary and lists nothing.
func buildRef(out io.Writer, a, b side, ref, top string) error {
	if _, err := command(a.dir, "go", "test", "-c", "-o", a.bin, "."); err != nil {
		return err
	}
	listA, err := command(a.dir, a.bin, "-test.list", top)
	if _, statErr := os.Stat(a.bin); statErr == nil && (err != nil || benchName.MatchString(listA)) {
		return err
	}
	listB, err := command(b.dir, b.bin, "-test.list", top)
	names := benchName.FindAllString(listB, -1)
	if err != nil || len(names) == 0 {
		return err
	}
	paths, _ := filepath.Glob(filepath.Join(b.dir, "*_test.go")) //csr:errok the pattern is well formed
	var copied []string
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err == nil && slices.ContainsFunc(names, func(n string) bool { return bytes.Contains(data, []byte("\nfunc "+n+"(")) }) {
			copied = append(copied, filepath.Base(p))
			err = os.WriteFile(filepath.Join(a.dir, filepath.Base(p)), data, 0o644)
		}
		if err != nil {
			return err
		}
	}
	if _, err := command(a.dir, "go", "test", "-c", "-o", a.bin, "."); err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "overlay: %s declares no benchmark matching %q; A is built with the working tree's %s\n",
		ref, top, strings.Join(copied, ", "))
	return err
}

// A table row holds one benchmark metric per side, A then B, by pair.
type (
	row    [2]map[int]float64
	rowKey struct{ name, unit string }
	table  map[rowKey]*row
)

func (t table) addRun(text string, pair int, classify classify) {
	for _, line := range strings.Split(text, "\n") {
		name, metrics, ok := parseBenchLine(line)
		if name, side := classify(name); ok && side >= 0 {
			for unit, val := range metrics {
				k := rowKey{name, unit}
				if t[k] == nil {
					t[k] = &row{{}, {}}
				}
				t[k][side][pair] = val
			}
		}
	}
}

// stats summarises a row; NaN marks a value that no sample defines.
type stats struct {
	medA, medB, iqrA, ratio, ratioQ1, ratioQ3 float64
	wins, losses                              int
}

func (r *row) stats(higherIsBetter bool) stats {
	var s stats
	var ratios []float64
	for i, a := range r[0] {
		b, ok := r[1][i]
		if ok && a != 0 {
			ratios = append(ratios, b/a)
		}
		if ok && a != b && (b > a) == higherIsBetter {
			s.wins++
		} else if ok && a != b {
			s.losses++
		}
	}
	as, bs := slices.Collect(maps.Values(r[0])), slices.Collect(maps.Values(r[1]))
	s.medA, s.medB, s.iqrA = quantile(as, 0.5), quantile(bs, 0.5), quantile(as, 0.75)-quantile(as, 0.25)
	s.ratio, s.ratioQ1, s.ratioQ3 = quantile(ratios, 0.5), quantile(ratios, 0.25), quantile(ratios, 0.75)
	return s
}

// quantile interpolates linearly between the closest ranks of xs.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	h := p * float64(len(xs)-1)
	lo, hi := int(math.Floor(h)), int(math.Ceil(h))
	return xs[lo] + (h-float64(lo))*(xs[hi]-xs[lo])
}

// verdict: B is better when it wins nine tenths of the pairs and the
// medians differ by more than A's quartile distance; worse in the mirror.
func (s stats) verdict() string {
	apart := math.Abs(s.medB-s.medA) > s.iqrA
	switch {
	case math.IsNaN(s.medA) || math.IsNaN(s.medB):
		return "one-sided"
	case apart && s.wins >= pairs*9/10:
		return "better"
	case apart && s.losses >= pairs*9/10:
		return "worse"
	}
	return "~"
}

// higherIsBetter: rates and the speed-up and compression ratios rise as B
// improves; times, sizes and counts fall.
func higherIsBetter(unit string) bool {
	return strings.HasSuffix(unit, "/s") || unit == "wallclock_speedup_pct" || unit == "edgelist_bytes_per_csr_byte"
}

// write prints head and the rows in benchmark and unit order.
func (t table) write(out io.Writer, head string) error {
	if len(t) == 0 {
		return errors.New("no benchmark result to pair")
	}
	keys := slices.SortedFunc(maps.Keys(t), func(x, y rowKey) int {
		return cmp.Or(strings.Compare(x.name, y.name), strings.Compare(x.unit, y.unit))
	})
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n%-12s %12s %12s %7s %15s %7s %6s %-9s  %s\n", head,
		"unit", "median A", "median B", "B/A", "B/A q1-q3", "A iqr%", "wins", "verdict", "benchmark")
	for _, k := range keys {
		s := t[k].stats(higherIsBetter(k.unit))
		fmt.Fprintf(&sb, "%-12s %12s %12s %7s %7s-%-7s %7s %3d/%d %-9s  %s\n", k.unit,
			num(s.medA), num(s.medB), num(s.ratio), num(s.ratioQ1), num(s.ratioQ3),
			num(100*s.iqrA/s.medA), s.wins, pairs, s.verdict(), k.name)
	}
	_, err := io.WriteString(out, sb.String())
	return err
}

// num prints whole numbers from 100 up and three significant digits below.
func num(v float64) string {
	switch {
	case math.IsNaN(v) || math.IsInf(v, 0):
		return "-"
	case math.Abs(v) >= 100:
		return strconv.FormatFloat(v, 'f', 0, 64)
	}
	return strconv.FormatFloat(v, 'g', 3, 64)
}

// parseBenchLine parses "BenchmarkName-8  1000  1234 ns/op  56 B/op ..."
// and returns ok=false for any other line.
func parseBenchLine(line string) (name string, metrics map[string]float64, ok bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return "", nil, false
	}
	if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
		return "", nil, false
	}
	metrics = map[string]float64{}
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return "", nil, false
		}
		metrics[fields[i+1]] = val
	}
	return fields[0], metrics, true
}
