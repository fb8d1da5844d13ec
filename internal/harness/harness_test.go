package harness

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestFindRegistry(t *testing.T) {
	g, err := Find("Orkut")
	if err != nil || g.PaperEdges != 117_185_083 {
		t.Fatalf("Find(Orkut) = %+v, %v", g, err)
	}
	if _, err := Find("nope"); err == nil {
		t.Fatal("want error for unknown graph")
	}
	if len(Registry) != 4 {
		t.Fatalf("registry has %d graphs, want 4", len(Registry))
	}
}

func TestGenerateScaled(t *testing.T) {
	g, _ := Find("WebNotreDame")
	inst, err := g.Generate(64, 2)
	if err != nil {
		t.Fatal(err)
	}
	if inst.NumNodes == 0 || len(inst.Edges) == 0 {
		t.Fatal("empty instance")
	}
	if !inst.Edges.IsSortedByUV() {
		t.Fatal("instance edges not sorted")
	}
	// Edge count should be close to the scaled paper figure (dedup removes
	// some duplicates, so allow slack).
	want := g.PaperEdges / 64
	if len(inst.Edges) < want/2 || len(inst.Edges) > want {
		t.Fatalf("edges = %d, want about %d", len(inst.Edges), want)
	}
	if _, err := g.Generate(0, 1); err == nil {
		t.Fatal("want error for scale 0")
	}
	if _, err := g.Generate(1<<30, 1); err == nil {
		t.Fatal("want error for absurd scale")
	}
}

func TestRmatScaleFor(t *testing.T) {
	cases := map[int]int{2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := rmatScaleFor(n); got != want {
			t.Errorf("rmatScaleFor(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestSweep(t *testing.T) {
	for _, tc := range []struct {
		max  int
		want []int
	}{
		{1, []int{1}},
		{2, []int{1, 2}},
		{3, []int{1, 2, 3}},
		{6, []int{1, 2, 4, 6}},
		{64, []int{1, 2, 4, 8, 16, 32, 64}},
	} {
		got := Sweep(tc.max)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("Sweep(%d) = %v, want %v", tc.max, got, tc.want)
		}
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Errorf("Sweep(%d) = %v does not ascend strictly", tc.max, got)
			}
		}
	}
}

func TestParseProcs(t *testing.T) {
	got, err := ParseProcs("1, 4,8")
	if err != nil || !reflect.DeepEqual(got, []int{1, 4, 8}) {
		t.Fatalf("got %v, %v", got, err)
	}
	if got, err := ParseProcs(""); err != nil || len(got) == 0 || got[0] != 1 {
		t.Fatalf("empty list: got %v, %v, want the host sweep", got, err)
	}
	for _, bad := range []string{" ", "0", "x", "4,-1", "1,,2"} {
		if _, err := ParseProcs(bad); err == nil {
			t.Errorf("%q: want error", bad)
		}
	}
}

func TestMedianOf(t *testing.T) {
	calls := 0
	MedianOf(5, func() { calls++ })
	if calls != 5 {
		t.Fatalf("ran %d times, want 5", calls)
	}
	calls = 0
	MedianOf(0, func() { calls++ }) // clamps to 1
	if calls != 1 {
		t.Fatalf("ran %d times, want 1", calls)
	}
	calls = 0
	MedianOf(2, func() { calls++ }) // forced odd
	if calls != 3 {
		t.Fatalf("ran %d times, want 3", calls)
	}
}

func TestRunConstructionWallClockMode(t *testing.T) {
	g, _ := Find("WebNotreDame")
	inst, err := g.Generate(256, 2)
	if err != nil {
		t.Fatal(err)
	}
	res := RunConstruction(inst, []int{1, 2}, 1)
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	if res.CSRSize <= 0 || res.CSRSize >= res.EdgeListSize {
		t.Fatalf("CSR size %d should be positive and below edge list %d", res.CSRSize, res.EdgeListSize)
	}
	if res.Rows[0].SpeedupP != 0 {
		t.Fatal("p=1 row must have no speedup")
	}
	for _, m := range res.Rows {
		if m.Time <= 0 {
			t.Fatalf("non-positive wall time at p=%d", m.Procs)
		}
	}
}

func TestTimeSweep(t *testing.T) {
	calls := map[int]int{}
	rows := TimeSweep([]int{2, 4}, 3, func(p int) { calls[p]++ })
	if len(rows) != 2 || rows[0].Procs != 2 || rows[1].Procs != 4 {
		t.Fatalf("rows = %+v", rows)
	}
	// p = 1 is timed as the speed-up base even when procs lacks it.
	if calls[1] != 3 || calls[2] != 3 || calls[4] != 3 {
		t.Fatalf("calls = %v, want 3 per p", calls)
	}
}

func TestRunScaling(t *testing.T) {
	g, _ := Find("WebNotreDame")
	points, err := RunScaling(g, []int{256, 128}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("%d points", len(points))
	}
	if points[1].NumEdges <= points[0].NumEdges {
		t.Fatal("smaller divisor should give more edges")
	}
	for _, pt := range points {
		if pt.Time <= 0 || pt.NsPerEdge <= 0 {
			t.Fatalf("bad point %+v", pt)
		}
	}
	var buf bytes.Buffer
	if err := RenderScaling(&buf, g.Name, points); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ns/edge") {
		t.Fatalf("render: %s", buf.String())
	}
	if _, err := RunScaling(g, []int{1 << 30}, 1, 2); err == nil {
		t.Fatal("want error for absurd scale")
	}
}

func TestRenderers(t *testing.T) {
	g, _ := Find("WebNotreDame")
	inst, err := g.Generate(128, 2)
	if err != nil {
		t.Fatal(err)
	}
	results := []*Result{RunConstruction(inst, []int{1, 2, 4}, 1)}

	var buf bytes.Buffer
	if err := RenderTable2(&buf, results); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"WebNotreDame", "Speed-Up", "Procs"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table2 output missing %q:\n%s", want, out)
		}
	}

	buf.Reset()
	if err := RenderFig6(&buf, results); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "WebNotreDame (ms)") {
		t.Fatalf("fig6 output: %s", buf.String())
	}

	buf.Reset()
	if err := RenderFig7(&buf, results); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "\n1\t") {
		t.Fatal("fig7 must omit the p=1 row")
	}

	buf.Reset()
	if err := RenderCSV(&buf, results); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1+3 {
		t.Fatalf("csv has %d lines, want 4", len(lines))
	}
}

func TestHumanBytes(t *testing.T) {
	cases := map[int64]string{
		512:     "512 B",
		2048:    "2.00 KB",
		5 << 20: "5.00 MB",
		3 << 30: "3.00 GB",
	}
	for n, want := range cases {
		if got := HumanBytes(n); got != want {
			t.Errorf("HumanBytes(%d) = %q, want %q", n, got, want)
		}
	}
}
