package harness

import (
	"bytes"
	"strings"
	"testing"
	"time"
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

func TestParseMode(t *testing.T) {
	if m, err := ParseMode("model"); err != nil || m != ModeModel {
		t.Fatal("model mode should parse")
	}
	if m, err := ParseMode("wallclock"); err != nil || m != ModeWallClock {
		t.Fatal("wallclock mode should parse")
	}
	if _, err := ParseMode("magic"); err == nil {
		t.Fatal("want error for unknown mode")
	}
}

func TestCostModelShape(t *testing.T) {
	// Calibrate a synthetic model and verify the Figure 6/7 shape: time
	// strictly decreases with p, with diminishing returns.
	cm := Calibrate(100*time.Millisecond, 100_000, 1_500_000)
	var prev time.Duration
	var prevGain float64
	for i, p := range []int{1, 4, 8, 16, 64} {
		tp := cm.SimulateConstruction(100_000, 1_500_000, p)
		if i > 0 {
			if tp >= prev {
				t.Fatalf("T(%d) = %v not below T(prev) = %v", p, tp, prev)
			}
			gain := float64(prev - tp)
			if i > 1 && gain > prevGain {
				t.Fatalf("gain grew from %v to %v at p=%d; expected diminishing returns", prevGain, gain, p)
			}
			prevGain = gain
		}
		prev = tp
	}
	// p=1 prediction matches the calibration input (within float rounding
	// of the per-op cost; no barriers/spawns are charged at p=1).
	got := cm.SimulateConstruction(100_000, 1_500_000, 1)
	if diff := got - 100*time.Millisecond; diff < -time.Millisecond || diff > time.Millisecond {
		t.Fatalf("p=1 model = %v, want ~100ms", got)
	}
	// Speed-up at 64 processors lands in the paper's observed band (60-97%).
	t64 := cm.SimulateConstruction(100_000, 1_500_000, 64)
	speedup := 100 * float64(100*time.Millisecond-t64) / float64(100*time.Millisecond)
	if speedup < 60 || speedup > 99 {
		t.Fatalf("model speed-up at p=64 = %.1f%%, outside the paper's band", speedup)
	}
}

func TestCostModelDegenerate(t *testing.T) {
	cm := Calibrate(0, 0, 0)
	if d := cm.SimulateConstruction(0, 0, 4); d < 0 {
		t.Fatalf("negative simulated time %v", d)
	}
	if d := cm.SimulateConstruction(10, 10, 0); d < 0 {
		t.Fatal("p=0 must clamp to 1")
	}
}

func TestMedianOf(t *testing.T) {
	calls := 0
	medianOf(5, func() { calls++ })
	if calls != 5 {
		t.Fatalf("ran %d times, want 5", calls)
	}
	calls = 0
	medianOf(0, func() { calls++ }) // clamps to 1
	if calls != 1 {
		t.Fatalf("ran %d times, want 1", calls)
	}
	calls = 0
	medianOf(2, func() { calls++ }) // forced odd
	if calls != 3 {
		t.Fatalf("ran %d times, want 3", calls)
	}
}

func TestRunConstructionModelMode(t *testing.T) {
	g, _ := Find("WebNotreDame")
	// Scale 16, not 64: the model charges ~2.5 µs of spawns per processor,
	// so p=8 beats p=4 only when the calibrated p=1 build takes over
	// ~80 µs, which the 64x-reduced graph missed on fast hosts.
	inst, err := g.Generate(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunConstruction(inst, []int{1, 4, 8}, ModeModel, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	if res.CSRSize <= 0 || res.CSRSize >= res.EdgeListSize {
		t.Fatalf("CSR size %d should be positive and below edge list %d", res.CSRSize, res.EdgeListSize)
	}
	if res.Rows[0].SpeedupP != 0 {
		t.Fatal("p=1 row must have no speedup")
	}
	if res.Rows[1].SpeedupP <= 0 || res.Rows[2].SpeedupP <= res.Rows[1].SpeedupP {
		t.Fatalf("speedups not increasing: %+v", res.Rows)
	}
}

func TestRunConstructionWallClockMode(t *testing.T) {
	g, _ := Find("WebNotreDame")
	inst, err := g.Generate(256, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunConstruction(inst, []int{1, 2}, ModeWallClock, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Rows {
		if m.Time <= 0 {
			t.Fatalf("non-positive wall time at p=%d", m.Procs)
		}
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
	res, err := RunConstruction(inst, []int{1, 4, 64}, ModeModel, 1)
	if err != nil {
		t.Fatal(err)
	}
	results := []*Result{res}

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
