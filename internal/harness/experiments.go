package harness

import (
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"csrgraph/internal/csr"
)

// Sweep is the default processor sweep for a host of maxProcs
// processors: 1, then doubling, always ending at maxProcs ([1 2 4 6] for 6).
func Sweep(maxProcs int) []int {
	out := []int{1}
	for p := 2; p < maxProcs; p *= 2 {
		out = append(out, p)
	}
	if maxProcs > 1 {
		out = append(out, maxProcs)
	}
	return out
}

// ParseProcs parses a comma-separated processor list; the empty string
// selects Sweep(runtime.GOMAXPROCS(0)).
func ParseProcs(s string) ([]int, error) {
	if s == "" {
		return Sweep(runtime.GOMAXPROCS(0)), nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || p < 1 {
			return nil, fmt.Errorf("bad processor count %q", part)
		}
		out = append(out, p)
	}
	return out, nil
}

// Measurement is one (graph, p) cell of Table II.
type Measurement struct {
	Procs    int
	Time     time.Duration
	SpeedupP float64 // percent, Table II's last column; 0 for p == 1
}

// Result holds everything Table II reports for one graph.
type Result struct {
	Spec     GraphSpec
	Scale    int
	NumNodes int
	NumEdges int
	// EdgeListSize is the SNAP-text footprint (the paper's accounting for
	// Table II's fourth column); EdgeListBinarySize is the 8-bytes-per-edge
	// in-memory form.
	EdgeListSize       int64
	EdgeListBinarySize int64
	CSRSize            int64
	Rows               []Measurement
}

// MedianOf runs fn k times and returns the median wall time. k is forced
// odd and at least 1.
func MedianOf(k int, fn func()) time.Duration {
	times := make([]time.Duration, oddReps(k))
	for i := range times {
		times[i] = timeRun(fn)
	}
	return median(times)
}

// TimeSweep times build at every processor count of procs, median of reps
// runs each, and gives each row its speed-up over p = 1 (timed even when
// procs lacks it). The counts take turns within each repetition, so a slow
// spell of a shared host lands on all of them alike.
func TimeSweep(procs []int, reps int, build func(p int)) []Measurement {
	times := make([][]time.Duration, len(procs)+1) // [0] is p = 1, [i+1] is procs[i]
	for range oddReps(reps) {
		times[0] = append(times[0], timeRun(func() { build(1) }))
		for i, p := range procs {
			if p > 1 {
				times[i+1] = append(times[i+1], timeRun(func() { build(p) }))
			}
		}
	}
	t1 := median(times[0])
	rows := make([]Measurement, 0, len(procs))
	for i, p := range procs {
		m := Measurement{Procs: p, Time: t1}
		if p > 1 {
			m.Time = median(times[i+1])
		}
		if t1 > 0 {
			m.SpeedupP = 100 * float64(t1-m.Time) / float64(t1)
		}
		rows = append(rows, m)
	}
	return rows
}

func oddReps(k int) int { return max(k, 1) | 1 }

// timeRun returns fn's wall time, run on a freshly collected heap so that
// no earlier run's garbage is collected on its clock.
func timeRun(fn func()) time.Duration {
	runtime.GC()
	start := time.Now()
	fn()
	return time.Since(start)
}

func median(times []time.Duration) time.Duration {
	slices.Sort(times)
	return times[len(times)/2]
}

// RunConstruction measures packed-CSR construction for one instance across
// the processor sweep. reps is the median-of-k repetition count.
func RunConstruction(inst *Instance, procs []int, reps int) *Result {
	return &Result{
		Spec:               inst.Spec,
		Scale:              inst.Scale,
		NumNodes:           inst.NumNodes,
		NumEdges:           len(inst.Edges),
		EdgeListSize:       inst.Edges.TextSizeBytes(),
		EdgeListBinarySize: inst.Edges.SizeBytes(),
		CSRSize:            csr.BuildPacked(inst.Edges, inst.NumNodes, 1).SizeBytes(),
		Rows: TimeSweep(procs, reps, func(p int) {
			csr.BuildPacked(inst.Edges, inst.NumNodes, p)
		}),
	}
}

// ScalePoint is one measurement of the scaling experiment.
type ScalePoint struct {
	Scale    int
	NumNodes int
	NumEdges int
	Time     time.Duration
	// NsPerEdge is Time divided by the edge count — flat when construction
	// is linear in m, which the paper's algorithms are.
	NsPerEdge float64
}

// RunScaling measures p=1 packed-CSR construction for one registry graph
// across a series of scale divisors (paper size / scale), demonstrating
// the linear-work behaviour of the construction pipeline.
func RunScaling(spec GraphSpec, scales []int, reps, genProcs int) ([]ScalePoint, error) {
	out := make([]ScalePoint, 0, len(scales))
	for _, s := range scales {
		inst, err := spec.Generate(s, genProcs)
		if err != nil {
			return nil, err
		}
		t := MedianOf(reps, func() { csr.BuildPacked(inst.Edges, inst.NumNodes, 1) })
		pt := ScalePoint{
			Scale:    s,
			NumNodes: inst.NumNodes,
			NumEdges: len(inst.Edges),
			Time:     t,
		}
		if pt.NumEdges > 0 {
			pt.NsPerEdge = float64(t.Nanoseconds()) / float64(pt.NumEdges)
		}
		out = append(out, pt)
	}
	return out, nil
}
