package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middle values for an
// even count) without reordering the caller's slice; 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile is the nearest-rank q-quantile (0 < q <= 1) of xs: the
// smallest sample with at least q of the samples at or below it, so p99 of
// 1000 samples leaves exactly 10 beyond it.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

// selfTime is a span's duration minus the part its child replay covers,
// never below zero: replays are separate executions, and a child can by
// chance run longer than the parent it is subtracted from.
func selfTime(span, children float64) float64 {
	return max(0, span-children)
}

// sample is one timed operation of a closed loop: when it completed
// (ns since the loop started), how long it took, and what it carried.
type sample struct {
	doneNS int64
	latNS  int64
	req    int32 // index into the pool
	items  int32
	bytes  int64 // response body bytes
}

// window is what one measurement window saw.
type window struct {
	seconds           float64 // from the first request sent to the last reply
	ops, items, bytes int64
	latMS             []float64
	cpuUS             float64 // process CPU spent inside the window
}

func newWindow(samples []sample, seconds, cpuUS float64) window {
	w := window{seconds: seconds, cpuUS: cpuUS, ops: int64(len(samples)), latMS: make([]float64, len(samples))}
	for i, s := range samples {
		w.items += int64(s.items)
		w.bytes += s.bytes
		w.latMS[i] = float64(s.latNS) / 1e6
	}
	return w
}

// perWindow evaluates f on every window.
func perWindow(ws []window, f func(w *window) float64) []float64 {
	vals := make([]float64, len(ws))
	for i := range ws {
		vals[i] = f(&ws[i])
	}
	return vals
}
