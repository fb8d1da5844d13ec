package main

import (
	"encoding/json"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{5, 5, 1, 9, 100, 0}, 5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1000 down to 1, unsorted on purpose
	}
	// Nearest rank: p99 of 1000 samples is the 990th, leaving 10 beyond it.
	if got := percentile(xs, 0.99); got != 990 {
		t.Errorf("p99 = %v, want 990", got)
	}
	if got := percentile(xs, 0.50); got != 500 {
		t.Errorf("p50 = %v, want 500", got)
	}
	if got := percentile(xs, 1); got != 1000 {
		t.Errorf("p100 = %v, want 1000", got)
	}
	if got := percentile([]float64{42}, 0.99); got != 42 {
		t.Errorf("p99 of one sample = %v, want 42", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestSelfTime(t *testing.T) {
	if got := selfTime(10, 4); got != 6 {
		t.Errorf("selfTime(10, 4) = %v, want 6", got)
	}
	// A child replay that ran longer than its parent leaves no self time.
	if got := selfTime(4, 10); got != 0 {
		t.Errorf("selfTime(4, 10) = %v, want 0", got)
	}
}

func TestWindows(t *testing.T) {
	ws := []window{
		newWindow([]sample{{latNS: 1e6, items: 1, bytes: 10}, {latNS: 3e6, items: 2, bytes: 20}}, 2, 500),
		newWindow([]sample{{latNS: 5e6, items: 4}}, 1, 100),
	}
	if w := ws[0]; w.ops != 2 || w.items != 3 || w.bytes != 30 || len(w.latMS) != 2 || w.seconds != 2 || w.cpuUS != 500 {
		t.Errorf("window 0 = %+v", w)
	}
	if w := ws[1]; w.ops != 1 || w.items != 4 || w.latMS[0] != 5 {
		t.Errorf("window 1 = %+v", w)
	}
	// A metric is computed per window first, over the window's own length.
	raw := make(map[string][]float64)
	loopMetrics(ws, raw)
	if got := raw["throughput_qps"]; len(got) != 2 || got[0] != 1.5 || got[1] != 4 {
		t.Errorf("throughput per window = %v, want [1.5 4]", got)
	}
	if got := raw["cpu_us_per_query"]; got[1] != 25 {
		t.Errorf("cpu per query per window = %v, want 25 in the second", got)
	}
}

func TestInterleave(t *testing.T) {
	mix := []mixEntry{{Share: 3}, {Share: 1}, {Share: 1}}
	pattern := interleave(mix)
	if len(pattern) != 5 {
		t.Fatalf("pattern %v, want one period of 5", pattern)
	}
	count := make([]int, 3)
	for i, m := range pattern {
		count[m]++
		if i > 0 && m != 0 && pattern[i-1] == m {
			t.Errorf("pattern %v clusters entry %d", pattern, m)
		}
	}
	if count[0] != 3 || count[1] != 1 || count[2] != 1 {
		t.Errorf("pattern %v has shares %v, want 3:1:1", pattern, count)
	}
}

func TestCacheHitRatio(t *testing.T) {
	for _, c := range []struct {
		name  string
		stats any
		want  float64
	}{
		{"plain server", json.RawMessage(`{"cache":{"hits":30,"misses":10,"bytes":5}}`), 0.75},
		{"one cache per shard replica", json.RawMessage(
			`{"shards":[{"replicas":[{"cache":{"hits":1,"misses":3}}]},{"replicas":[{"cache":{"hits":3,"misses":1}}]}]}`), 0.5},
		{"no cache configured", json.RawMessage(`{"nodes":10}`), 0},
		{"endpoint absent", map[string]any{"status": 404}, 0},
		{"not JSON", "uptime 3s", 0},
	} {
		if got := cacheHitRatio(c.stats); got != c.want {
			t.Errorf("%s: hit ratio %v, want %v", c.name, got, c.want)
		}
	}
}

// TestMeasureLoop drives measureLoop with a loop that answers at once: the
// warm-up is counted but not sampled, every window is measured over its own
// length with the loop resuming where it stopped, and between runs after
// each window while the loop is at rest.
func TestMeasureLoop(t *testing.T) {
	running := false
	var starts []int64
	loop := func(start int64, stop <-chan struct{}) loopResult {
		running = true
		defer func() { running = false }()
		starts = append(starts, start)
		var res loopResult
		for {
			select {
			case <-stop:
				return res
			default:
			}
			res.attempted++
			res.samples = append(res.samples, sample{latNS: 1000, items: 2})
			time.Sleep(time.Millisecond)
		}
	}
	var called []int
	between := func(window int) error {
		if running {
			t.Error("between ran while the loop was running")
		}
		called = append(called, window)
		return nil
	}
	p := profile{WarmupS: 0.02, Windows: 3, WindowS: 0.03}
	m, err := measureLoop(p, "self", loop, between)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.windows) != 3 || len(called) != 3 || called[2] != 2 {
		t.Fatalf("%d windows, between called for %v, want 3 and [0 1 2]", len(m.windows), called)
	}
	var ops int64
	for i, w := range m.windows {
		if w.ops == 0 || w.items != 2*w.ops || w.seconds < p.WindowS {
			t.Errorf("window %d = {ops %d, items %d, %v s}", i, w.ops, w.items, w.seconds)
		}
		ops += w.ops
	}
	if int64(len(m.samples)) != ops || m.attempted <= ops {
		t.Errorf("%d samples for %d windowed operations of %d attempted; the warm-up must be counted and not sampled",
			len(m.samples), ops, m.attempted)
	}
	if len(starts) != 4 || starts[0] != 0 || starts[3] != m.attempted-m.windows[2].ops {
		t.Errorf("stretches started at %v of %d attempted, want each to resume where the last stopped", starts, m.attempted)
	}
}
