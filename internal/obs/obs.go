// Package obs is the runtime observability core: a dependency-free metrics
// layer cheap enough to live on the query hot path. The paper's Section V
// scenario — millions of users querying at once — is only tunable if the
// parallel kernels report where their time goes (per-worker load, per-stage
// wall times, per-batch latency), so every layer of this repo records into
// the primitives here and internal/server exposes them in Prometheus text
// format.
//
// Design constraints, in order:
//
//   - Disabled must be almost free. Collection is off until SetEnabled(true)
//     (csrserver's -metrics flag); a disabled Counter.Add or
//     Histogram.Observe is one atomic load and a branch, ~1ns, so the
//     instrumented hot paths cost nothing in the benchmark configuration.
//     BenchmarkObsCounter/BenchmarkObsHistogram in this package and the
//     obs=off|on variants of the root query benchmarks gate this.
//   - Enabled must not serialize workers. Counters shared by a worker team
//     are striped per worker onto separate cache lines (WorkerCounter), and
//     histograms are fixed power-of-two buckets updated with atomic adds —
//     no locks anywhere on a record path.
//   - Exposition is pull-only and out of band: WritePrometheus walks the
//     registry under a lock that record paths never take.
//
// Metric names follow the Prometheus data model; labels are baked into the
// registered name (GetCounter(`csrgraph_query_dispatch_total{path="search"}`)),
// VictoriaMetrics-style, so the registry stays a flat name → series map and
// hot paths hold a *Counter, never a map lookup.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// enabled is the process-wide collection switch. Off by default: library
// users pay only the load+branch until something (csrserver -metrics, a
// test, a benchmark variant) turns collection on.
var enabled atomic.Bool

// SetEnabled turns metric collection on or off process-wide. Safe to call
// concurrently with recording; samples recorded while disabled are dropped,
// not buffered.
func SetEnabled(v bool) { enabled.Store(v) }

// Enabled reports whether collection is on. Instrumentation sites that need
// extra work beyond a counter add (reading the clock, sizing a scratch
// slice) branch on this themselves.
func Enabled() bool { return enabled.Load() }

// cacheLine is the assumed coherence granularity; stripes are padded to it
// so two workers bumping adjacent stripes never ping-pong a line.
const cacheLine = 64

// paddedInt64 is one cache line holding one atomic counter.
type paddedInt64 struct {
	v atomic.Int64
	_ [cacheLine - 8]byte
}

// Counter is a monotonically increasing cumulative metric. A single padded
// atomic: the right shape for events recorded by one goroutine at a time or
// rarely (jobs submitted, encode failures). Pool hot paths use
// WorkerCounter instead.
type Counter struct {
	v paddedInt64
}

// Add increments the counter by n when collection is enabled.
func (c *Counter) Add(n int64) {
	if enabled.Load() {
		c.v.v.Add(n)
	}
}

// Inc is Add(1).
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.v.Load() }

// WorkerCounter is a counter striped across cache-line-padded per-worker
// slots, for events recorded concurrently by a worker team (chunks claimed,
// busy nanoseconds). Add indexes by the caller's worker id modulo the
// stripe count, so any dense id scheme works and an out-of-team caller can
// pass any index; Total sums the stripes. Exposition emits one series per
// stripe with a worker="i" label.
type WorkerCounter struct {
	stripes []paddedInt64
}

// NewWorkerCounter returns an unregistered counter with n stripes (n <= 0
// is treated as 1). Most callers want GetWorkerCounter instead.
func NewWorkerCounter(n int) *WorkerCounter {
	if n <= 0 {
		n = 1
	}
	return &WorkerCounter{stripes: make([]paddedInt64, n)}
}

// Add increments worker's stripe by n when collection is enabled.
func (c *WorkerCounter) Add(worker int, n int64) {
	if enabled.Load() {
		c.stripes[uint(worker)%uint(len(c.stripes))].v.Add(n)
	}
}

// Total sums all stripes.
func (c *WorkerCounter) Total() int64 {
	var t int64
	for i := range c.stripes {
		t += c.stripes[i].v.Load()
	}
	return t
}

// Stripes returns the stripe count.
func (c *WorkerCounter) Stripes() int { return len(c.stripes) }

// Stripe returns the count in stripe i.
func (c *WorkerCounter) Stripe(i int) int64 { return c.stripes[i].v.Load() }

// Gauge is a named instantaneous value (a ratio, a size, a level). Unlike
// counters and histograms, Set is NOT gated on Enabled: gauges are written
// at coarse checkpoints (end of a build stage), never per element, and a
// gauge set before collection is switched on should still be visible at the
// first scrape.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// histBuckets is the number of exponential histogram buckets: bucket i
// counts observations v with 2^(i-1) < v <= 2^i (bucket 0 takes v <= 1),
// covering int64's full positive range.
const histBuckets = 64

// Histogram is a lock-free cumulative histogram with power-of-two bucket
// boundaries — bucket selection is one bits.Len64, and every record is two
// or three uncontended atomic adds. Raw observations are int64 (typically
// nanoseconds or element counts); scale only affects exposition, converting
// raw units to the advertised unit (1e-9 turns nanoseconds into a
// *_seconds histogram).
type Histogram struct {
	scale   float64
	count   atomic.Int64
	sum     atomic.Int64
	ex      atomic.Pointer[exemplar]
	buckets [histBuckets]atomic.Int64
}

// exemplar is the largest observation seen so far paired with the trace id
// that produced it, published as one immutable value so readers never see
// a value from one observation with the id of another.
type exemplar struct {
	v  int64
	id uint64
}

// NewHistogram returns an unregistered histogram exposing raw values
// (scale 1). Most callers want GetHistogram / GetDurationHistogram.
func NewHistogram() *Histogram { return &Histogram{scale: 1} }

// bucketOf maps an observation to its bucket: the smallest i with
// v <= 2^i, capped to the last bucket.
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	i := bits.Len64(uint64(v - 1))
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// Observe records v when collection is enabled. Negative observations are
// clamped into bucket 0 (they only arise from clock anomalies).
func (h *Histogram) Observe(v int64) {
	if !enabled.Load() {
		return
	}
	h.buckets[bucketOf(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// ObserveDuration records d in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Nanoseconds()) }

// ObserveExemplar records v (subject to the usual enabled gate) and, when v
// is the largest observation this histogram has seen, remembers id as its
// exemplar — the trace id answering "which request was the worst one". The
// exemplar update is NOT gated on Enabled, mirroring Gauge: request tracing
// works without -metrics, and the max is maintained with a CAS loop that
// allocates only on a new maximum (logarithmically rare).
func (h *Histogram) ObserveExemplar(v int64, id uint64) {
	h.Observe(v)
	for {
		cur := h.ex.Load()
		if cur != nil && cur.v >= v {
			return
		}
		if h.ex.CompareAndSwap(cur, &exemplar{v: v, id: id}) {
			return
		}
	}
}

// Exemplar returns the id and value of the largest observation recorded via
// ObserveExemplar (zeros if none).
func (h *Histogram) Exemplar() (id uint64, v int64) {
	if e := h.ex.Load(); e != nil {
		return e.id, e.v
	}
	return 0, 0
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of raw observations.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Quantile returns an upper bound on the q-quantile (0 <= q <= 1) of the
// raw observations: the boundary of the bucket where the cumulative count
// crosses q. Resolution is the bucket width (a factor of two), which is
// plenty for p50/p95/p99 latency triage.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= rank {
			if i == histBuckets-1 {
				// The overflow bucket has no finite upper boundary — it
				// absorbs everything past 2^62, including sentinel-large
				// values like MaxInt64. Report its LOWER bound: "at least
				// 2^62" is honest, while 2^63 would exceed every int64
				// observation that can exist.
				return float64(uint64(1) << uint(histBuckets-2))
			}
			return float64(uint64(1) << uint(i))
		}
	}
	return math.Inf(1)
}

// ImbalanceRatio is max/mean over per-chunk (or per-worker) nanosecond
// tallies of one parallel stage: 1.0 means a perfectly balanced split, p
// means one participant did everything. Zero-duration runs (tiny inputs
// under clock resolution) report 1.
func ImbalanceRatio(chunkNS []int64) float64 {
	if len(chunkNS) == 0 {
		return 1
	}
	var max, sum int64
	for _, v := range chunkNS {
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return 1
	}
	mean := float64(sum) / float64(len(chunkNS))
	return float64(max) / mean
}

// Now returns the current time when metrics are enabled and the zero Time
// otherwise, so hot paths read the clock only when someone is looking:
//
//	start := obs.Now()
//	... stage ...
//	start = obs.Tick(stageHist, start)
func Now() time.Time {
	if !enabled.Load() {
		return time.Time{}
	}
	return time.Now()
}

// Tick observes the wall time since start into h and returns the current
// time, for chaining across pipeline stages. A zero start (collection was
// off at obs.Now) is passed through untouched.
func Tick(h *Histogram, start time.Time) time.Time {
	if start.IsZero() {
		return start
	}
	now := time.Now()
	h.Observe(now.Sub(start).Nanoseconds())
	return now
}
