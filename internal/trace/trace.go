// Package trace is the request-scoped latency-attribution layer: an
// allocation-free, sampling span recorder in the spirit of internal/obs
// (zero dependencies, ~ns when dark). Where obs answers "how fast is the
// system on average", trace answers "why was THIS batch slow" — the
// aggregate histograms cannot attribute a p99 spike to admission-queue
// wait on one hot shard vs. a cold row table vs. merge cost, and under the
// power-law skew the paper targets, the interesting tail lives in exactly
// that per-shard breakdown.
//
// Shape of the thing:
//
//   - A Trace is a fixed-size span array plus a few header words. Active
//     traces come from a pool, are carried by pointer through the request
//     path (handler → backend → router → legs), and are copied BY VALUE
//     into a lock-free ring buffer when finished — no per-request
//     allocation in steady state, no references retained by the ring.
//   - Every stamping call is nil-safe: a dark request carries a nil *Trace
//     and each site costs one pointer compare, so the untraced hot path is
//     unchanged. Clock reads happen only when a trace is live (the
//     obs.Now/obs.Tick discipline).
//   - Spans are claimed with one atomic add, so concurrent scatter-gather
//     legs stamp into the same trace without locks; overflow beyond
//     MaxSpans is counted, never reallocated.
//   - Completed traces land in a power-of-two ring with per-slot position
//     tagging and try-lock claiming: a contended slot is dropped and
//     counted rather than waited on, so the /debug/traces reader never
//     blocks a request writer (and vice versa).
package trace

import (
	"strconv"
	"sync/atomic"
	"time"
)

// Stage identifies what a span measured. The vocabulary is small and
// every server form emits the same names, so /debug/traces summaries
// aggregate cleanly.
type Stage uint8

const (
	// StageParse is HTTP parameter parsing and validation.
	StageParse Stage = iota
	// StageGroup is the router's shard-grouping pass (counting sort +
	// local-id rewrite).
	StageGroup
	// StageQueueWait is one leg's wait on its shard's admission semaphore
	// — time spent queued behind the shard's in-flight bound.
	StageQueueWait
	// StageExec is one leg's execution on a replica engine, or a BFS's
	// traversal over every shard's rows (shard -1).
	StageExec
	// StageMerge is one leg's scatter of results back into the
	// caller-visible slice.
	StageMerge
	// StageEncode is a batch endpoint appending its JSON body into the
	// pooled response buffer.
	StageEncode
	// StageWrite is that body's single Write to the connection.
	StageWrite

	numStages
)

var stageNames = [numStages]string{
	"parse", "group", "queue_wait", "exec", "merge",
	"encode", "write",
}

// String returns the stage's wire name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "stage_" + strconv.Itoa(int(s))
}

// MarshalJSON emits the stage name, so /debug/traces payloads read as
// "queue_wait", not 2.
func (s Stage) MarshalJSON() ([]byte, error) {
	return strconv.AppendQuote(nil, s.String()), nil
}

// Stages returns every known stage, for summary tables.
func Stages() []Stage {
	out := make([]Stage, numStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// Op identifies the request operation a trace covers; per-op slow
// thresholds and /debug/traces filters key on it.
type Op uint8

const (
	OpOther Op = iota
	OpExists
	OpNeighbors
	OpDegree
	OpBFS
	OpAnalyticsBFS
	OpActive

	// NumOps bounds per-op configuration arrays.
	NumOps
)

var opNames = [NumOps]string{"other", "exists", "neighbors", "degree", "bfs", "analytics_bfs", "active"}

// String returns the op's wire name.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "op_" + strconv.Itoa(int(o))
}

// MarshalJSON emits the op name.
func (o Op) MarshalJSON() ([]byte, error) {
	return strconv.AppendQuote(nil, o.String()), nil
}

// ParseOp maps a wire name back to its Op; unknown names are OpOther.
func ParseOp(s string) Op {
	for i, n := range opNames {
		if n == s {
			return Op(i)
		}
	}
	return OpOther
}

// MaxSpans bounds one trace's span array. Sized for a full scatter-gather
// batch on an 8-shard router (parse + group + 8×(queue_wait, exec, merge))
// with headroom for multi-leg shards; a trace that outgrows it truncates
// (counted in TruncatedSpans) rather than grows.
const MaxSpans = 48

// Span is one measured stage. Shard and Replica are -1 when the stage is
// not shard-scoped; Items is the element count the stage covered; Extra is
// stage-specific (the rounds for a BFS's exec span, 0 elsewhere).
// Offset is nanoseconds from the trace start, so spans reconstruct a
// timeline without absolute clocks.
type Span struct {
	Stage    Stage `json:"stage"`
	Shard    int16 `json:"shard"`
	Replica  int16 `json:"replica"`
	Items    int32 `json:"items"`
	Extra    int64 `json:"extra,omitempty"`
	OffsetNS int64 `json:"offset_ns"`
	DurNS    int64 `json:"dur_ns"`
}

// Trace is one request's span record. The zero value is inert; live traces
// come from Recorder.Start. All stamping methods are safe on a nil
// receiver and safe for concurrent use by scatter-gather legs; header
// accessors (ID, TotalNS, ...) are meant for after Finish, when no leg is
// still stamping.
type Trace struct {
	id    uint64
	op    Op
	start time.Time
	total int64 // ns, set by Finish
	slow  bool  // set by Finish
	// nspans is accessed with sync/atomic only: legs claim span slots
	// concurrently. It may exceed MaxSpans; the excess is the truncation
	// count.
	nspans int32
	spans  [MaxSpans]Span
}

// reset re-arms a pooled trace for a new request.
func (t *Trace) reset(id uint64, op Op) {
	t.id = id
	t.op = op
	t.start = time.Now()
	t.total = 0
	t.slow = false
	atomic.StoreInt32(&t.nspans, 0)
}

// ID returns the trace id — the value echoed in X-Request-ID and joined
// against the access log and slow-query log.
func (t *Trace) ID() uint64 { return t.id }

// IDString formats the id the way every surface prints it (16 hex digits).
func (t *Trace) IDString() string { return FormatID(t.id) }

// FormatID renders a trace id as 16 lower-case hex digits.
func FormatID(id uint64) string {
	const hexdigits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hexdigits[id&0xf]
		id >>= 4
	}
	return string(b[:])
}

// ParseID parses FormatID's output (or any hex string) back to an id.
func ParseID(s string) (uint64, bool) {
	id, err := strconv.ParseUint(s, 16, 64)
	return id, err == nil
}

// Op returns the operation the trace covers.
func (t *Trace) Op() Op { return t.op }

// StartTime returns when the trace began.
func (t *Trace) StartTime() time.Time { return t.start }

// TotalNS returns the request's total nanoseconds (0 until Finish).
func (t *Trace) TotalNS() int64 { return t.total }

// Slow reports whether Finish classified the trace over its op's slow
// threshold.
func (t *Trace) Slow() bool { return t.slow }

// TruncatedSpans returns how many spans were dropped past MaxSpans.
func (t *Trace) TruncatedSpans() int {
	n := atomic.LoadInt32(&t.nspans)
	if n <= MaxSpans {
		return 0
	}
	return int(n - MaxSpans)
}

// Spans returns a copy of the recorded spans. Call after the request
// completes; the debug endpoints and the slow-query log are the intended
// consumers.
func (t *Trace) Spans() []Span {
	n := atomic.LoadInt32(&t.nspans)
	if n > MaxSpans {
		n = MaxSpans
	}
	out := make([]Span, n)
	copy(out, t.spans[:n])
	return out
}

// Now returns the current time when the trace is live and the zero Time on
// a nil trace, so dark request paths never read the clock:
//
//	s := tr.Now()
//	... stage ...
//	tr.Span(trace.StageGroup, len(ids), s)
func (t *Trace) Now() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// Span records a stage with no shard attribution, measured from start to
// now. No-op on a nil trace or a zero start.
func (t *Trace) Span(st Stage, items int, start time.Time) {
	t.LegSpan(st, -1, -1, items, 0, start)
}

// LegSpan records a shard-scoped stage: one scatter-gather leg's wait,
// execution, or merge. extra carries stage-specific detail (row-table hits
// on existence exec legs). Safe for concurrent use — each call claims its
// slot with one atomic add.
func (t *Trace) LegSpan(st Stage, shard, replica, items int, extra int64, start time.Time) {
	if t == nil || start.IsZero() {
		return
	}
	i := atomic.AddInt32(&t.nspans, 1) - 1
	if i >= MaxSpans {
		return
	}
	now := time.Now()
	t.spans[i] = Span{
		Stage:    st,
		Shard:    int16(shard),
		Replica:  int16(replica),
		Items:    int32(items),
		Extra:    extra,
		OffsetNS: start.Sub(t.start).Nanoseconds(),
		DurNS:    now.Sub(start).Nanoseconds(),
	}
}
