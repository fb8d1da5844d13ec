package trace

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestStageAndOpNames(t *testing.T) {
	if StageQueueWait.String() != "queue_wait" || StageMerge.String() != "merge" {
		t.Fatalf("stage names: %s %s", StageQueueWait, StageMerge)
	}
	if got, _ := StageExec.MarshalJSON(); string(got) != `"exec"` {
		t.Fatalf("stage json = %s", got)
	}
	// The name table and the enum move together: every stage has a name,
	// and the wire-path stages sit at the end.
	for _, st := range Stages() {
		if st.String() == "" {
			t.Fatalf("stage %d has no name", st)
		}
	}
	if StageEncode.String() != "encode" || StageWrite.String() != "write" {
		t.Fatalf("stage names: %s %s", StageEncode, StageWrite)
	}
	for op := Op(0); op < NumOps; op++ {
		if ParseOp(op.String()) != op {
			t.Fatalf("ParseOp(%q) != %v", op.String(), op)
		}
	}
	if ParseOp("nonsense") != OpOther {
		t.Fatal("unknown op should parse to other")
	}
}

func TestFormatParseID(t *testing.T) {
	for _, id := range []uint64{0, 1, 0xdeadbeef, ^uint64(0)} {
		s := FormatID(id)
		if len(s) != 16 {
			t.Fatalf("FormatID(%d) = %q", id, s)
		}
		back, ok := ParseID(s)
		if !ok || back != id {
			t.Fatalf("round trip %d -> %q -> %d", id, s, back)
		}
	}
	if _, ok := ParseID("zz"); ok {
		t.Fatal("bad hex should not parse")
	}
}

func TestNilTraceStampingIsInert(t *testing.T) {
	var tr *Trace
	if !tr.Now().IsZero() {
		t.Fatal("nil trace must not read the clock")
	}
	tr.Span(StageParse, 4, time.Now())             // must not panic
	tr.LegSpan(StageExec, 0, 0, 4, 0, time.Time{}) // must not panic
}

func TestTraceSpans(t *testing.T) {
	r := NewRecorder(RecorderConfig{Sample: 1})
	tr := r.Start(OpExists, false)
	if tr == nil {
		t.Fatal("sample=1 must trace every request")
	}
	s := tr.Now()
	tr.Span(StageParse, 10, s)
	tr.LegSpan(StageExec, 3, 1, 128, 42, tr.Now())
	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].Stage != StageParse || spans[0].Shard != -1 || spans[0].Items != 10 {
		t.Fatalf("span 0 = %+v", spans[0])
	}
	if spans[1].Shard != 3 || spans[1].Replica != 1 || spans[1].Extra != 42 {
		t.Fatalf("span 1 = %+v", spans[1])
	}
	if spans[1].OffsetNS < spans[0].OffsetNS {
		t.Fatalf("offsets not monotone: %+v", spans)
	}
	r.Finish(tr)
}

func TestSpanOverflowTruncates(t *testing.T) {
	r := NewRecorder(RecorderConfig{Sample: 1})
	tr := r.Start(OpBFS, false)
	for i := 0; i < MaxSpans+7; i++ {
		tr.Span(StageExec, i, tr.Now())
	}
	if got := tr.TruncatedSpans(); got != 7 {
		t.Fatalf("truncated = %d, want 7", got)
	}
	if got := len(tr.Spans()); got != MaxSpans {
		t.Fatalf("spans = %d, want %d", got, MaxSpans)
	}
	r.Finish(tr)
}

func TestConcurrentLegStamping(t *testing.T) {
	r := NewRecorder(RecorderConfig{Sample: 1})
	tr := r.Start(OpNeighbors, false)
	var wg sync.WaitGroup
	const legs = 16
	for i := 0; i < legs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr.LegSpan(StageExec, i, 0, 1, 0, tr.Now())
		}(i)
	}
	wg.Wait()
	spans := tr.Spans()
	if len(spans) != legs {
		t.Fatalf("got %d spans, want %d", len(spans), legs)
	}
	seen := map[int16]bool{}
	for _, s := range spans {
		seen[s.Shard] = true
	}
	if len(seen) != legs {
		t.Fatalf("lost a leg: %v", seen)
	}
	r.Finish(tr)
}

func TestHeadSampling(t *testing.T) {
	r := NewRecorder(RecorderConfig{Sample: 4})
	if r.SampleEvery() != 4 {
		t.Fatalf("SampleEvery = %d", r.SampleEvery())
	}
	traced := 0
	for i := 0; i < 64; i++ {
		if tr := r.Start(OpExists, false); tr != nil {
			traced++
			r.Finish(tr)
		}
	}
	if traced != 16 {
		t.Fatalf("traced %d of 64 at 1/4", traced)
	}
	// Sampling off: only forced requests trace.
	r = NewRecorder(RecorderConfig{})
	if tr := r.Start(OpExists, false); tr != nil {
		t.Fatal("sample=0 must not head-sample")
	}
	if tr := r.Start(OpExists, true); tr == nil {
		t.Fatal("forced request must trace even with sampling off")
	} else {
		r.Finish(tr)
	}
	// Nil recorder: everything inert.
	var nilRec *Recorder
	if tr := nilRec.Start(OpExists, true); tr != nil {
		t.Fatal("nil recorder must not trace")
	}
	nilRec.Finish(nil)
}

func TestRecentAndFind(t *testing.T) {
	r := NewRecorder(RecorderConfig{Sample: 1, Capacity: 32})
	var ids []uint64
	for i := 0; i < 10; i++ {
		op := OpExists
		if i%2 == 1 {
			op = OpNeighbors
		}
		tr := r.Start(op, false)
		tr.Span(StageParse, i, tr.Now())
		ids = append(ids, tr.ID())
		r.Finish(tr)
	}
	all := r.Recent(-1, 100, false)
	if len(all) != 10 {
		t.Fatalf("recent = %d", len(all))
	}
	if all[0].ID() != ids[9] {
		t.Fatalf("newest first: got id %d, want %d", all[0].ID(), ids[9])
	}
	onlyExists := r.Recent(int(OpExists), 100, false)
	if len(onlyExists) != 5 {
		t.Fatalf("op filter = %d", len(onlyExists))
	}
	for _, tr := range onlyExists {
		if tr.Op() != OpExists {
			t.Fatalf("filter leaked op %v", tr.Op())
		}
	}
	got, ok := r.Find(ids[3])
	if !ok || got.ID() != ids[3] || len(got.Spans()) != 1 {
		t.Fatalf("find: %v %+v", ok, got)
	}
	if _, ok := r.Find(99999); ok {
		t.Fatal("found a trace that was never recorded")
	}
}

func TestSlowCapture(t *testing.T) {
	r := NewRecorder(RecorderConfig{Sample: 1, SlowThreshold: time.Nanosecond})
	r.SetSlowThreshold(OpDegree, 0) // disabled for this op
	var mu sync.Mutex
	var slowIDs []uint64
	r.SetOnSlow(func(tr *Trace) {
		mu.Lock()
		slowIDs = append(slowIDs, tr.ID())
		mu.Unlock()
	})

	tr := r.Start(OpExists, false)
	time.Sleep(time.Microsecond)
	r.Finish(tr)
	fast := r.Start(OpDegree, false)
	r.Finish(fast)

	mu.Lock()
	defer mu.Unlock()
	if len(slowIDs) != 1 {
		t.Fatalf("slow hook fired %d times", len(slowIDs))
	}
	slow := r.Recent(-1, 10, true)
	if len(slow) != 1 || !slow[0].Slow() || slow[0].ID() != slowIDs[0] {
		t.Fatalf("slow ring = %+v", slow)
	}
	if r.SlowThreshold(OpDegree) != 0 || r.SlowThreshold(OpExists) != time.Nanosecond {
		t.Fatal("per-op thresholds wrong")
	}
}

func TestRingWrapKeepsNewest(t *testing.T) {
	r := NewRing(8)
	var tr Trace
	for i := 1; i <= 100; i++ {
		tr.reset(uint64(i), OpExists)
		r.Push(&tr)
	}
	got := r.Snapshot(100, nil)
	if len(got) != 8 {
		t.Fatalf("snapshot = %d, want ring cap 8", len(got))
	}
	for i, tt := range got {
		if want := uint64(100 - i); tt.ID() != want {
			t.Fatalf("slot %d id %d, want %d", i, tt.ID(), want)
		}
	}
}

// TestRingConcurrentReadersWriters is the seqlock's race-detector test:
// writers push while readers snapshot; every trace a reader observes must
// be internally consistent (id stamped into both header and first span).
func TestRingConcurrentReadersWriters(t *testing.T) {
	r := NewRing(16)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var tr Trace
			for i := 1; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := uint64(w)<<32 | uint64(i)
				tr.reset(id, OpExists)
				tr.Span(StageExec, int(id&0x7fffffff), time.Now())
				tr.total = int64(id)
				r.Push(&tr)
			}
		}(w)
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	for time.Now().Before(deadline) {
		for _, tr := range r.Snapshot(16, nil) {
			spans := tr.Spans()
			if len(spans) != 1 {
				t.Errorf("torn read: %d spans", len(spans))
				continue
			}
			if tr.TotalNS() != int64(tr.ID()) {
				t.Errorf("torn read: id %d total %d", tr.ID(), tr.TotalNS())
			}
			if want := int32(tr.ID() & 0x7fffffff); spans[0].Items != want {
				t.Errorf("torn read: span items %d, want %d", spans[0].Items, want)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestContextRoundTrip(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context must carry no trace")
	}
	r := NewRecorder(RecorderConfig{Sample: 1})
	tr := r.Start(OpExists, false)
	ctx := NewContext(context.Background(), tr)
	if FromContext(ctx) != tr {
		t.Fatal("context round trip lost the trace")
	}
	r.Finish(tr)
}

// BenchmarkTraceDark is the disabled-cost gate: a nil trace at a stamping
// site must cost a pointer compare, nothing more.
func BenchmarkTraceDark(b *testing.B) {
	var tr *Trace
	for i := 0; i < b.N; i++ {
		s := tr.Now()
		tr.Span(StageExec, 1, s)
	}
}

// BenchmarkTraceSpan is the live stamping cost (two clock reads + one
// atomic add + one 32-byte store).
func BenchmarkTraceSpan(b *testing.B) {
	r := NewRecorder(RecorderConfig{Sample: 1})
	tr := r.Start(OpExists, false)
	defer r.Finish(tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i&(MaxSpans-1) == 0 {
			tr.reset(1, OpExists)
		}
		tr.Span(StageExec, 1, tr.Now())
	}
}

// BenchmarkRecorderStartFinish is the full per-sampled-request overhead:
// pool get, reset, seal, ring push, pool put.
func BenchmarkRecorderStartFinish(b *testing.B) {
	r := NewRecorder(RecorderConfig{Sample: 1})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr := r.Start(OpExists, false)
		tr.Span(StageExec, 4096, tr.Now())
		r.Finish(tr)
	}
}

// BenchmarkRecorderUnsampled is the cost a recorder adds to requests the
// sampler skips: one atomic add and a mask.
func BenchmarkRecorderUnsampled(b *testing.B) {
	r := NewRecorder(RecorderConfig{Sample: 1 << 62})
	for i := 0; i < b.N; i++ {
		if tr := r.Start(OpExists, false); tr != nil {
			b.Fatal("should not sample")
		}
	}
}

func TestFinishClampsCorruptOp(t *testing.T) {
	r := NewRecorder(RecorderConfig{Sample: 1, SlowThreshold: time.Nanosecond})
	tr := r.Start(OpExists, false)
	if tr == nil {
		t.Fatal("sample=1 must trace every request")
	}
	// Traces round-trip through a pool; a stale or future-versioned op
	// must clamp onto OpOther instead of indexing past slowNS.
	tr.op = NumOps + 3
	r.Finish(tr) // must not panic
	got := r.Recent(-1, 1, false)
	if len(got) != 1 {
		t.Fatalf("Recent returned %d traces, want 1", len(got))
	}
}
