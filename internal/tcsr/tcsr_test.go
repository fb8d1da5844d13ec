package tcsr

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"csrgraph/internal/edgelist"
)

// simulator is a brute-force reference: it applies toggle events frame by
// frame and answers activity queries from a set.
type simulator struct {
	numFrames int
	active    []map[edgelist.Edge]bool // active set after each frame
}

func simulate(events edgelist.TemporalList, numFrames int) *simulator {
	s := &simulator{numFrames: numFrames, active: make([]map[edgelist.Edge]bool, numFrames)}
	cur := map[edgelist.Edge]bool{}
	for t := 0; t < numFrames; t++ {
		for _, ev := range events {
			if int(ev.T) != t {
				continue
			}
			e := edgelist.Edge{U: ev.U, V: ev.V}
			if cur[e] {
				delete(cur, e)
			} else {
				cur[e] = true
			}
		}
		snap := make(map[edgelist.Edge]bool, len(cur))
		for e := range cur {
			snap[e] = true
		}
		s.active[t] = snap
	}
	return s
}

// snapshot returns the (u, v)-sorted edges active after frame t.
func (s *simulator) snapshot(t int) edgelist.List {
	out := edgelist.List{}
	for e := range s.active[t] {
		out = append(out, e)
	}
	out.SortByUV(1)
	return out
}

// neighbors returns the sorted ids v with (u, v) active after frame t.
func (s *simulator) neighbors(u uint32, t int) []uint32 {
	out := []uint32{}
	for e := range s.active[t] {
		if e.U == u {
			out = append(out, e.V)
		}
	}
	slices.Sort(out)
	return out
}

func randomEvents(n, numNodes, numFrames int, seed int64) edgelist.TemporalList {
	rng := rand.New(rand.NewSource(seed))
	ev := make(edgelist.TemporalList, n)
	for i := range ev {
		ev[i] = edgelist.TemporalEdge{
			U: rng.Uint32() % uint32(numNodes),
			V: rng.Uint32() % uint32(numNodes),
			T: rng.Uint32() % uint32(numFrames),
		}
	}
	ev.Sort(1)
	// Duplicate events inside one frame would double-toggle; dedup them.
	out := ev[:0]
	for i, e := range ev {
		if i == 0 || e != ev[i-1] {
			out = append(out, e)
		}
	}
	return out
}

// TestPaperFigure4 follows the paper's Figure 4 narrative: a graph evolving
// over 4 time-frames with edges added (dotted) and deleted (red).
func TestPaperFigure4(t *testing.T) {
	// T0: edges (0,1), (1,2). T1: add (2,3). T2: delete (1,2). T3: re-add (1,2).
	events := edgelist.TemporalList{
		{U: 0, V: 1, T: 0}, {U: 1, V: 2, T: 0},
		{U: 2, V: 3, T: 1},
		{U: 1, V: 2, T: 2},
		{U: 1, V: 2, T: 3},
	}
	tc, err := BuildFromEvents(events, 4, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tc.NumFrames() != 4 {
		t.Fatalf("NumFrames = %d", tc.NumFrames())
	}
	type q struct {
		u, v uint32
		t    int
		want bool
	}
	for _, c := range []q{
		{0, 1, 0, true}, {1, 2, 0, true}, {2, 3, 0, false},
		{2, 3, 1, true}, {1, 2, 1, true},
		{1, 2, 2, false}, {0, 1, 2, true}, {2, 3, 2, true},
		{1, 2, 3, true},
	} {
		if got := tc.Active(c.u, c.v, c.t); got != c.want {
			t.Errorf("Active(%d,%d,t=%d) = %v, want %v", c.u, c.v, c.t, got, c.want)
		}
	}
	if got := tc.ActiveNeighbors(nil, 1, 2); len(got) != 0 {
		t.Errorf("ActiveNeighbors(1, t=2) = %v, want empty", got)
	}
	if got := tc.ActiveNeighbors(nil, 1, 3); !reflect.DeepEqual(got, []uint32{2}) {
		t.Errorf("ActiveNeighbors(1, t=3) = %v, want [2]", got)
	}
}

func TestBuildFromEventsMatchesSimulator(t *testing.T) {
	const numNodes, numFrames = 40, 12
	events := randomEvents(600, numNodes, numFrames, 1)
	sim := simulate(events, numFrames)
	for _, p := range []int{1, 2, 3, 8, 32} {
		tc, err := BuildFromEvents(events, numNodes, numFrames, p)
		if err != nil {
			t.Fatal(err)
		}
		for tf := 0; tf < numFrames; tf++ {
			snap := tc.Snapshot(tf, 1)
			if len(snap) != len(sim.active[tf]) {
				t.Fatalf("p=%d t=%d: snapshot size %d, want %d", p, tf, len(snap), len(sim.active[tf]))
			}
			for _, e := range snap {
				if !sim.active[tf][e] {
					t.Fatalf("p=%d t=%d: snapshot has spurious edge %v", p, tf, e)
				}
			}
		}
	}
}

func TestBuildFromEventsDeterministicAcrossP(t *testing.T) {
	events := randomEvents(500, 30, 8, 2)
	base, err := BuildFromEvents(events, 30, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 5, 16} {
		tc, err := BuildFromEvents(events, 30, 8, p)
		if err != nil {
			t.Fatal(err)
		}
		for tf := 0; tf < 8; tf++ {
			if !tc.Frame(tf).Equal(base.Frame(tf)) {
				t.Fatalf("p=%d: frame %d differs from p=1 build", p, tf)
			}
		}
	}
}

func TestBuildFromEventsUnsorted(t *testing.T) {
	events := edgelist.TemporalList{{U: 0, V: 1, T: 3}, {U: 0, V: 1, T: 1}}
	if _, err := BuildFromEvents(events, 2, 4, 2); err == nil {
		t.Fatal("want error for unsorted events")
	}
}

func TestBuildFromEventsEmptyAndGaps(t *testing.T) {
	tc, err := BuildFromEvents(nil, 5, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tc.NumFrames() != 0 {
		t.Fatalf("NumFrames = %d, want 0", tc.NumFrames())
	}
	// Frames 1 and 2 have no events.
	events := edgelist.TemporalList{{U: 0, V: 1, T: 0}, {U: 1, V: 2, T: 3}}
	tc, err = BuildFromEvents(events, 3, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !tc.Active(0, 1, 2) {
		t.Fatal("edge (0,1) should stay active through empty frames")
	}
	if tc.Active(1, 2, 2) || !tc.Active(1, 2, 3) {
		t.Fatal("edge (1,2) should activate only at frame 3")
	}
}

func TestBuildFromSnapshotsRoundTrip(t *testing.T) {
	// Hand-built snapshot series.
	snaps := []edgelist.List{
		{{U: 0, V: 1}, {U: 1, V: 2}},
		{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}},
		{{U: 0, V: 1}, {U: 2, V: 3}},
		{{U: 2, V: 3}},
	}
	for _, p := range []int{1, 2, 4, 8} {
		tc := BuildFromSnapshots(snaps, 4, p)
		for tf := range snaps {
			if got := tc.Snapshot(tf, p); !reflect.DeepEqual(got, snaps[tf]) {
				t.Fatalf("p=%d: Snapshot(%d) = %v, want %v", p, tf, got, snaps[tf])
			}
		}
	}
}

func TestBuildFromSnapshotsMatchesEvents(t *testing.T) {
	const numNodes, numFrames = 25, 10
	events := randomEvents(300, numNodes, numFrames, 3)
	sim := simulate(events, numFrames)
	snaps := make([]edgelist.List, numFrames)
	for tf := 0; tf < numFrames; tf++ {
		var l edgelist.List
		for e := range sim.active[tf] {
			l = append(l, e)
		}
		l.SortByUV(1)
		snaps[tf] = l
	}
	tcE, err := BuildFromEvents(events, numNodes, numFrames, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The two construction paths must agree on every reconstruction, even
	// though their internal frame CSRs may differ (events within one frame
	// may cancel pairwise). The sweep runs from one chunk to more chunks
	// than frames.
	for _, p := range []int{1, 2, 3, 4, 10, 11} {
		tcS := BuildFromSnapshots(snaps, numNodes, p)
		for tf := 0; tf < numFrames; tf++ {
			if !reflect.DeepEqual(tcS.Snapshot(tf, 1), tcE.Snapshot(tf, 1)) {
				t.Fatalf("p=%d t=%d: snapshot mismatch between construction paths", p, tf)
			}
		}
	}
}

// TestSnapshotParallelMatchesSequential sweeps the tree fold's processor
// count, from the sequential fold at p = 1 up to more chunks than frames,
// against the simulator.
func TestSnapshotParallelMatchesSequential(t *testing.T) {
	const numNodes, numFrames = 30, 16
	events := randomEvents(800, numNodes, numFrames, 9)
	sim := simulate(events, numFrames)
	tc, err := BuildFromEvents(events, numNodes, numFrames, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tf := range []int{0, 1, 7, numFrames - 1} {
		want := sim.snapshot(tf)
		for _, p := range []int{1, 2, 3, 8, 64} {
			if got := tc.Snapshot(tf, p); !reflect.DeepEqual(got, want) {
				t.Fatalf("t=%d p=%d: snapshot diverges from the simulator (%d vs %d edges)",
					tf, p, len(got), len(want))
			}
		}
	}
}

func TestSnapshotParallelOutOfRange(t *testing.T) {
	tc, _ := BuildFromEvents(edgelist.TemporalList{{U: 0, V: 1, T: 0}}, 2, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	tc.Snapshot(3, 2)
}

func TestActiveNeighborsMatchesSimulator(t *testing.T) {
	const numNodes, numFrames = 20, 6
	events := randomEvents(250, numNodes, numFrames, 4)
	sim := simulate(events, numFrames)
	tc, err := BuildFromEvents(events, numNodes, numFrames, 3)
	if err != nil {
		t.Fatal(err)
	}
	for tf := 0; tf < numFrames; tf++ {
		for u := uint32(0); u < numNodes; u++ {
			want := sim.neighbors(u, tf)
			if got := tc.ActiveNeighbors(nil, u, tf); !reflect.DeepEqual(got, want) {
				t.Fatalf("ActiveNeighbors(%d, t=%d) = %v, want %v", u, tf, got, want)
			}
		}
	}
}

func TestSizeDifferentialSmallerThanFull(t *testing.T) {
	// A slowly-evolving graph: large initial frame, tiny deltas — the case
	// Section IV motivates differential storage with.
	var events edgelist.TemporalList
	for i := uint32(0); i < 500; i++ {
		events = append(events, edgelist.TemporalEdge{U: i % 100, V: (i * 7) % 100, T: 0})
	}
	for tf := uint32(1); tf < 20; tf++ {
		events = append(events, edgelist.TemporalEdge{U: tf % 100, V: (tf * 3) % 100, T: tf})
	}
	events.Sort(1)
	dedup := events[:0]
	for i, e := range events {
		if i == 0 || e != events[i-1] {
			dedup = append(dedup, e)
		}
	}
	tc, err := BuildFromEvents(dedup, 100, 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Like for like: both sides uncompressed.
	if tc.PlainSizeBytes() >= tc.FullSnapshotSizeBytes() {
		t.Fatalf("differential %d bytes >= full snapshots %d bytes",
			tc.PlainSizeBytes(), tc.FullSnapshotSizeBytes())
	}
}

// TestPackedAgreesWithPlain checks the packed differential frames against the
// plain uncompressed snapshots they reconstruct, and that packing takes less
// space than the same frames unpacked.
func TestPackedAgreesWithPlain(t *testing.T) {
	const numNodes, numFrames = 30, 8
	events := randomEvents(400, numNodes, numFrames, 5)
	pt, err := BuildFromEvents(events, numNodes, numFrames, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pt.NumFrames() != numFrames || pt.NumNodes() != numNodes {
		t.Fatal("packed metadata wrong")
	}
	plain := make([]map[edgelist.Edge]bool, numFrames)
	for tf := range plain {
		plain[tf] = map[edgelist.Edge]bool{}
		for _, e := range pt.Snapshot(tf, 4) {
			plain[tf][e] = true
		}
	}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 500; i++ {
		u, v := rng.Uint32()%numNodes, rng.Uint32()%numNodes
		tf := rng.Intn(numFrames)
		if pt.Active(u, v, tf) != plain[tf][edgelist.Edge{U: u, V: v}] {
			t.Fatalf("packed Active(%d,%d,%d) disagrees", u, v, tf)
		}
	}
	last := pt.Snapshot(numFrames-1, 1)
	for u := uint32(0); u < numNodes; u++ {
		want := []uint32{}
		for _, e := range last {
			if e.U == u {
				want = append(want, e.V)
			}
		}
		got := pt.ActiveNeighbors(nil, u, numFrames-1)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("packed ActiveNeighbors(%d) = %v, want %v", u, got, want)
		}
	}
	if pt.SizeBytes() >= pt.PlainSizeBytes() {
		t.Fatalf("packed %d bytes >= plain %d bytes", pt.SizeBytes(), pt.PlainSizeBytes())
	}
}

// Property: for random toggle streams, every reconstruction matches the
// brute-force simulator for every frame, at any processor count.
func TestQuickEventsSnapshot(t *testing.T) {
	f := func(raw []uint16, p uint8) bool {
		const numNodes, numFrames = 12, 5
		ev := make(edgelist.TemporalList, 0, len(raw)/3)
		for i := 0; i+2 < len(raw); i += 3 {
			ev = append(ev, edgelist.TemporalEdge{
				U: uint32(raw[i]) % numNodes,
				V: uint32(raw[i+1]) % numNodes,
				T: uint32(raw[i+2]) % numFrames,
			})
		}
		ev.Sort(1)
		dedup := ev[:0]
		for i, e := range ev {
			if i == 0 || e != ev[i-1] {
				dedup = append(dedup, e)
			}
		}
		sim := simulate(dedup, numFrames)
		tc, err := BuildFromEvents(dedup, numNodes, numFrames, int(p))
		if err != nil {
			return false
		}
		for tf := 0; tf < numFrames; tf++ {
			snap := tc.Snapshot(tf, int(p%8)+1)
			if len(snap) != len(sim.active[tf]) {
				return false
			}
			for _, e := range snap {
				if !sim.active[tf][e] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameBoundsPanicsOutOfRange(t *testing.T) {
	tc, _ := BuildFromEvents(edgelist.TemporalList{{U: 0, V: 1, T: 0}}, 2, 1, 1)
	for name, fn := range map[string]func(){
		"Snapshot":        func() { tc.Snapshot(5, 1) },
		"Active":          func() { tc.Active(0, 1, -1) },
		"ActiveNeighbors": func() { tc.ActiveNeighbors(nil, 0, 9) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestFullSnapshotSizeBytesExact checks the one-fold baseline against the
// simulator: the sum over frames of 4·(N+1) + 4·|active(t)|. The plain
// differential size is the same sum over each frame's toggles.
func TestFullSnapshotSizeBytesExact(t *testing.T) {
	const numNodes, numFrames = 30, 10
	events := randomEvents(500, numNodes, numFrames, 12)
	sim := simulate(events, numFrames)
	tc, err := BuildFromEvents(events, numNodes, numFrames, 3)
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for tf := 0; tf < numFrames; tf++ {
		want += 4*(numNodes+1) + 4*int64(len(sim.active[tf]))
	}
	if got := tc.FullSnapshotSizeBytes(); got != want {
		t.Fatalf("FullSnapshotSizeBytes = %d, want %d", got, want)
	}
	wantPlain := 4 * int64(numFrames*(numNodes+1)+len(events))
	if got := tc.PlainSizeBytes(); got != wantPlain {
		t.Fatalf("PlainSizeBytes = %d, want %d", got, wantPlain)
	}
}

func checkpointFixture(t *testing.T) *Packed {
	t.Helper()
	tc, err := BuildFromEvents(randomEvents(1200, 40, 24, 77), 40, 24, 4)
	if err != nil {
		t.Fatal(err)
	}
	return tc
}

// TestCheckpointedMatchesPlain is the differential table: under every
// checkpoint interval — dense, uneven, sparse, and the plain paper form
// (interval >= NumFrames) — every query form answers as the brute-force
// simulator does. Reloading from a container and then checkpointing is
// covered by mgraph's TestRoundTripTemporal.
func TestCheckpointedMatchesPlain(t *testing.T) {
	const numNodes, numFrames = 24, 12
	events := randomEvents(700, numNodes, numFrames, 21)
	sim := simulate(events, numFrames)
	tc, err := BuildFromEvents(events, numNodes, numFrames, 3)
	if err != nil {
		t.Fatal(err)
	}
	var aq []ActivityQuery
	var nq []NeighborQuery
	var wantActive []bool
	var wantRows [][]uint32
	wantDegrees := make([][]int, numNodes)
	for tf := 0; tf < numFrames; tf++ {
		for u := uint32(0); u < numNodes; u++ {
			row := sim.neighbors(u, tf)
			nq = append(nq, NeighborQuery{U: u, T: tf})
			wantRows = append(wantRows, row)
			wantDegrees[u] = append(wantDegrees[u], len(row))
			for v := uint32(0); v < numNodes; v++ {
				aq = append(aq, ActivityQuery{U: u, V: v, T: tf})
				wantActive = append(wantActive, sim.active[tf][edgelist.Edge{U: u, V: v}])
			}
		}
	}
	for _, interval := range []int{1, 2, 3, 8, numFrames, numFrames + 5} {
		pt, err := tc.Checkpoint(interval, 2)
		if err != nil {
			t.Fatal(err)
		}
		for tf := 0; tf < numFrames; tf++ {
			for _, p := range []int{1, 3} {
				if got, want := pt.Snapshot(tf, p), sim.snapshot(tf); !reflect.DeepEqual(got, want) {
					t.Fatalf("interval=%d: Snapshot(%d, p=%d) = %v, want %v", interval, tf, p, got, want)
				}
			}
		}
		for i, q := range aq {
			if got := pt.Active(q.U, q.V, q.T); got != wantActive[i] {
				t.Fatalf("interval=%d: Active(%d, %d, %d) = %v, want %v", interval, q.U, q.V, q.T, got, wantActive[i])
			}
		}
		for i, q := range nq {
			if got := pt.ActiveNeighbors(nil, q.U, q.T); !reflect.DeepEqual(got, wantRows[i]) {
				t.Fatalf("interval=%d: ActiveNeighbors(%d, %d) = %v, want %v", interval, q.U, q.T, got, wantRows[i])
			}
		}
		if got := pt.ActiveBatch(aq, 3); !reflect.DeepEqual(got, wantActive) {
			t.Fatalf("interval=%d: ActiveBatch diverges from the simulator", interval)
		}
		if got := pt.ActiveNeighborsBatch(nq, 3); !reflect.DeepEqual(got, wantRows) {
			t.Fatalf("interval=%d: ActiveNeighborsBatch diverges from the simulator", interval)
		}
		for u := uint32(0); u < numNodes; u++ {
			if got := pt.DegreeTimeline(u); !reflect.DeepEqual(got, wantDegrees[u]) {
				t.Fatalf("interval=%d: DegreeTimeline(%d) = %v, want %v", interval, u, got, wantDegrees[u])
			}
		}
	}
}

func TestCheckpointedSpaceGrowsWithDensity(t *testing.T) {
	tc := checkpointFixture(t)
	ck1, _ := tc.Checkpoint(1, 2) // checkpoint every frame
	ck8, _ := tc.Checkpoint(8, 2) // sparse checkpoints
	if ck1.SizeBytes() <= ck8.SizeBytes() {
		t.Fatalf("denser checkpoints should cost more: %d vs %d", ck1.SizeBytes(), ck8.SizeBytes())
	}
	if ck8.SizeBytes() <= tc.SizeBytes() {
		t.Fatal("checkpoints must add space over the pure differential")
	}
	if paper, _ := ck8.Checkpoint(24, 2); paper.SizeBytes() != tc.SizeBytes() {
		t.Fatalf("interval >= NumFrames costs %d bytes, want the paper form's %d", paper.SizeBytes(), tc.SizeBytes())
	}
}

func TestCheckpointedErrors(t *testing.T) {
	tc := checkpointFixture(t)
	if _, err := tc.Checkpoint(0, 2); err == nil {
		t.Fatal("want error for interval 0")
	}
	ck, _ := tc.Checkpoint(4, 2)
	if ck.NumFrames() != 24 || ck.NumNodes() != 40 {
		t.Fatal("metadata wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for out-of-range frame")
		}
	}()
	ck.Active(0, 1, 99)
}

func TestCheckpointedEmptyTemporal(t *testing.T) {
	tc, err := BuildFromEvents(nil, 5, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := tc.Checkpoint(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ck.NumFrames() != 0 || ck.SizeBytes() != 0 || ck.FullSnapshotSizeBytes() != 0 {
		t.Fatal("empty checkpointed structure wrong")
	}
}

func TestActiveBatch(t *testing.T) {
	tc := checkpointFixture(t)
	ck, _ := tc.Checkpoint(5, 2)
	queries := make([]ActivityQuery, 0, 200)
	for u := uint32(0); u < 40; u += 2 {
		for tf := 0; tf < 24; tf += 3 {
			queries = append(queries, ActivityQuery{U: u, V: (u + 1) % 40, T: tf})
		}
	}
	for _, p := range []int{1, 4, 16} {
		got, got2 := tc.ActiveBatch(queries, p), ck.ActiveBatch(queries, p)
		for i, q := range queries {
			want := tc.Active(q.U, q.V, q.T)
			if got[i] != want || got2[i] != want {
				t.Fatalf("p=%d: batch result %d diverges", p, i)
			}
		}
	}
}

func TestActiveNeighborsBatch(t *testing.T) {
	tc := checkpointFixture(t)
	ck, _ := tc.Checkpoint(5, 2)
	queries := []NeighborQuery{{U: 0, T: 0}, {U: 5, T: 10}, {U: 39, T: 23}}
	for _, p := range []int{1, 3} {
		got, got2 := tc.ActiveNeighborsBatch(queries, p), ck.ActiveNeighborsBatch(queries, p)
		for i, q := range queries {
			want := tc.ActiveNeighbors(nil, q.U, q.T)
			if !reflect.DeepEqual(got[i], want) || !reflect.DeepEqual(got2[i], want) {
				t.Fatalf("p=%d: neighbor batch %d = %v / %v, want %v", p, i, got[i], got2[i], want)
			}
		}
	}
}

// TestBatchOutOfRangeFramePanicsOnCaller is the regression for a batch
// whose bad frame was found inside a pool worker, where no caller's
// recover could reach the panic and the process died.
func TestBatchOutOfRangeFramePanicsOnCaller(t *testing.T) {
	tc, err := BuildFromEvents(edgelist.TemporalList{{U: 0, V: 1, T: 0}, {U: 1, V: 0, T: 1}}, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	aq := make([]ActivityQuery, 4000)
	nq := make([]NeighborQuery, 4000)
	aq[0].T, aq[3999].T = 5, 5
	nq[0].T, nq[3999].T = 5, 5
	for name, fn := range map[string]func(){
		"ActiveBatch":          func() { tc.ActiveBatch(aq, 4) },
		"ActiveNeighborsBatch": func() { tc.ActiveNeighborsBatch(nq, 4) },
	} {
		func() {
			defer func() {
				if r := recover(); r != "tcsr: frame 5 out of range [0,2)" {
					t.Errorf("%s: recovered %v, want the frame range panic", name, r)
				}
			}()
			fn()
		}()
	}
}
