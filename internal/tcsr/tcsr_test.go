package tcsr

import (
	"math/rand"
	"reflect"
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
	if got := tc.ActiveNeighbors(1, 2); len(got) != 0 {
		t.Errorf("ActiveNeighbors(1, t=2) = %v, want empty", got)
	}
	if got := tc.ActiveNeighbors(1, 3); !reflect.DeepEqual(got, []uint32{2}) {
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
			snap := tc.Snapshot(tf)
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
			if got := tc.Snapshot(tf); !reflect.DeepEqual(got, snaps[tf]) {
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
	tcS := BuildFromSnapshots(snaps, numNodes, 4)
	tcE, err := BuildFromEvents(events, numNodes, numFrames, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The two construction paths must agree on every reconstruction, even
	// though their internal frame CSRs may differ (events within one frame
	// may cancel pairwise).
	for tf := 0; tf < numFrames; tf++ {
		if !reflect.DeepEqual(tcS.Snapshot(tf), tcE.Snapshot(tf)) {
			t.Fatalf("t=%d: snapshot mismatch between construction paths", tf)
		}
	}
}

func TestSnapshotParallelMatchesSequential(t *testing.T) {
	const numNodes, numFrames = 30, 16
	events := randomEvents(800, numNodes, numFrames, 9)
	tc, err := BuildFromEvents(events, numNodes, numFrames, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tf := range []int{0, 1, 7, numFrames - 1} {
		want := tc.Snapshot(tf)
		for _, p := range []int{1, 2, 3, 8, 64} {
			got := tc.SnapshotParallel(tf, p)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("t=%d p=%d: parallel snapshot diverges (%d vs %d edges)",
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
	tc.SnapshotParallel(3, 2)
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
			var want []uint32
			for e := range sim.active[tf] {
				if e.U == u {
					want = append(want, e.V)
				}
			}
			sortUint32(want)
			got := tc.ActiveNeighbors(u, tf)
			if len(want) == 0 && len(got) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
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
	if tc.SizeBytes() >= tc.FullSnapshotSizeBytes() {
		t.Fatalf("differential %d bytes >= full snapshots %d bytes",
			tc.SizeBytes(), tc.FullSnapshotSizeBytes())
	}
}

func TestPackedAgreesWithPlain(t *testing.T) {
	const numNodes, numFrames = 30, 8
	events := randomEvents(400, numNodes, numFrames, 5)
	tc, err := BuildFromEvents(events, numNodes, numFrames, 2)
	if err != nil {
		t.Fatal(err)
	}
	pt := tc.Pack(4)
	if pt.NumFrames() != numFrames || pt.NumNodes() != numNodes {
		t.Fatal("packed metadata wrong")
	}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 500; i++ {
		u, v := rng.Uint32()%numNodes, rng.Uint32()%numNodes
		tf := rng.Intn(numFrames)
		if pt.Active(u, v, tf) != tc.Active(u, v, tf) {
			t.Fatalf("packed Active(%d,%d,%d) disagrees", u, v, tf)
		}
	}
	for u := uint32(0); u < numNodes; u++ {
		if !reflect.DeepEqual(pt.ActiveNeighbors(u, numFrames-1), tc.ActiveNeighbors(u, numFrames-1)) {
			t.Fatalf("packed ActiveNeighbors(%d) disagrees", u)
		}
	}
	if pt.SizeBytes() >= tc.SizeBytes() {
		t.Fatalf("packed %d bytes >= plain %d bytes", pt.SizeBytes(), tc.SizeBytes())
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
			snap := tc.Snapshot(tf)
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

func TestSortUint32(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []int{0, 1, 5, 31, 32, 100, 1000} {
		xs := make([]uint32, n)
		for i := range xs {
			xs[i] = rng.Uint32() % 50
		}
		sortUint32(xs)
		for i := 1; i < len(xs); i++ {
			if xs[i] < xs[i-1] {
				t.Fatalf("n=%d: not sorted at %d", n, i)
			}
		}
	}
}

func TestFrameBoundsPanicsOutOfRange(t *testing.T) {
	tc, _ := BuildFromEvents(edgelist.TemporalList{{U: 0, V: 1, T: 0}}, 2, 1, 1)
	for name, fn := range map[string]func(){
		"Snapshot":        func() { tc.Snapshot(5) },
		"Active":          func() { tc.Active(0, 1, -1) },
		"ActiveNeighbors": func() { tc.ActiveNeighbors(0, 9) },
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
