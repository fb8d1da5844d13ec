package csrgraph

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func wikiStyleEvents() []TemporalEdge {
	return []TemporalEdge{
		{U: 0, V: 1, T: 0}, {U: 1, V: 2, T: 0},
		{U: 2, V: 3, T: 1},
		{U: 1, V: 2, T: 2}, // deletion
		{U: 1, V: 2, T: 3}, // re-addition
	}
}

func TestBuildTemporalBasic(t *testing.T) {
	tg, err := BuildTemporal(wikiStyleEvents(), 4, WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	if tg.NumFrames() != 4 || tg.NumNodes() != 4 {
		t.Fatalf("frames=%d nodes=%d", tg.NumFrames(), tg.NumNodes())
	}
	if !tg.Active(0, 1, 0) || tg.Active(2, 3, 0) {
		t.Fatal("frame 0 wrong")
	}
	if tg.Active(1, 2, 2) || !tg.Active(1, 2, 3) {
		t.Fatal("toggle sequence wrong")
	}
	if got := tg.ActiveNeighbors(1, 3); !reflect.DeepEqual(got, []uint32{2}) {
		t.Fatalf("ActiveNeighbors = %v", got)
	}
	snap := tg.Snapshot(1)
	if len(snap) != 3 {
		t.Fatalf("Snapshot(1) = %v", snap)
	}
}

func TestBuildTemporalUnsortedInputAndDuplicates(t *testing.T) {
	events := []TemporalEdge{
		{U: 1, V: 2, T: 3},
		{U: 0, V: 1, T: 0},
		{U: 0, V: 1, T: 0}, // duplicate within frame: must be dropped
	}
	tg, err := BuildTemporal(events, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !tg.Active(0, 1, 0) {
		t.Fatal("duplicate dedup broke the toggle parity")
	}
}

func TestBuildTemporalFromSnapshots(t *testing.T) {
	snaps := [][]Edge{
		{{U: 0, V: 1}},
		{{U: 0, V: 1}, {U: 1, V: 2}},
		{{U: 1, V: 2}},
	}
	tg, err := BuildTemporalFromSnapshots(snaps, WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range snaps {
		if got := tg.Snapshot(i); !reflect.DeepEqual(got, []Edge(want)) {
			t.Fatalf("Snapshot(%d) = %v, want %v", i, got, want)
		}
	}
}

func TestBuildTemporalWithNumNodes(t *testing.T) {
	tg, err := BuildTemporal(wikiStyleEvents(), 4, WithNumNodes(100))
	if err != nil {
		t.Fatal(err)
	}
	if tg.NumNodes() != 100 {
		t.Fatalf("NumNodes = %d", tg.NumNodes())
	}
	if _, err := BuildTemporal(wikiStyleEvents(), 4, WithNumNodes(2)); err == nil {
		t.Fatal("want error for too-small node space")
	}
}

func TestTemporalCompressRoundTrip(t *testing.T) {
	events, err := GenerateTemporal(60, 400, 30, 8, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := BuildTemporal(events, 8, WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	if plain := tg.pt.PlainSizeBytes(); tg.SizeBytes() >= plain {
		t.Fatalf("compressed %d >= plain %d", tg.SizeBytes(), plain)
	}
	dir := t.TempDir()
	path, ckPath := filepath.Join(dir, "t.csrc"), filepath.Join(dir, "ck.csrc")
	if err := tg.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTemporalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumFrames() != tg.NumFrames() || got.NumNodes() != tg.NumNodes() || got.SizeBytes() != tg.SizeBytes() {
		t.Fatal("round trip metadata mismatch")
	}
	for u := uint32(0); u < 60; u += 7 {
		for f := 0; f < 8; f += 3 {
			if !reflect.DeepEqual(got.ActiveNeighbors(u, f), tg.ActiveNeighbors(u, f)) {
				t.Fatalf("reloaded ActiveNeighbors(%d,%d) disagrees", u, f)
			}
		}
	}
	// Checkpoints are not stored: a checkpointed graph saves the same bytes.
	ck, err := tg.Checkpoint(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.SaveFile(ckPath); err != nil {
		t.Fatal(err)
	}
	a, errA := os.ReadFile(path)
	b, errB := os.ReadFile(ckPath)
	if errA != nil || errB != nil || !bytes.Equal(a, b) {
		t.Fatalf("checkpointed graph saved different bytes (%v, %v)", errA, errB)
	}
}

func TestTemporalDifferentialSmaller(t *testing.T) {
	events, err := GenerateTemporal(200, 3000, 20, 15, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := BuildTemporal(events, 15)
	if err != nil {
		t.Fatal(err)
	}
	// Like for like: both sides uncompressed.
	if plain := tg.pt.PlainSizeBytes(); plain >= tg.FullSnapshotSizeBytes() {
		t.Fatalf("differential %d >= full %d", plain, tg.FullSnapshotSizeBytes())
	}
}

func TestReadTemporalEdgeList(t *testing.T) {
	events, err := ReadTemporalEdgeList(strings.NewReader("# t-graph\n0 1 0\n1 2 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[1] != (TemporalEdge{U: 1, V: 2, T: 1}) {
		t.Fatalf("events = %v", events)
	}
	if _, err := ReadTemporalEdgeList(strings.NewReader("0 1\n")); err == nil {
		t.Fatal("want error for missing time column")
	}
}

func TestCheckpointedTemporalPublic(t *testing.T) {
	events, err := GenerateTemporal(50, 300, 25, 12, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := BuildTemporal(events, 12, WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	ck, err := tg.Checkpoint(4)
	if err != nil {
		t.Fatal(err)
	}
	if ck.NumFrames() != 12 {
		t.Fatalf("frames = %d", ck.NumFrames())
	}
	if ck.SizeBytes() <= tg.SizeBytes() {
		t.Fatal("checkpoints should add space")
	}
	for u := NodeID(0); u < 50; u += 9 {
		for f := 0; f < 12; f += 4 {
			if !reflect.DeepEqual(ck.ActiveNeighbors(u, f), tg.ActiveNeighbors(u, f)) {
				t.Fatalf("checkpointed ActiveNeighbors(%d,%d) diverges", u, f)
			}
		}
	}
	if ck.Active(0, 1, 5) != tg.Active(0, 1, 5) {
		t.Fatal("checkpointed Active diverges")
	}
	if _, err := tg.Checkpoint(0); err == nil {
		t.Fatal("want error for interval 0")
	}
}

func TestTemporalBatchQueriesPublic(t *testing.T) {
	tg, err := BuildTemporal(wikiStyleEvents(), 4, WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	queries := []ActivityQuery{
		{U: 0, V: 1, T: 0}, {U: 1, V: 2, T: 2}, {U: 1, V: 2, T: 3},
	}
	got := tg.ActiveBatch(queries, 2)
	want := []bool{true, false, true}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ActiveBatch = %v, want %v", got, want)
	}
	nq := []TemporalNeighborQuery{{U: 1, T: 3}, {U: 1, T: 2}}
	rows := tg.ActiveNeighborsBatch(nq, 2)
	if !reflect.DeepEqual(rows[0], []uint32{2}) || len(rows[1]) != 0 {
		t.Fatalf("ActiveNeighborsBatch = %v", rows)
	}
}

func TestDegreeTimelinePublic(t *testing.T) {
	tg, err := BuildTemporal(wikiStyleEvents(), 4, WithProcs(2))
	if err != nil {
		t.Fatal(err)
	}
	got := tg.DegreeTimeline(1)
	// Node 1: edge (1,2) present at frames 0,1, deleted at 2, re-added at 3.
	want := []int{1, 1, 0, 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DegreeTimeline(1) = %v, want %v", got, want)
	}
	// Cross-check against ActiveNeighbors per frame.
	for f := 0; f < 4; f++ {
		if got[f] != len(tg.ActiveNeighbors(1, f)) {
			t.Fatalf("frame %d: timeline %d != neighbors %d", f, got[f], len(tg.ActiveNeighbors(1, f)))
		}
	}
}

func TestBuildTemporalEmpty(t *testing.T) {
	tg, err := BuildTemporal(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tg.NumFrames() != 0 {
		t.Fatalf("frames = %d", tg.NumFrames())
	}
}
