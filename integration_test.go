package csrgraph

import (
	"path/filepath"
	"reflect"
	"testing"
)

// TestEndToEndPipeline drives the whole system the way a user would:
// generate a social workload, build and compress, persist and reload,
// then answer queries and analytics from the reloaded compressed form —
// asserting the answers survive every seam.
func TestEndToEndPipeline(t *testing.T) {
	const procs = 4
	raw, err := GenerateRMAT(12, 40_000, 1234, procs)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(raw, WithSymmetrize(), WithProcs(procs))
	if err != nil {
		t.Fatal(err)
	}

	// Reorder for compression, keeping the mapping to translate queries.
	relabeled, mapping, err := g.RelabelByBFS(0)
	if err != nil {
		t.Fatal(err)
	}
	inverse := make([]uint32, len(mapping))
	for newID, oldID := range mapping {
		inverse[oldID] = uint32(newID)
	}

	// Compress, persist, reload.
	cg := relabeled.Compress()
	path := filepath.Join(t.TempDir(), "graph.csrc")
	if err := cg.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCompressedFile(path, WithProcs(procs))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumEdges() != g.NumEdges() || loaded.NumNodes() != g.NumNodes() {
		t.Fatalf("reloaded shape n=%d m=%d, want n=%d m=%d",
			loaded.NumNodes(), loaded.NumEdges(), g.NumNodes(), g.NumEdges())
	}

	// Every original adjacency survives relabel -> compress -> save -> load.
	for u := uint32(0); int(u) < g.NumNodes(); u += 97 {
		orig := g.Neighbors(u)
		got := loaded.Neighbors(inverse[u])
		if len(orig) != len(got) {
			t.Fatalf("node %d: degree %d -> %d", u, len(orig), len(got))
		}
		back := make([]uint32, len(got))
		for i, w := range got {
			back[i] = mapping[w]
		}
		// Translate back and compare as sets (relabel reorders rows).
		want := append([]uint32{}, orig...)
		sortU32(back)
		sortU32(want)
		if !reflect.DeepEqual(back, want) {
			t.Fatalf("node %d: neighbors changed through the pipeline", u)
		}
	}

	// Analytics agree between the in-memory and reloaded compressed forms.
	if loaded.CountTriangles(procs) != cg.CountTriangles(procs) {
		t.Fatal("triangle counts differ after reload")
	}
	d1 := cg.BFS(0, procs)
	d2 := loaded.BFS(0, procs)
	if !reflect.DeepEqual(d1, d2) {
		t.Fatal("BFS differs after reload")
	}

	// The streaming layer can extend the reloaded graph.
	sb := StreamFrom(loaded.Decompress(), WithProcs(procs))
	extra := Edge{U: 0, V: uint32(loaded.NumNodes() - 1)}
	sb.Add(extra)
	grown := sb.Snapshot()
	if !grown.HasEdge(extra.U, extra.V) {
		t.Fatal("streamed edge missing")
	}
}

// TestEndToEndTemporalPipeline does the same for the temporal side:
// generate an edit stream, build (bit-packed), serialize, reload, checkpoint
// and compare every answer.
func TestEndToEndTemporalPipeline(t *testing.T) {
	const (
		nodes  = 500
		frames = 16
		procs  = 4
	)
	events, err := GenerateTemporal(nodes, 3000, 200, frames, 99, procs)
	if err != nil {
		t.Fatal(err)
	}
	tg, err := BuildTemporal(events, frames, WithProcs(procs))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "temporal.csrc")
	if err := tg.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	reloaded, err := LoadTemporalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ck, err := tg.Checkpoint(4)
	if err != nil {
		t.Fatal(err)
	}
	reloadedCk, err := reloaded.Checkpoint(5)
	if err != nil {
		t.Fatal(err)
	}

	// All four answer paths must agree everywhere sampled.
	for u := uint32(0); u < nodes; u += 41 {
		for f := 0; f < frames; f += 3 {
			plain := tg.ActiveNeighbors(u, f)
			rel := reloaded.ActiveNeighbors(u, f)
			ckd := ck.ActiveNeighbors(u, f)
			relCk := reloadedCk.ActiveNeighbors(u, f)
			if !reflect.DeepEqual(plain, relCk) || !reflect.DeepEqual(plain, rel) || !reflect.DeepEqual(plain, ckd) {
				t.Fatalf("node %d frame %d: answer paths disagree", u, f)
			}
		}
	}
	// Batched equals pointwise.
	queries := make([]ActivityQuery, 0, 100)
	for i := 0; i < 100; i++ {
		queries = append(queries, ActivityQuery{
			U: uint32(i*7) % nodes, V: uint32(i*13) % nodes, T: i % frames,
		})
	}
	batch := reloaded.ActiveBatch(queries, procs)
	for i, q := range queries {
		if batch[i] != tg.Active(q.U, q.V, q.T) {
			t.Fatalf("batched answer %d diverges", i)
		}
	}
}

func sortU32(xs []uint32) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
