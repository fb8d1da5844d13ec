package main

import (
	"testing"

	"csrgraph"
)

// testGraph is a fixed skewed graph, independent of every generator in the
// repository, so the pinned hashes below only move when pool generation
// itself changes.
func testGraph() ([]csrgraph.Edge, *oracle) {
	r := &rng{s: 42}
	edges := make([]csrgraph.Edge, 4000)
	for i := range edges {
		u := uint32(r.intn(300))
		edges[i] = csrgraph.Edge{U: u * u / 300, V: uint32(r.intn(300))}
	}
	return edges, newOracle(edges, 0)
}

func TestPoolsDeterministic(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	_, g, err := loadConfig(root)
	if err != nil {
		t.Fatal(err)
	}
	edges, o := testGraph()
	// Seed 1, 64 requests per pool, on testGraph.
	pinned := map[string]uint64{
		"http-exists-skewed": 0x83abddb4101fbd4f,
		"http-neighbors-hub": 0x68297cfa1da3cae8,
		"http-mixed-uniform": 0xd74f6924c2b5b3ce,
		"lib-pipeline":       0x2d9fc27a274932cd,
	}
	for i := range g.Workloads {
		spec := &g.Workloads[i]
		first := poolHash(makePool(spec, 64, edges, o, 1))
		if again := poolHash(makePool(spec, 64, edges, o, 1)); again != first {
			t.Errorf("%s: seed 1 gave pools %016x and %016x", spec.Name, first, again)
		}
		if other := poolHash(makePool(spec, 64, edges, o, 2)); other == first {
			t.Errorf("%s: seeds 1 and 2 gave the same pool", spec.Name)
		}
		if want, ok := pinned[spec.Name]; !ok || first != want {
			t.Errorf("%s: pool hash %#016x, pinned %#016x", spec.Name, first, want)
		}
	}
}

func TestPoolShapes(t *testing.T) {
	edges, o := testGraph()
	spec := &workloadSpec{Name: "mixed", Mix: []mixEntry{
		{Op: "exists", Share: 3, Items: 8, Keys: "uniform"},
		{Op: "degree", Share: 1, Items: 8, Keys: "edge-endpoint"},
		{Op: "neighbors", Share: 1, Items: 4, Keys: "hub"},
	}}
	pool := makePool(spec, 100, edges, o, 7)
	ops := map[string]int{}
	real, probes := 0, 0
	for i := range pool {
		r := &pool[i]
		ops[r.op]++
		for _, e := range r.edges {
			probes++
			if o.exists(e.U, e.V) {
				real++
			}
		}
		if r.op == "neighbors" && r.items() != 4 || r.op != "neighbors" && r.items() != 8 {
			t.Fatalf("request %d (%s) has %d items", i, r.op, r.items())
		}
	}
	if ops["exists"] != 60 || ops["degree"] != 20 || ops["neighbors"] != 20 {
		t.Errorf("ops %v, want a 60/20/20 interleave", ops)
	}
	// Half the targets are drawn from the source's row; a few of the random
	// half hit by chance, and sources without neighbors cannot.
	if share := float64(real) / float64(probes); share < 0.35 || share > 0.65 {
		t.Errorf("%.2f of the probes are real edges, want about half", share)
	}
}
