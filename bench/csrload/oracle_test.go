package main

import (
	"slices"
	"strings"
	"testing"

	"csrgraph"
)

// figure1 is the paper's 10-node example graph (Table I / Figure 1), as
// examples/quickstart lists it.
var figure1 = []csrgraph.Edge{
	{U: 0, V: 5}, {U: 1, V: 6}, {U: 1, V: 7}, {U: 2, V: 7}, {U: 3, V: 8},
	{U: 3, V: 9}, {U: 4, V: 9}, {U: 5, V: 0}, {U: 6, V: 1}, {U: 7, V: 1},
	{U: 7, V: 2}, {U: 8, V: 2}, {U: 8, V: 3}, {U: 9, V: 3},
}

// figure1Oracle is the example over an 11-node id space, so that node 10
// is an empty row; the input is reversed and doubled to exercise the sort
// and the dedup.
func figure1Oracle() *oracle {
	in := slices.Clone(figure1)
	slices.Reverse(in)
	return newOracle(append(in, figure1...), 11)
}

func TestOracleFigure1(t *testing.T) {
	o := figure1Oracle()
	if o.numNodes() != 11 || o.numEdges() != len(figure1) {
		t.Fatalf("oracle has %d nodes / %d edges, want 11 / %d", o.numNodes(), o.numEdges(), len(figure1))
	}
	for u, want := range map[uint32][]uint32{0: {5}, 1: {6, 7}, 7: {1, 2}, 8: {2, 3}, 10: {}} {
		if got := o.row(u); !slices.Equal(got, want) {
			t.Errorf("row(%d) = %v, want %v", u, got, want)
		}
		if o.degree(u) != len(want) {
			t.Errorf("degree(%d) = %d, want %d", u, o.degree(u), len(want))
		}
	}
	if !o.exists(3, 9) {
		t.Error("edge 3->9 is in the graph")
	}
	if o.exists(9, 4) { // 4->9 is an edge, its reverse is not
		t.Error("edge 9->4 is absent from the graph")
	}
	if o.exists(10, 0) {
		t.Error("node 10 has no edges")
	}
}

// The oracle must agree with the library it judges on the same graph.
func TestOracleAgreesWithLibrary(t *testing.T) {
	o := figure1Oracle()
	g, err := csrgraph.Build(figure1, csrgraph.WithNumNodes(11))
	if err != nil {
		t.Fatal(err)
	}
	cg := g.Compress()
	for u := uint32(0); u < 11; u++ {
		if got := cg.Neighbors(u); !slices.Equal(got, o.row(u)) {
			t.Errorf("node %d: library %v, oracle %v", u, got, o.row(u))
		}
		for v := uint32(0); v < 11; v++ {
			if cg.HasEdge(u, v) != o.exists(u, v) {
				t.Errorf("edge %d->%d: library %v, oracle %v", u, v, cg.HasEdge(u, v), o.exists(u, v))
			}
		}
	}
}

func TestVerifyBody(t *testing.T) {
	o := figure1Oracle()
	exists := &request{op: "exists", edges: []csrgraph.Edge{{U: 3, V: 9}, {U: 9, V: 4}, {U: 10, V: 0}}}
	degree := &request{op: "degree", nodes: []uint32{1, 10}}
	neighbors := &request{op: "neighbors", nodes: []uint32{7, 10}}
	for _, c := range []struct {
		name    string
		r       *request
		body    string
		wantErr string
	}{
		{"exists ok", exists, `[{"u":3,"v":9,"exists":true},{"u":9,"v":4,"exists":false},{"u":10,"v":0,"exists":false}]`, ""},
		{"absent edge reported present", exists, `[{"u":3,"v":9,"exists":true},{"u":9,"v":4,"exists":true},{"u":10,"v":0,"exists":false}]`, "probe 1"},
		{"probe missing", exists, `[{"u":3,"v":9,"exists":true}]`, "1 rows for 3"},
		{"answers swapped", exists, `[{"u":9,"v":4,"exists":false},{"u":3,"v":9,"exists":true},{"u":10,"v":0,"exists":false}]`, "probe 0"},
		{"degree ok", degree, `[{"node":1,"degree":2},{"node":10,"degree":0}]`, ""},
		{"degree wrong", degree, `[{"node":1,"degree":3},{"node":10,"degree":0}]`, "node 0"},
		{"neighbors ok with empty row", neighbors, `[{"node":7,"neighbors":[1,2]},{"node":10,"neighbors":[]}]`, ""},
		{"neighbors unsorted", neighbors, `[{"node":7,"neighbors":[2,1]},{"node":10,"neighbors":[]}]`, "node 0"},
		{"empty row filled", neighbors, `[{"node":7,"neighbors":[1,2]},{"node":10,"neighbors":[0]}]`, "node 1"},
		{"not json", neighbors, `{"error":"boom"}`, "cannot unmarshal"},
	} {
		err := verifyBody(c.r, []byte(c.body), o)
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s: error %v, want one mentioning %q", c.name, err, c.wantErr)
		}
	}
	if err := verifyExists(exists, []bool{true, false, false}, o); err != nil {
		t.Errorf("verifyExists on the right answers: %v", err)
	}
	if err := verifyExists(exists, []bool{true, true, false}, o); err == nil {
		t.Error("verifyExists accepted an absent edge reported present")
	}
}

func TestSequentialBFS(t *testing.T) {
	// Figure 1, symmetrized, is the path 6-1-7-2-8-3-9-4 plus the pair 0-5.
	o := symmetricOracle(figure1)
	dist := sequentialBFS(o, 6)
	want := []int32{csrgraph.Unreached, 1, 3, 5, 7, csrgraph.Unreached, 0, 2, 4, 6}
	if !slices.Equal(dist, want) {
		t.Errorf("distances from 6 = %v, want %v", dist, want)
	}
}

func TestSequentialCores(t *testing.T) {
	// A 4-clique on 0..3, a triangle 6-7-8, the path 3-4-5-6 joining them
	// and a leaf 9 on the path: the clique is a 3-core, path and triangle
	// survive at 2, the leaf peels at 1.
	edges := []csrgraph.Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 2}, {U: 1, V: 3}, {U: 2, V: 3},
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 6}, {U: 6, V: 7}, {U: 7, V: 8}, {U: 6, V: 8},
		{U: 4, V: 9},
		{U: 10, V: 10}, // a self-loop, dropped: node 10 never enters the graph
	}
	simple := withoutLoops(edges)
	got := sequentialCores(symmetricOracle(simple))
	want := []uint32{3, 3, 3, 3, 2, 2, 2, 2, 2, 1}
	if !slices.Equal(got, want) {
		t.Errorf("cores = %v, want %v", got, want)
	}
	// And the library agrees, which is what the tail checks at scale.
	k, err := newKCoreCase(edges, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.run(2, true); err != nil {
		t.Error(err)
	}
	for _, c := range sequentialCores(symmetricOracle(figure1)) {
		if c != 1 {
			t.Errorf("Figure 1 is a forest: every core number is 1, got %d", c)
		}
	}
}
