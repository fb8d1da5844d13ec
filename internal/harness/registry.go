// Package harness is the experiment driver that regenerates the paper's
// evaluation artifacts: Table II (construction time and compression across
// processor counts for four graphs), Figure 6 (time vs processors) and
// Figure 7 (speed-up vs processors).
//
// The paper's inputs are four SNAP datasets; offline, the registry
// substitutes seeded R-MAT graphs with matching node/edge counts (divided
// by a scale factor so the suite runs anywhere; scale 1 regenerates
// full-size inputs). See DESIGN.md §2 for why the substitution preserves
// the measured behaviour.
package harness

import (
	"fmt"

	"csrgraph/internal/edgelist"
	"csrgraph/internal/gen"
)

// GraphSpec describes one evaluation graph.
type GraphSpec struct {
	// Name as in Table II.
	Name string
	// PaperNodes and PaperEdges are the dataset sizes reported in Table II.
	PaperNodes, PaperEdges int
	// Params selects the R-MAT skew (social graphs vs the web graph).
	Params gen.RMATParams
	// Seed makes the instance reproducible.
	Seed uint64
}

// Registry lists the four graphs of Table II in paper order.
var Registry = []GraphSpec{
	{Name: "LiveJournal", PaperNodes: 4_847_571, PaperEdges: 68_993_773, Params: gen.DefaultRMAT, Seed: 0x11},
	{Name: "Pokec", PaperNodes: 1_632_803, PaperEdges: 30_622_564, Params: gen.DefaultRMAT, Seed: 0x22},
	{Name: "Orkut", PaperNodes: 3_072_627, PaperEdges: 117_185_083, Params: gen.DefaultRMAT, Seed: 0x33},
	{Name: "WebNotreDame", PaperNodes: 325_729, PaperEdges: 1_497_134,
		Params: gen.RMATParams{A: 0.45, B: 0.22, C: 0.22, D: 0.11}, Seed: 0x44},
}

// Find returns the registry entry with the given name.
func Find(name string) (GraphSpec, error) {
	for _, g := range Registry {
		if g.Name == name {
			return g, nil
		}
	}
	return GraphSpec{}, fmt.Errorf("harness: unknown graph %q (have LiveJournal, Pokec, Orkut, WebNotreDame)", name)
}

// Instance is a generated, construction-ready evaluation input.
type Instance struct {
	Spec     GraphSpec
	Scale    int
	Edges    edgelist.List // sorted, deduplicated
	NumNodes int
}

// rmatScaleFor picks the smallest R-MAT scale whose node space covers n.
func rmatScaleFor(n int) int {
	s := 1
	for (1 << s) < n {
		s++
	}
	return s
}

// Generate materializes the graph at 1/scale of the paper's size using p
// processors. scale must be >= 1; scale 1 is the full dataset size.
func (g GraphSpec) Generate(scale, p int) (*Instance, error) {
	if scale < 1 {
		return nil, fmt.Errorf("harness: scale %d must be >= 1", scale)
	}
	targetNodes := g.PaperNodes / scale
	targetEdges := g.PaperEdges / scale
	if targetNodes < 2 || targetEdges < 1 {
		return nil, fmt.Errorf("harness: scale %d leaves %s too small (%d nodes, %d edges)",
			scale, g.Name, targetNodes, targetEdges)
	}
	raw, err := gen.RMAT(rmatScaleFor(targetNodes), targetEdges, g.Params, g.Seed, p)
	if err != nil {
		return nil, err
	}
	sorted, numNodes := gen.Prepare(raw, false, p)
	return &Instance{Spec: g, Scale: scale, Edges: sorted, NumNodes: numNodes}, nil
}
