package algo

import "csrgraph/internal/query"

// StronglyConnectedComponents labels every node of a directed graph with
// the smallest node id in its strongly connected component, using the
// Fleischer–Hendrickson–Pinar forward–backward algorithm — the standard
// parallel SCC method: pick a pivot, compute its forward and backward
// reachable sets with frontier rounds (the backward sweep runs over the
// transpose gT), their intersection is the pivot's SCC, and the three
// remaining partitions (forward-only, backward-only, neither) contain no
// straddling SCCs so they recurse independently.
//
// g supplies out-edges and gT the transpose.
func StronglyConnectedComponents(g, gT query.Source, p int) []uint32 {
	p = clampProcs(p)
	n := g.NumNodes()
	labels := make([]uint32, n)
	for i := range labels {
		labels[i] = uint32(i)
	}
	if n == 0 {
		return labels
	}
	// active[u] marks nodes not yet assigned to an SCC. Partitions are
	// processed from a worklist of node subsets.
	all := make([]uint32, n)
	for i := range all {
		all[i] = uint32(i)
	}
	work := [][]uint32{all}
	inSubset := make([]int32, n) // generation tag of the node's current subset
	var generation int32

	for len(work) > 0 {
		subset := work[len(work)-1]
		work = work[:len(work)-1]
		if len(subset) == 0 {
			continue
		}
		if len(subset) == 1 {
			labels[subset[0]] = subset[0]
			continue
		}
		generation++
		gen := generation
		for _, u := range subset {
			inSubset[u] = gen
		}
		pivot := subset[0]
		for _, u := range subset {
			if u < pivot {
				pivot = u
			}
		}
		fwd := reachableWithinFrontier(g, gT, pivot, inSubset, gen, p)
		bwd := reachableWithinFrontier(gT, g, pivot, inSubset, gen, p)

		var sccNodes, fwdOnly, bwdOnly, rest []uint32
		for _, u := range subset {
			switch {
			case fwd[u] && bwd[u]:
				sccNodes = append(sccNodes, u)
			case fwd[u]:
				fwdOnly = append(fwdOnly, u)
			case bwd[u]:
				bwdOnly = append(bwdOnly, u)
			default:
				rest = append(rest, u)
			}
		}
		for _, u := range sccNodes {
			labels[u] = pivot
		}
		work = append(work, fwdOnly, bwdOnly, rest)
	}
	return labels
}
