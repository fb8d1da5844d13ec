package frontier

import "csrgraph/internal/parallel"

// Policy is the sparse↔dense (push↔pull) switching heuristic — Beamer's
// direction-optimizing BFS parameters as GBBS applies them to edgeMap. A
// sparse round goes dense when the frontier plus its out-edges exceed
// m/Alpha (the point where touching every in-edge once beats contended CAS
// claims on hot vertices); a dense round falls back to sparse when the
// frontier shrinks below n/Beta (hysteresis, so mid-size frontiers do not
// flap). The zero value means DefaultPolicy.
type Policy struct {
	Alpha int // dense when (|frontier| + frontierEdges) * Alpha > m; <= 0 means 20
	Beta  int // back to sparse when |frontier| * Beta <= n;  <= 0 means 20
}

// DefaultAlpha and DefaultBeta are the GBBS/Beamer defaults.
const (
	DefaultAlpha = 20
	DefaultBeta  = 20
)

// DefaultPolicy returns the GBBS-default switching policy.
func DefaultPolicy() Policy { return Policy{Alpha: DefaultAlpha, Beta: DefaultBeta} }

// UseDense decides the representation for the next round from the frontier
// size, the number of out-edges incident to the frontier, the vertex count
// n, the edge count m, and whether the previous round ran dense. EdgeMap's
// Auto mode is its one caller.
//
//csr:hotpath
func (pol Policy) UseDense(frontierLen, frontierEdges, n, m int, wasDense bool) bool {
	alpha, beta := pol.Alpha, pol.Beta
	if alpha <= 0 {
		alpha = DefaultAlpha
	}
	if beta <= 0 {
		beta = DefaultBeta
	}
	if wasDense {
		return frontierLen*beta > n
	}
	return (frontierLen+frontierEdges)*alpha > m
}

// degreeSum returns the total out-degree of ids with p processors — the
// frontierEdges input of Policy.UseDense.
func degreeSum(g Graph, ids []uint32, p int) int {
	if len(ids) == 0 {
		return 0
	}
	if p > len(ids) {
		p = len(ids)
	}
	if p < 1 {
		p = 1
	}
	sums := make([]int, p)
	parallel.ForDynamic(len(ids), p, 0, func(w int, r parallel.Range) {
		sum := sums[w]
		for i := r.Start; i < r.End; i++ {
			sum += g.Degree(ids[i])
		}
		sums[w] = sum
	})
	total := 0
	for _, s := range sums {
		total += s
	}
	return total
}
