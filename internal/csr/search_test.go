package csr

import (
	"math/rand"
	"sort"
	"testing"

	"csrgraph/internal/bitpack"
	"csrgraph/internal/edgelist"
)

// searchTestMatrix builds a Matrix whose Cols values exercise exactly the
// given packed bit width: rows are sorted random values below 2^width with
// the maximum forced to have bit width-1 set, so PackMatrix chooses that
// width for jA. Node-space validity of the neighbor ids is irrelevant to
// the search paths under test.
func searchTestMatrix(width int, rows, maxDeg int, rng *rand.Rand) *Matrix {
	limit := uint64(1) << width
	off := make([]uint32, 1, rows+1)
	var cols []uint32
	for r := 0; r < rows; r++ {
		d := rng.Intn(maxDeg + 1)
		row := make([]uint32, 0, d+1)
		for i := 0; i < d; i++ {
			row = append(row, uint32(rng.Uint64()%limit))
		}
		if r == rows-1 {
			// Force the packed width: the last row carries the maximum
			// representable value, so PackMatrix picks exactly `width`.
			row = append(row, uint32(limit-1))
		}
		sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
		row = dedupSorted(row)
		cols = append(cols, row...)
		off = append(off, uint32(len(cols)))
	}
	return &Matrix{RowOffsets: off, Cols: cols}
}

// testHubDegree is the length of the long rows the search tests build:
// several levels past a cache line of packed bits at every width.
const testHubDegree = 512

// testLineBits is one cache line of packed bits. The batch-search tests
// build rows just inside and just past it, whose searches end a level or
// two apart, beside hub rows that take many more levels.
const testLineBits = 512

// dedupSorted compacts a sorted row to strictly ascending, the CSR row
// invariant.
func dedupSorted(row []uint32) []uint32 {
	out := row[:0]
	for i, v := range row {
		if i == 0 || v != row[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// TestSearchRowDifferentialAcrossWidths quick-checks the zero-decode
// packed search against sort.Search over the decoded row for every packed
// width 1..32, probing present values, absent values, values below the
// first and above the last neighbor, and empty rows, one probe at a time
// (SearchRow) and all at once (SearchBatch).
func TestSearchRowDifferentialAcrossWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for width := 1; width <= 32; width++ {
		// A mix of short rows and one hub row.
		m := searchTestMatrix(width, 8, 24, rng)
		hub := searchTestMatrix(width, 1, testHubDegree, rng)
		for _, mat := range []*Matrix{m, hub} {
			pk := PackMatrix(mat, 2)
			if got := pk.NumBits(); got != width && mat.NumEdges() > 0 {
				t.Fatalf("width %d: packed to %d bits", width, got)
			}
			var batch []edgelist.Edge
			var wants []bool
			for u := 0; u < mat.NumNodes(); u++ {
				row := mat.Neighbors(uint32(u))
				var probes []uint32
				probes = append(probes, row...)
				for i := 0; i < 16; i++ {
					probes = append(probes, uint32(rng.Uint64()%(1<<width)))
				}
				if len(row) > 0 {
					if row[0] > 0 {
						probes = append(probes, 0, row[0]-1)
					}
					probes = append(probes, row[len(row)-1])
					if row[len(row)-1] < ^uint32(0) {
						probes = append(probes, row[len(row)-1]+1)
					}
				} else {
					probes = append(probes, 0, 1)
				}
				for _, v := range probes {
					i := sort.Search(len(row), func(i int) bool { return row[i] >= v })
					want := i < len(row) && row[i] == v
					if got := pk.SearchRow(uint32(u), v); got != want {
						t.Fatalf("width %d: packed SearchRow(%d, %d) = %v, want %v (row %v)",
							width, u, v, got, want, row)
					}
					if got := mat.SearchRow(uint32(u), v); got != want {
						t.Fatalf("width %d: matrix SearchRow(%d, %d) = %v, want %v", width, u, v, got, want)
					}
					batch = append(batch, edgelist.Edge{U: uint32(u), V: v})
					wants = append(wants, want)
				}
			}
			checkSearchBatch(t, pk, batch, wants)
			checkSearchBatch(t, mat, batch, wants)
		}
	}
}

// checkSearchBatch runs one SearchBatch over all probes and compares every
// answer; the output slice is longer than the batch and its tail must stay
// untouched.
func checkSearchBatch(t *testing.T, s interface {
	SearchBatch([]edgelist.Edge, []bool)
}, batch []edgelist.Edge, wants []bool) {
	t.Helper()
	out := make([]bool, len(batch)+1)
	out[len(batch)] = true
	s.SearchBatch(batch, out)
	for i, want := range wants {
		if out[i] != want {
			t.Fatalf("%T SearchBatch probe %d %v = %v, want %v", s, i, batch[i], out[i], want)
		}
	}
	if !out[len(batch)] {
		t.Fatalf("%T SearchBatch wrote past the batch", s)
	}
}

// mixedRow returns a sorted row of exactly deg values below limit, for the
// level-interleaved search tests. It is strictly ascending when the width
// allows deg distinct values; at narrower widths the values repeat, which
// the lower-bound search answers the same way, so that rows past one cache
// line of bits exist at every width.
func mixedRow(deg int, limit uint64, rng *rand.Rand) []uint32 {
	row := make([]uint32, 0, deg)
	switch {
	case uint64(deg) > limit:
		for len(row) < deg {
			row = append(row, uint32(rng.Uint64()%limit))
		}
	case limit <= 1<<16:
		for _, v := range rng.Perm(int(limit))[:deg] {
			row = append(row, uint32(v))
		}
	default:
		seen := map[uint32]bool{}
		for len(row) < deg {
			if v := uint32(rng.Uint64() % limit); !seen[v] {
				seen[v] = true
				row = append(row, v)
			}
		}
	}
	sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
	return row
}

// mixedProbe draws a probe target for row: a member, a value next to one,
// or any value below limit.
func mixedProbe(row []uint32, limit uint64, rng *rand.Rand) uint32 {
	if len(row) == 0 || rng.Intn(3) == 0 {
		return uint32(rng.Uint64() % limit)
	}
	v := row[rng.Intn(len(row))]
	switch rng.Intn(3) {
	case 0:
		return v - 1
	case 1:
		return v + 1
	}
	return v
}

// TestSearchBatchMixedGroups checks the level-interleaved batch search on
// groups that mix rows of every length it must handle together: empty
// rows (answered without a search), rows inside one cache line of packed
// bits, rows just past it, and hub rows, so that probes leave the live
// list at different sweeps. At every width 1..32 each long row goes in
// every slot of a 16-probe group, once beside rows of every kind and once
// as the group's only row past a line, and the batch is cut at lengths
// and offsets that are not multiples of the group size.
func TestSearchBatchMixedGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for width := 1; width <= 32; width++ {
		limit := uint64(1) << width
		line := testLineBits / width
		degs := []int{0, 1, 2, line - 1, line, line + 1, line + 2, testHubDegree, 4096 + 37}
		const firstLong = 5 // degs[5:] are past one line
		off := []uint32{0}
		var cols []uint32
		for _, d := range degs {
			cols = append(cols, mixedRow(d, limit, rng)...)
			off = append(off, uint32(len(cols)))
		}
		cols = append(cols, uint32(limit-1)) // a last row pins the width
		off = append(off, uint32(len(cols)))
		m := &Matrix{RowOffsets: off, Cols: cols}
		pk := PackMatrix(m, 1)
		if pk.NumBits() != width {
			t.Fatalf("width %d: packed to %d bits", width, pk.NumBits())
		}
		var batch []edgelist.Edge
		probe := func(u uint32) {
			batch = append(batch, edgelist.Edge{U: u, V: mixedProbe(m.Neighbors(u), limit, rng)})
		}
		for long := firstLong; long < len(degs); long++ {
			for slot := 0; slot < searchGroup; slot++ {
				for _, others := range []int{len(degs), firstLong} {
					for j := 0; j < searchGroup; j++ {
						if j == slot {
							probe(uint32(long))
						} else {
							probe(uint32(rng.Intn(others)))
						}
					}
				}
			}
		}
		for i := 0; i < searchGroup+5; i++ { // a group of long rows alone, then a short tail
			probe(uint32(firstLong + i%(len(degs)-firstLong)))
		}
		wants := make([]bool, len(batch))
		for i, e := range batch {
			row := m.Neighbors(e.U)
			k := sort.Search(len(row), func(k int) bool { return row[k] >= e.V })
			wants[i] = k < len(row) && row[k] == e.V
		}
		for _, cut := range [][2]int{{0, len(batch)}, {3, len(batch)}, {0, len(batch) - 7}, {5, 5 + searchGroup - 1}, {1, 2}} {
			checkSearchBatch(t, pk, batch[cut[0]:cut[1]], wants[cut[0]:cut[1]])
		}
	}
}

// TestSearchBatchNodeOutOfRange checks that the inlined row-bounds read
// keeps RowBounds' range check: a source id past the last node panics.
func TestSearchBatchNodeOutOfRange(t *testing.T) {
	pk := PackMatrix(Build(edgelist.List{{U: 0, V: 1}, {U: 1, V: 0}}, 2, 1), 1)
	defer func() {
		if recover() == nil {
			t.Fatal("SearchBatch with node 2 of 2 did not panic")
		}
	}()
	pk.SearchBatch([]edgelist.Edge{{U: 0, V: 1}, {U: 2, V: 0}}, make([]bool, 2))
}

// TestSearchRangeSubranges checks the Algorithm 8 split unit: searching any
// subrange of a row agrees with membership of that subrange, for both the
// packed and plain forms.
func TestSearchRangeSubranges(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := searchTestMatrix(20, 4, testHubDegree, rng)
	pk := PackMatrix(m, 1)
	for u := 0; u < m.NumNodes(); u++ {
		start, end := m.RowBounds(uint32(u))
		if s2, e2 := pk.RowBounds(uint32(u)); s2 != start || e2 != end {
			t.Fatalf("RowBounds disagree: matrix [%d,%d) packed [%d,%d)", start, end, s2, e2)
		}
		for trial := 0; trial < 50; trial++ {
			lo := start
			hi := end
			if end > start {
				lo = start + rng.Intn(end-start+1)
				hi = lo + rng.Intn(end-lo+1)
			}
			var v uint32
			if hi > lo && trial%2 == 0 {
				v = m.Cols[lo+rng.Intn(hi-lo)] // present
			} else {
				v = uint32(rng.Uint64() % (1 << 20))
			}
			want := false
			for _, w := range m.Cols[lo:hi] {
				if w == v {
					want = true
				}
			}
			if got := pk.SearchRange(lo, hi, v); got != want {
				t.Fatalf("packed SearchRange([%d,%d), %d) = %v, want %v", lo, hi, v, got, want)
			}
			if got := m.SearchRange(lo, hi, v); got != want {
				t.Fatalf("matrix SearchRange([%d,%d), %d) = %v, want %v", lo, hi, v, got, want)
			}
		}
	}
}

// TestDeltaSearchRow pins the delta form's early-exit search to HasEdge
// semantics.
func TestDeltaSearchRow(t *testing.T) {
	l := edgelist.List{{U: 0, V: 2}, {U: 0, V: 5}, {U: 0, V: 9}, {U: 2, V: 0}}
	m := Build(l, 3, 1)
	dp := PackDelta(m, 1)
	cases := []struct {
		u, v uint32
		want bool
	}{
		{0, 2, true}, {0, 5, true}, {0, 9, true},
		{0, 0, false}, {0, 4, false}, {0, 10, false},
		{1, 0, false}, // empty row
		{2, 0, true}, {2, 1, false},
	}
	batch := make([]edgelist.Edge, len(cases))
	wants := make([]bool, len(cases))
	for i, c := range cases {
		if got := dp.SearchRow(c.u, c.v); got != c.want {
			t.Fatalf("delta SearchRow(%d, %d) = %v, want %v", c.u, c.v, got, c.want)
		}
		batch[i], wants[i] = edgelist.Edge{U: c.u, V: c.v}, c.want
	}
	checkSearchBatch(t, dp, batch, wants)
}

// guardedPacked serves pk's two arrays from guarded mappings (guardedWords)
// through bitpack.View, as a mapped container would.
func guardedPacked(t *testing.T, pk *Packed) *Packed {
	t.Helper()
	view := func(p *bitpack.Packed) *bitpack.Packed {
		v, err := bitpack.View(p.Width(), p.Len(), guardedWords(t, p.Bits().Words()))
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	g, err := AssemblePacked(view(pk.off), view(pk.cols))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSearchGuardedViewsAcrossWidths checks the packed search at the ends
// of its arrays, where the window read's clamp is all that keeps it inside
// them: for every neighbor width 1..32 and a sweep of row counts, a last
// row that ends on the last value of jA, an empty last row whose start
// equals len(jA), and (somewhere in the sweep) an iA whose final offset
// pair straddles its last word boundary. Both arrays are bitpack views
// ending flush against an inaccessible page, so a read past either faults.
// At each width, wide rows at both ends of jA are also searched in mixed
// groups (checkGuardedMixedGroups).
func TestSearchGuardedViewsAcrossWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for width := 1; width <= 32; width++ {
		limit := uint64(1) << width
		straddles := 0
		for rows := 1; rows <= 40; rows++ {
			for _, lastEmpty := range []bool{false, true} {
				off := []uint32{0}
				var cols []uint32
				for r := 0; r < rows; r++ {
					row := make([]uint32, rng.Intn(5))
					if r == rows-1 && lastEmpty {
						row = row[:0]
					}
					for i := range row {
						row[i] = uint32(rng.Uint64() % limit)
					}
					// Pin the width in the last non-empty row, so a full
					// last row ends on the largest value.
					if r == rows-1 && !lastEmpty || r == rows-2 && lastEmpty {
						row = append(row, uint32(limit-1))
					}
					sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
					cols = append(cols, dedupSorted(row)...)
					off = append(off, uint32(len(cols)))
				}
				m := &Matrix{RowOffsets: off, Cols: cols}
				pk := guardedPacked(t, PackMatrix(m, 1))
				if len(cols) > 0 && pk.NumBits() != width {
					t.Fatalf("width %d: packed to %d bits", width, pk.NumBits())
				}
				if ow := pk.OffsetBits(); (rows-1)*ow/64 != ((rows+1)*ow-1)/64 {
					straddles++
				}
				var batch []edgelist.Edge
				var wants []bool
				for u := 0; u < rows; u++ {
					row := m.Neighbors(uint32(u))
					if start, end := pk.RowBounds(uint32(u)); start != int(off[u]) || end != int(off[u+1]) {
						t.Fatalf("width %d rows %d: RowBounds(%d) = [%d,%d), want [%d,%d)", width, rows, u, start, end, off[u], off[u+1])
					}
					probes := []uint32{0, uint32(limit - 1), uint32(rng.Uint64() % limit)}
					for _, v := range row {
						probes = append(probes, v, v+1, v-1)
					}
					for _, v := range probes {
						i := sort.Search(len(row), func(i int) bool { return row[i] >= v })
						want := i < len(row) && row[i] == v
						if got := pk.SearchRow(uint32(u), v); got != want {
							t.Fatalf("width %d rows %d: SearchRow(%d, %d) = %v, want %v (row %v)", width, rows, u, v, got, want, row)
						}
						if got := pk.cols.LowerBound(int(off[u]), int(off[u+1]), v); got != int(off[u])+i {
							t.Fatalf("width %d rows %d: LowerBound row %d, %d = %d, want %d", width, rows, u, v, got, int(off[u])+i)
						}
						batch = append(batch, edgelist.Edge{U: uint32(u), V: v})
						wants = append(wants, want)
					}
				}
				checkSearchBatch(t, pk, batch, wants)
			}
		}
		if straddles == 0 {
			t.Fatalf("width %d: no row count put the final offset pair across a word boundary", width)
		}
		checkGuardedMixedGroups(t, width, rng)
	}
}

// checkGuardedMixedGroups searches a wide row at each end of a guarded jA
// inside mixed groups: the first row starts at position 0, so a level read
// before its start leaves the array, and the last ends flush on the guard
// page, so a read past its end faults. Both are past one cache line of
// bits, and they share groups with empty and short rows.
func checkGuardedMixedGroups(t *testing.T, width int, rng *rand.Rand) {
	t.Helper()
	limit := uint64(1) << width
	line := testLineBits / width
	wide := line + 1 + rng.Intn(600)
	rows := [][]uint32{
		mixedRow(wide, limit, rng),
		nil,
		mixedRow(3, limit, rng),
		mixedRow(line, limit, rng),
		append(mixedRow(wide-1, limit-1, rng), uint32(limit-1)), // ends on the largest value
	}
	off := []uint32{0}
	var cols []uint32
	for _, row := range rows {
		cols = append(cols, row...)
		off = append(off, uint32(len(cols)))
	}
	m := &Matrix{RowOffsets: off, Cols: cols}
	pk := guardedPacked(t, PackMatrix(m, 1))
	if pk.NumBits() != width {
		t.Fatalf("width %d: packed to %d bits", width, pk.NumBits())
	}
	var batch []edgelist.Edge
	for slot := 0; slot < 2*searchGroup; slot++ {
		for j := 0; j < searchGroup; j++ {
			u := uint32(rng.Intn(len(rows)))
			if j == slot%searchGroup {
				u = uint32(slot / searchGroup * (len(rows) - 1)) // first, then last row
			}
			batch = append(batch, edgelist.Edge{U: u, V: mixedProbe(rows[u], limit, rng)})
		}
	}
	last := uint32(len(rows) - 1)
	batch = append(batch, edgelist.Edge{U: last, V: uint32(limit - 1)}, edgelist.Edge{U: 0, V: 0}, edgelist.Edge{U: last, V: 0})
	wants := make([]bool, len(batch))
	for i, e := range batch {
		row := rows[e.U]
		k := sort.Search(len(row), func(k int) bool { return row[k] >= e.V })
		wants[i] = k < len(row) && row[k] == e.V
	}
	checkSearchBatch(t, pk, batch, wants)
	checkSearchBatch(t, pk, batch[searchGroup/2:], wants[searchGroup/2:])
}
