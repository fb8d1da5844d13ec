package shard

import (
	"sync"
	"testing"

	"csrgraph/internal/edgelist"
)

// TestRowTableAdmit pins the table's admit/row/Stats invariants on a tiny
// deterministic row set.
func TestRowTableAdmit(t *testing.T) {
	rows := map[edgelist.NodeID][]uint32{
		0: {0, 3, 7},
		1: {},
		2: {1, 2, 4, 8, 16, 32},
	}
	tab := newRowTable(4, 1<<16)
	for u, row := range rows {
		if tab.row(u) != nil {
			t.Fatalf("row %d present before admission", u)
		}
		tab.admit(u, row)
	}
	if tab.row(3) != nil {
		t.Fatal("untouched row present")
	}
	for u, row := range rows {
		if got := tab.row(u); len(got) != len(row) {
			t.Fatalf("row(%d) = %v, want %v", u, got, row)
		}
	}
	st := tab.Stats()
	want := int64(0)
	for _, row := range rows {
		want += int64(len(row))*4 + rowSlotOverhead
	}
	if st.Entries != 3 || st.Bytes != want || st.MaxB != 1<<16 {
		t.Fatalf("stats = %+v, want 3 entries, %d bytes, budget %d", st, want, 1<<16)
	}
}

// TestRowTableBudget checks that admission stops at the budget instead of
// growing without bound.
func TestRowTableBudget(t *testing.T) {
	tab := newRowTable(1024, 600)
	big := make([]uint32, 4096)
	for i := range big {
		big[i] = uint32(i)
	}
	tab.admit(5, big)
	if tab.row(5) != nil {
		t.Fatal("oversized row admitted past byte budget")
	}
	small := []uint32{1, 2, 3}
	tab.admit(7, small)
	if tab.row(7) == nil {
		t.Fatal("small row refused with budget available")
	}
	if st := tab.Stats(); st.Bytes > st.MaxB {
		t.Fatalf("stats = %+v: bytes past the budget", st)
	}
	if newRowTable(8, 0) != nil {
		t.Fatal("zero budget should disable the table")
	}
}

// TestRowTableConcurrent hammers one table from many goroutines admitting
// and reading overlapping rows; run under -race this pins the publication
// of a row through its slot, and the budget holds under racing admits.
func TestRowTableConcurrent(t *testing.T) {
	const n = 64
	tab := newRowTable(n, 1<<20)
	rowOf := func(u edgelist.NodeID) []uint32 {
		row := make([]uint32, 0, 8)
		for v := uint32(0); v < 8; v++ {
			row = append(row, u*8+v)
		}
		return row
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint32) {
			defer wg.Done()
			for iter := 0; iter < 200; iter++ {
				u := (seed + uint32(iter)) % n
				if row := tab.row(u); row != nil {
					if len(row) != 8 || row[0] != u*8 || row[7] != u*8+7 {
						t.Errorf("row %d read back as %v", u, row)
						return
					}
					continue
				}
				tab.admit(u, rowOf(u))
			}
		}(uint32(w * 13))
	}
	wg.Wait()
	st := tab.Stats()
	if st.Entries != n || st.Bytes != n*(8*4+rowSlotOverhead) {
		t.Fatalf("stats = %+v, want %d entries of 8 values each", st, n)
	}
}
