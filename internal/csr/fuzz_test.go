package csr

import (
	"bytes"
	"sort"
	"testing"

	"csrgraph/internal/edgelist"
)

// FuzzReadPacked: the packed-CSR file reader consumes untrusted files and
// must reject corruption with an error, never a panic, and anything it
// accepts must be safely queryable.
func FuzzReadPacked(f *testing.F) {
	var buf bytes.Buffer
	pk := BuildPacked(paperGraph(), 10, 2)
	if _, err := pk.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	// Corrupted variants as seeds.
	for _, cut := range []int{1, 4, 12, len(good) / 2} {
		if cut < len(good) {
			f.Add(good[:cut])
		}
	}
	flipped := append([]byte{}, good...)
	flipped[8] ^= 0xFF
	f.Add(flipped)
	f.Add([]byte("PCSR"))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadPacked(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Whatever was accepted must answer queries without panicking.
		n := got.NumNodes()
		for u := 0; u < n && u < 64; u++ {
			_ = got.Degree(uint32(u))
			_ = got.Row(nil, uint32(u))
		}
		if n > 0 {
			_ = got.SearchRow(0, 0)
		}
	})
}

// FuzzSearchBatch checks the grouped packed search against sort.Search:
// the fuzzer picks the neighbor width, each byte of degs is one row (its
// degree mod 65, 0 included, so empty rows are common; a byte from 240 up is
// a hub of (b-239)*520 values, past one cache line of bits at every width
// and so many levels deeper than the short rows, whose values may repeat), and seed drives the row values and the probes —
// members, their neighbors, and random values.
func FuzzSearchBatch(f *testing.F) {
	f.Add(uint8(21), []byte{0, 3, 0, 0, 7, 1, 0, 40}, uint64(1))
	f.Add(uint8(1), []byte{2, 0, 1}, uint64(2))
	f.Add(uint8(32), []byte{0, 0, 0, 5}, uint64(3))
	f.Add(uint8(16), []byte{64, 0, 17, 33, 0}, uint64(4))
	// Mixed groups: hubs beside empty, one-line and just-past-a-line rows.
	f.Add(uint8(17), []byte{0, 241, 3, 0, 30, 31, 32, 250, 1, 0, 2, 245, 0, 9, 0, 0, 60, 255}, uint64(5))
	f.Add(uint8(0), []byte{240, 0, 1, 2, 240, 0}, uint64(6))
	f.Add(uint8(31), []byte{242, 16, 17, 0, 15, 242, 0, 0, 18, 1}, uint64(7))
	f.Add(uint8(8), []byte{64, 63, 62, 0, 243, 0, 65, 0, 0, 1, 244, 7}, uint64(8))
	f.Fuzz(func(t *testing.T, w uint8, degs []byte, seed uint64) {
		width := int(w)%32 + 1
		if len(degs) > 512 {
			degs = degs[:512]
		}
		next := func() uint64 {
			seed += 0x9e3779b97f4a7c15
			z := seed
			z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
			z = (z ^ z>>27) * 0x94d049bb133111eb
			return z ^ z>>31
		}
		limit := uint64(1) << width
		off := []uint32{0}
		var cols []uint32
		for _, d := range degs {
			hub := d >= 240 && len(cols) < 1<<16
			deg := int(d) % 65
			if hub {
				deg = (int(d) - 239) * 520
			}
			row := make([]uint32, deg)
			for i := range row {
				row[i] = uint32(next() % limit)
			}
			sort.Slice(row, func(i, j int) bool { return row[i] < row[j] })
			if !hub {
				row = dedupSorted(row)
			}
			cols = append(cols, row...)
			off = append(off, uint32(len(cols)))
		}
		m := &Matrix{RowOffsets: off, Cols: cols}
		pk := PackMatrix(m, 1)
		var batch []edgelist.Edge
		var wants []bool
		for u := range degs {
			row := m.Neighbors(uint32(u))
			probes := []uint32{uint32(next() % limit), uint32(next() % limit)}
			if len(row) > 0 {
				v := row[next()%uint64(len(row))]
				probes = append(probes, v, v+1, v-1, row[len(row)-1]+1)
			}
			for _, v := range probes {
				i := sort.Search(len(row), func(i int) bool { return row[i] >= v })
				batch = append(batch, edgelist.Edge{U: uint32(u), V: v})
				wants = append(wants, i < len(row) && row[i] == v)
			}
		}
		// Shuffle, so the search groups mix rows from all over the graph.
		for i := len(batch) - 1; i > 0; i-- {
			j := int(next() % uint64(i+1))
			batch[i], batch[j] = batch[j], batch[i]
			wants[i], wants[j] = wants[j], wants[i]
		}
		checkSearchBatch(t, pk, batch, wants)
		for i, e := range batch {
			if got := pk.SearchRow(e.U, e.V); got != wants[i] {
				t.Fatalf("SearchRow(%d, %d) = %v, want %v", e.U, e.V, got, wants[i])
			}
		}
	})
}
