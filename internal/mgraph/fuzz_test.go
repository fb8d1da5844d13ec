package mgraph

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"csrgraph/internal/csr"
	"csrgraph/internal/edgelist"
	"csrgraph/internal/tcsr"
)

// FuzzParseContainer: the container parser consumes untrusted bytes and
// must reject corruption with an error, never a panic; anything it accepts
// (with full CRC verification on, the untrusted-input posture) must be
// safely queryable through the packed views, temporal frames included.
func FuzzParseContainer(f *testing.F) {
	dir := f.TempDir()
	seed := func(name string, write func(path string) error) []byte {
		path := filepath.Join(dir, name)
		if err := write(path); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		return data
	}

	ring := edgelist.List{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0}, {U: 0, V: 2}}
	prepared := ring.Prepared(true, 1)
	pk := csr.BuildPacked(prepared, prepared.NumNodes(), 1)
	good := seed("p.csrc", func(p string) error { return WritePackedFile(p, pk) })

	mat := csr.Build(prepared, prepared.NumNodes(), 1)
	seed("d.csrc", func(p string) error { return WriteDeltaFile(p, csr.PackDelta(mat, 1)) })

	wm, err := csr.BuildWeighted([]csr.WeightedEdge{{U: 0, V: 1, W: 7}, {U: 1, V: 2, W: 9}}, 0, 1)
	if err != nil {
		f.Fatal(err)
	}
	seed("w.csrc", func(p string) error { return WriteWeightedFile(p, csr.PackWeighted(wm, 1)) })

	// Temporal seeds: one frame; several frames with empty ones between;
	// and a header that claims fewer nodes than the frames have rows.
	events := edgelist.TemporalList{{U: 0, V: 3, T: 0}, {U: 2, V: 1, T: 0}, {U: 0, V: 3, T: 2}, {U: 3, V: 2, T: 2}, {U: 1, V: 0, T: 4}}
	for i, frames := range []int{1, 6} {
		tc, err := tcsr.BuildFromEvents(events[:1+4*i], 4, frames, 1)
		if err != nil {
			f.Fatal(err)
		}
		tdata := seed(fmt.Sprintf("t%d.csrc", frames), func(p string) error { return WriteTemporalFile(p, tc) })
		if frames > 1 {
			lying := append([]byte{}, tdata...)
			putU64(lying[24:], 2)
			putU32(lying[44:], crc32.Checksum(lying[0:44], crcTable))
			f.Add(lying)
		}
	}

	// Corrupted variants as seeds.
	for _, cut := range []int{1, 40, headerSize, len(good) / 2} {
		if cut < len(good) {
			f.Add(good[:cut])
		}
	}
	flipped := append([]byte{}, good...)
	flipped[20] ^= 0xFF
	f.Add(flipped)
	f.Add([]byte("CSRC"))
	f.Add([]byte("PCSR"))

	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := Parse(data, ParseOptions{VerifyCRC: true})
		if err != nil {
			return
		}
		if pt := c.Temporal(); pt != nil {
			n, last := pt.NumNodes(), pt.NumFrames()-1
			for u := 0; u < n && u < 64 && last >= 0; u++ {
				_ = pt.ActiveNeighbors(nil, uint32(u), last)
				_ = pt.Active(uint32(u), uint32(n-1), last)
				for t := 0; t <= last; t++ {
					_ = pt.Frame(t).Row(nil, uint32(u))
				}
			}
			return
		}
		src := c.Source()
		n := src.NumNodes()
		for u := 0; u < n && u < 64; u++ {
			_ = src.Degree(uint32(u))
			_ = src.Row(nil, uint32(u))
		}
		if p := c.Packed(); p != nil && n > 0 {
			_ = p.SearchRow(0, 0)
		}
	})
}
