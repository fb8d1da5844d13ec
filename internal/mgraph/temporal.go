package mgraph

import (
	"fmt"
	"os"

	"csrgraph/internal/bitpack"
	"csrgraph/internal/csr"
	"csrgraph/internal/tcsr"
)

// frameFields is the number of 32-bit frame table values per frame:
// offsets width, neighbors width, edge count.
const frameFields = 3

// packedWords returns the words of a packed array that its width*len bits
// occupy — the slice the temporal sections store per frame.
func packedWords(p *bitpack.Packed) []uint64 {
	return p.Bits().Words()[:(p.Width()*p.Len()+63)/64]
}

// WriteTemporalFile writes pt to path as a temporal-form container: the
// frame table, then every frame's offsets words, then every frame's
// neighbor words. Frames keep the widths Pack gave them.
func WriteTemporalFile(path string, pt *tcsr.Packed) error {
	return create(path, func(f *os.File) error {
		nf := pt.NumFrames()
		var words [2]uint64 // offsets, neighbors
		var edges uint64
		for t := 0; t < nf; t++ {
			off, cols := pt.Frame(t).Parts()
			words[0] += uint64(len(packedWords(off)))
			words[1] += uint64(len(packedWords(cols)))
			edges += uint64(cols.Len())
		}
		w, err := newContainerWriter(f, flagTemporal, 3, uint64(pt.NumNodes()), edges)
		if err != nil {
			return err
		}
		if err := w.begin(KindFrameTable, 32, frameFields*uint64(nf)); err != nil {
			return err
		}
		for t := 0; t < nf; t++ {
			off, cols := pt.Frame(t).Parts()
			for _, v := range [frameFields]int{off.Width(), cols.Width(), cols.Len()} {
				if err := w.value(uint64(v), 32); err != nil {
					return err
				}
			}
		}
		if err := w.end(); err != nil {
			return err
		}
		for i, kind := range []uint32{KindFrameOffsets, KindFrameCols} {
			if err := w.begin(kind, 0, 64*words[i]); err != nil {
				return err
			}
			for t := 0; t < nf; t++ {
				off, cols := pt.Frame(t).Parts()
				if err := w.words(packedWords([2]*bitpack.Packed{off, cols}[i])); err != nil {
					return err
				}
			}
			if err := w.end(); err != nil {
				return err
			}
		}
		return w.finish()
	})
}

// assembleTemporal builds the frames of a temporal container as zero-copy
// views over data, whose header and section bounds parseMeta has checked.
// Every frame gets numNodes+1 offsets, so a frame whose rows disagree with
// the header node count cannot be expressed; the word counts the frame
// table implies must fill the two raw sections exactly.
func assembleTemporal(data []byte, meta *Meta) (*tcsr.Packed, error) {
	tab, offSec, colSec := &meta.Sections[0], &meta.Sections[1], &meta.Sections[2]
	if tab.Width != 32 || tab.Count%frameFields != 0 {
		return nil, fmt.Errorf("frame table has %d entries at width %d, want a multiple of %d at width 32", tab.Count, tab.Width, frameFields)
	}
	if offSec.Width != 0 || colSec.Width != 0 || offSec.Count%64 != 0 || colSec.Count%64 != 0 {
		return nil, fmt.Errorf("frame sections must be whole raw words")
	}
	table, err := bitpack.View(32, int(tab.Count), wordsAt(data, tab.Offset, tab.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("frame table: %w", err)
	}
	offAll := wordsAt(data, offSec.Offset, offSec.Bytes())
	colAll := wordsAt(data, colSec.Offset, colSec.Bytes())
	rows := meta.NumNodes + 1
	nf := int(tab.Count / frameFields)
	frames := make([]*csr.Packed, nf)
	var edges uint64
	for t := range frames {
		offW, colW, m := table.Get(frameFields*t), table.Get(frameFields*t+1), table.Get(frameFields*t+2)
		if offW < 1 || offW > 32 || colW < 1 || colW > 32 {
			return nil, fmt.Errorf("frame %d: widths %d/%d out of range [1,32]", t, offW, colW)
		}
		nOff, nCol := (uint64(offW)*rows+63)/64, (uint64(colW)*uint64(m)+63)/64
		if nOff > uint64(len(offAll)) || nCol > uint64(len(colAll)) {
			return nil, fmt.Errorf("frame %d overruns the frame sections", t)
		}
		off, err := bitpack.View(int(offW), int(rows), offAll[:nOff:nOff])
		if err != nil {
			return nil, fmt.Errorf("frame %d offsets: %w", t, err)
		}
		cols, err := bitpack.View(int(colW), int(m), colAll[:nCol:nCol])
		if err != nil {
			return nil, fmt.Errorf("frame %d neighbors: %w", t, err)
		}
		if frames[t], err = csr.AssemblePacked(off, cols); err != nil {
			return nil, fmt.Errorf("frame %d: %w", t, err)
		}
		offAll, colAll = offAll[nOff:], colAll[nCol:]
		edges += uint64(m)
	}
	if len(offAll) != 0 || len(colAll) != 0 {
		return nil, fmt.Errorf("frame sections hold %d offsets and %d neighbor words past the last frame", len(offAll), len(colAll))
	}
	if edges != meta.NumEdges {
		return nil, fmt.Errorf("frames hold %d edges, header says %d", edges, meta.NumEdges)
	}
	return tcsr.AssemblePacked(int(meta.NumNodes), frames)
}
