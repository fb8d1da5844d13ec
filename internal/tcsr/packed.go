package tcsr

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"csrgraph/internal/csr"
	"csrgraph/internal/edgelist"
	"csrgraph/internal/parallel"
)

// Packed is the bit-packed differential TCSR — what Algorithm 5 returns
// ("return BitArray TCSR"): every differential frame's CSR is bit-packed
// with the Algorithm 4 encoder.
type Packed struct {
	numNodes int
	frames   []*csr.Packed
}

// Pack converts the temporal structure to its bit-packed form, packing
// frames in parallel with p processors.
func (tc *Temporal) Pack(p int) *Packed {
	frames := make([]*csr.Packed, len(tc.frames))
	parallel.ForEach(len(tc.frames), p, func(t int) {
		// Frames are packed concurrently with each other; each individual
		// pack runs sequentially to keep total goroutine count at p.
		frames[t] = csr.PackMatrix(tc.frames[t], 1)
	})
	return &Packed{numNodes: tc.numNodes, frames: frames}
}

// NumFrames returns the number of time-frames.
func (pt *Packed) NumFrames() int { return len(pt.frames) }

// NumNodes returns the node-id space size.
func (pt *Packed) NumNodes() int { return pt.numNodes }

// Frame returns the packed differential CSR of frame t.
func (pt *Packed) Frame(t int) *csr.Packed { return pt.frames[t] }

// Active reports whether edge (u, v) is active at frame t by the parity
// rule, binary-searching each packed frame row.
func (pt *Packed) Active(u, v edgelist.NodeID, t int) bool {
	if t < 0 || t >= len(pt.frames) {
		panic(fmt.Sprintf("tcsr: frame %d out of range [0,%d)", t, len(pt.frames)))
	}
	count := 0
	for i := 0; i <= t; i++ {
		if int(u) < pt.frames[i].NumNodes() && pt.frames[i].SearchRow(u, v) {
			count++
		}
	}
	return count%2 == 1
}

// ActiveNeighbors returns the sorted neighbors of u active at frame t.
func (pt *Packed) ActiveNeighbors(u edgelist.NodeID, t int) []uint32 {
	if t < 0 || t >= len(pt.frames) {
		panic(fmt.Sprintf("tcsr: frame %d out of range [0,%d)", t, len(pt.frames)))
	}
	parity := make(map[uint32]int)
	var row []uint32
	for i := 0; i <= t; i++ {
		if int(u) >= pt.frames[i].NumNodes() {
			continue
		}
		row = pt.frames[i].Row(row, u)
		for _, v := range row {
			parity[v]++
		}
	}
	out := make([]uint32, 0, len(parity))
	for v, c := range parity {
		if c%2 == 1 {
			out = append(out, v)
		}
	}
	sortUint32(out)
	return out
}

// SizeBytes returns the packed payload footprint across all frames.
func (pt *Packed) SizeBytes() int64 {
	var total int64
	for _, f := range pt.frames {
		total += f.SizeBytes()
	}
	return total
}

const packedFileMagic = "TCSR"

// WriteTo serializes the packed TCSR: magic, node count, frame count, then
// each frame's packed CSR.
func (pt *Packed) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var written int64
	n, err := bw.WriteString(packedFileMagic)
	written += int64(n)
	if err != nil {
		return written, err
	}
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(pt.numNodes))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(pt.frames)))
	n, err = bw.Write(hdr[:])
	written += int64(n)
	if err != nil {
		return written, err
	}
	for _, f := range pt.frames {
		m, err := f.WriteTo(bw)
		written += m
		if err != nil {
			return written, err
		}
	}
	return written, bw.Flush()
}

// ReadPacked deserializes a packed TCSR written by WriteTo.
func ReadPacked(r io.Reader) (*Packed, error) {
	br := bufio.NewReader(r)
	hdr := make([]byte, 20)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("tcsr: header: %w", err)
	}
	if string(hdr[:4]) != packedFileMagic {
		return nil, fmt.Errorf("tcsr: bad magic %q", hdr[:4])
	}
	numNodes := int(binary.LittleEndian.Uint64(hdr[4:12]))
	numFrames := int(binary.LittleEndian.Uint64(hdr[12:20]))
	const maxFrames = 1 << 30
	if numNodes < 0 || numFrames < 0 || numFrames > maxFrames {
		return nil, fmt.Errorf("tcsr: implausible header nodes=%d frames=%d", numNodes, numFrames)
	}
	// The frame count comes from an untrusted header: grow with append so a
	// lying header errors on the stream end instead of allocating up front.
	frames := make([]*csr.Packed, 0, min(numFrames, 1<<16))
	for t := 0; t < numFrames; t++ {
		f, err := csr.ReadPacked(br)
		if err != nil {
			return nil, fmt.Errorf("tcsr: frame %d: %w", t, err)
		}
		frames = append(frames, f)
	}
	return &Packed{numNodes: numNodes, frames: frames}, nil
}
