// Package mgraph defines the versioned on-disk binary container for packed
// CSR graphs — the repository's one persistence format — and its two load
// paths: a memory-mapped open that turns a container file into live query
// structures without copying, and a verified heap read.
//
// The container lays each bit-packed array out exactly as its in-memory
// [[]uint64] backing — little-endian words, 64-byte aligned — so the file
// can be mmap'd and wrapped in zero-copy views (bitarray.View /
// bitpack.View over unsafe.Slice of the mapping): multi-GB graphs load in
// milliseconds, the page cache holds the only copy, and that copy is
// shared across every process serving the same file. ReadFile builds the
// same views over one aligned heap copy instead, after checking every
// section CRC and every neighbor id.
//
// Layout (all integers little-endian):
//
//	offset size field
//	0      4    magic "CSRC"
//	4      4    format version (currently 1)
//	8      4    flags (bit 0 weighted, bit 1 delta-gamma, bit 2 temporal)
//	12     4    section count
//	16     8    endianness marker 0x0102030405060708
//	24     8    numNodes
//	32     8    numEdges (temporal: stored toggles summed over frames)
//	40     4    CRC-32C of the section table
//	44     4    CRC-32C of header bytes [0,44)
//	48     16   zero padding
//	64     32*k section table
//	...         sections, each zero-padded to a 64-byte boundary
//
// Section table entry (32 bytes): kind u32, width u32 (bits per element; 0
// marks a raw bit payload), count u64 (elements, or bits when width is 0),
// file offset u64 (64-byte aligned), CRC-32C of the payload bytes u32, and
// 4 zero bytes. Section payloads are the packed words verbatim; the unused
// low bits of a final partial word are zero, the invariant every bitarray
// constructor maintains and bitarray.View re-checks on load.
//
// The container holds one graph in one of four forms, with a canonical
// section order so independently produced files are byte-comparable:
//
//	packed   (flags 0):    row offsets, neighbors
//	weighted (flags bit0): row offsets, neighbors, weights
//	delta    (flags bit1): row offsets, delta-gamma payload
//	temporal (flags bit2): frame table, frame offsets, frame neighbors
//
// The temporal form stores Section IV's differential TCSR, one packed CSR
// per frame, each with its own widths. The frame table holds three 32-bit
// values per frame: offsets width, neighbors width, edge count. The two
// raw-bit sections hold every frame's offsets words and every frame's
// neighbor words, frame after frame, each frame starting on a word
// boundary; every frame has exactly numNodes rows.
//
// The external-memory builder (extbuild.go) streams edge lists larger than
// RAM into this same layout via spill files and a k-way merge, emitting a
// byte-identical file to the in-RAM writer.
package mgraph

import (
	"errors"
	"fmt"
	"hash/crc32"
	"unsafe"

	"csrgraph/internal/bitarray"
	"csrgraph/internal/bitpack"
	"csrgraph/internal/csr"
	"csrgraph/internal/query"
	"csrgraph/internal/tcsr"
)

const (
	// Magic identifies a container file.
	Magic = "CSRC"

	// Version is the current format version; readers reject anything else.
	Version = 1

	headerSize       = 64
	sectionEntrySize = 32
	sectionAlign     = 64

	// endianMarker is stored little-endian and re-read through the same
	// word-view mechanism the sections use, so a byte-swapped host (or a
	// byte-swapped file) fails loudly instead of decoding garbage.
	endianMarker = 0x0102030405060708

	// maxSections bounds the table before any allocation; no defined form
	// needs more than 3 sections, the slack is for future kinds.
	maxSections = 8

	// maxNodes/maxEdges bound the header counts: node ids are uint32 and
	// edge positions are packed into uint32 offsets, so anything larger
	// cannot have been written by this package.
	maxNodes = 1 << 32
	maxEdges = 1 << 32
)

// Container flags.
const (
	flagWeighted uint32 = 1 << 0
	flagDelta    uint32 = 1 << 1
	flagTemporal uint32 = 1 << 2
)

// Section kinds.
const (
	KindOffsets      uint32 = 1 // iA: bit-packed row offsets, count = numNodes+1
	KindNeighbors    uint32 = 2 // jA: bit-packed neighbor ids, count = numEdges
	KindWeights      uint32 = 3 // vA: bit-packed weights, count = numEdges
	KindDeltaPayload uint32 = 4 // delta-gamma bit stream, width 0, count = bits
	KindFrameTable   uint32 = 5 // per frame: offsets width, neighbors width, edges; width 32
	KindFrameOffsets uint32 = 6 // every frame's iA words, width 0, count = bits
	KindFrameCols    uint32 = 7 // every frame's jA words, width 0, count = bits
)

// KindName returns a human-readable section kind label for tooling.
func KindName(kind uint32) string {
	switch kind {
	case KindOffsets:
		return "offsets"
	case KindNeighbors:
		return "neighbors"
	case KindWeights:
		return "weights"
	case KindDeltaPayload:
		return "delta-payload"
	case KindFrameTable:
		return "frame-table"
	case KindFrameOffsets:
		return "frame-offsets"
	case KindFrameCols:
		return "frame-neighbors"
	}
	return fmt.Sprintf("unknown(%d)", kind)
}

// Form identifies which graph structure a container holds.
type Form int

const (
	FormPacked Form = iota
	FormWeighted
	FormDelta
	FormTemporal
)

// String names the form as csrstats prints it.
func (f Form) String() string {
	switch f {
	case FormPacked:
		return "packed"
	case FormWeighted:
		return "weighted"
	case FormDelta:
		return "delta"
	case FormTemporal:
		return "temporal"
	}
	return fmt.Sprintf("Form(%d)", int(f))
}

var (
	// ErrLegacyStream reports a file of the retired PCSR/WCSR/TCSR stream
	// formats handed to the container loader — a format mismatch, not
	// corruption. No reader for those formats remains.
	ErrLegacyStream = errors.New("mgraph: legacy stream-format graph file, not a binary container (rebuild it from its edge list with csrconvert)")

	// ErrBigEndianHost reports that the zero-copy word views cannot be
	// built on this machine: the container stores little-endian words and
	// the views reinterpret mapped bytes in host order.
	ErrBigEndianHost = errors.New("mgraph: container requires a little-endian host for zero-copy mapping")
)

// crcTable is the Castagnoli polynomial table shared by writer and reader.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Section describes one aligned payload region of a container.
type Section struct {
	Kind   uint32
	Width  uint32 // bits per element; 0 = raw bit payload
	Count  uint64 // elements, or bits when Width == 0
	Offset uint64 // file byte offset, sectionAlign-aligned
	CRC    uint32 // CRC-32C of the payload bytes
}

// Bits returns the payload length in bits.
func (s *Section) Bits() uint64 {
	if s.Width == 0 {
		return s.Count
	}
	return s.Count * uint64(s.Width)
}

// Bytes returns the payload length in bytes (whole little-endian words).
func (s *Section) Bytes() uint64 { return (s.Bits() + 63) / 64 * 8 }

// Meta is the parsed header and section table of a container — everything
// csrstats prints without touching the arrays.
type Meta struct {
	Version  uint32
	Flags    uint32
	NumNodes uint64
	NumEdges uint64
	Sections []Section
}

// Form derives the graph form from the header flags.
func (m *Meta) Form() Form {
	switch {
	case m.Flags&flagTemporal != 0:
		return FormTemporal
	case m.Flags&flagDelta != 0:
		return FormDelta
	case m.Flags&flagWeighted != 0:
		return FormWeighted
	}
	return FormPacked
}

// sectionKinds returns the canonical section kind sequence for a form.
func (f Form) sectionKinds() []uint32 {
	switch f {
	case FormWeighted:
		return []uint32{KindOffsets, KindNeighbors, KindWeights}
	case FormDelta:
		return []uint32{KindOffsets, KindDeltaPayload}
	case FormTemporal:
		return []uint32{KindFrameTable, KindFrameOffsets, KindFrameCols}
	}
	return []uint32{KindOffsets, KindNeighbors}
}

// le* / putU* are the little-endian integer accessors over raw header
// bytes; hand-rolled shifts so the format package has no codec imports and
// the layout is spelled out at the use sites.
func leU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func leU64(b []byte) uint64 {
	return uint64(leU32(b)) | uint64(leU32(b[4:]))<<32
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func putU64(b []byte, v uint64) {
	putU32(b, uint32(v))
	putU32(b[4:], uint32(v>>32))
}

// parseMeta validates the fixed header and section table against the file
// size, bounds-checking every count and offset before the caller builds a
// single view or allocation. size is the total container length in bytes.
func parseMeta(data []byte, size uint64) (*Meta, error) {
	if len(data) >= 4 {
		switch string(data[:4]) {
		case "PCSR", "WCSR", "TCSR":
			return nil, ErrLegacyStream
		}
	}
	if uint64(len(data)) < headerSize {
		return nil, fmt.Errorf("mgraph: %d bytes is too short for a container header", len(data))
	}
	if string(data[:4]) != Magic {
		return nil, fmt.Errorf("mgraph: bad magic %q", data[:4])
	}
	if got := crc32.Checksum(data[0:44], crcTable); got != leU32(data[44:48]) {
		return nil, fmt.Errorf("mgraph: header CRC mismatch (got %08x, stored %08x)", got, leU32(data[44:48]))
	}
	m := &Meta{
		Version:  leU32(data[4:8]),
		Flags:    leU32(data[8:12]),
		NumNodes: leU64(data[24:32]),
		NumEdges: leU64(data[32:40]),
	}
	if m.Version != Version {
		return nil, fmt.Errorf("mgraph: unsupported container version %d (want %d)", m.Version, Version)
	}
	if leU64(data[16:24]) != endianMarker {
		return nil, errors.New("mgraph: endianness marker mismatch (byte-swapped file?)")
	}
	if m.NumNodes > maxNodes || m.NumEdges > maxEdges {
		return nil, fmt.Errorf("mgraph: implausible header numNodes=%d numEdges=%d", m.NumNodes, m.NumEdges)
	}
	nSec := leU32(data[12:16])
	if nSec == 0 || nSec > maxSections {
		return nil, fmt.Errorf("mgraph: implausible section count %d", nSec)
	}
	tableEnd := uint64(headerSize) + uint64(nSec)*sectionEntrySize
	if uint64(len(data)) < tableEnd {
		return nil, fmt.Errorf("mgraph: file truncated inside section table (%d bytes, table ends at %d)", len(data), tableEnd)
	}
	table := data[headerSize:tableEnd]
	if got := crc32.Checksum(table, crcTable); got != leU32(data[40:44]) {
		return nil, fmt.Errorf("mgraph: section table CRC mismatch (got %08x, stored %08x)", got, leU32(data[40:44]))
	}
	// Sections must sit past the table, aligned, in-bounds, and in file
	// order so the canonical layout stays canonical.
	minOffset := (tableEnd + sectionAlign - 1) / sectionAlign * sectionAlign
	m.Sections = make([]Section, nSec)
	for i := range m.Sections {
		e := table[i*sectionEntrySize:]
		s := Section{
			Kind:   leU32(e[0:4]),
			Width:  leU32(e[4:8]),
			Count:  leU64(e[8:16]),
			Offset: leU64(e[16:24]),
			CRC:    leU32(e[24:28]),
		}
		if s.Width > 32 {
			return nil, fmt.Errorf("mgraph: section %d (%s) width %d out of range [0,32]", i, KindName(s.Kind), s.Width)
		}
		if s.Count > 1<<48 {
			return nil, fmt.Errorf("mgraph: section %d (%s) implausible count %d", i, KindName(s.Kind), s.Count)
		}
		if s.Offset%sectionAlign != 0 || s.Offset < minOffset {
			return nil, fmt.Errorf("mgraph: section %d (%s) misplaced at offset %d", i, KindName(s.Kind), s.Offset)
		}
		end := s.Offset + s.Bytes()
		if end < s.Offset || end > size {
			return nil, fmt.Errorf("mgraph: section %d (%s) [%d,%d) overruns %d-byte file", i, KindName(s.Kind), s.Offset, end, size)
		}
		minOffset = (end + sectionAlign - 1) / sectionAlign * sectionAlign
		m.Sections[i] = s
	}
	return m, nil
}

// Container is a loaded container: the parsed metadata plus the assembled
// graph structure, whose arrays alias the backing bytes (a mapping or a
// heap copy — see Mapped).
type Container struct {
	Meta
	form Form
	pk   *csr.Packed
	pw   *csr.PackedWeighted
	dp   *csr.DeltaPacked
	tp   *tcsr.Packed
}

// GraphForm returns which structure the container holds.
func (c *Container) GraphForm() Form { return c.form }

// Packed returns the bit-packed CSR view: the graph itself for FormPacked,
// the embedded structural part for FormWeighted, nil for FormDelta.
func (c *Container) Packed() *csr.Packed {
	if c.pw != nil {
		return &c.pw.Packed
	}
	return c.pk
}

// Weighted returns the weighted view, or nil for unweighted forms.
func (c *Container) Weighted() *csr.PackedWeighted { return c.pw }

// Delta returns the delta-gamma view, or nil for the other forms.
func (c *Container) Delta() *csr.DeltaPacked { return c.dp }

// Temporal returns the packed differential TCSR, or nil for the static
// forms.
func (c *Container) Temporal() *tcsr.Packed { return c.tp }

// Source returns the query-engine view of whichever static form is
// present, or nil for FormTemporal, which has no single static graph.
func (c *Container) Source() query.Source {
	switch {
	case c.dp != nil:
		return c.dp
	case c.tp != nil:
		return nil
	}
	return c.Packed()
}

// validateNeighbors is the O(numEdges) half of a verified load: every
// stored neighbor id must be below nodeSpace, or below the container's own
// node count when nodeSpace is 0. The delta payload is only CRC-checked.
func (c *Container) validateNeighbors(nodeSpace int) error {
	if pk := c.Packed(); pk != nil {
		if nodeSpace > 0 {
			return pk.ValidateColsBound(uint32(nodeSpace))
		}
		return pk.ValidateCols()
	}
	if c.tp != nil {
		for t := 0; t < c.tp.NumFrames(); t++ {
			if err := c.tp.Frame(t).ValidateCols(); err != nil {
				return fmt.Errorf("frame %d: %w", t, err)
			}
		}
	}
	return nil
}

// hostLittleEndian reports whether native word loads read little-endian
// bytes — the precondition for reinterpreting the mapping as []uint64.
func hostLittleEndian() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}

// wordsAt reinterprets the section payload at [off, off+nbytes) as a word
// slice without copying. The caller has bounds-checked the range and
// alignment; nbytes is a multiple of 8.
func wordsAt(data []byte, off, nbytes uint64) []uint64 {
	if nbytes == 0 {
		return nil
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&data[off])), nbytes/8)
}

// ParseOptions controls Parse's optional integrity work.
type ParseOptions struct {
	// VerifyCRC checks every section payload against its stored CRC-32C.
	// It reads the full file, so mapped loads of trusted files skip it.
	VerifyCRC bool
}

// Parse builds a Container over data, which must stay alive and unmodified
// for the Container's lifetime (it is the mapping Open produced, or any
// byte slice for tests and fuzzing). All header, table, and section bounds
// are validated before any view is constructed; the offsets array is
// additionally decoded and checked monotone, because row decoding trusts
// it. Neighbor values are not scanned — see Mapped for the trust model.
func Parse(data []byte, opts ParseOptions) (*Container, error) {
	if !hostLittleEndian() {
		return nil, ErrBigEndianHost
	}
	meta, err := parseMeta(data, uint64(len(data)))
	if err != nil {
		return nil, err
	}
	if len(data) > 0 && uintptr(unsafe.Pointer(&data[0]))%8 != 0 {
		// Section views need 8-byte-aligned words. Mappings are page
		// aligned; an arbitrary caller slice (fuzzing) may not be, so fall
		// back to one aligned copy.
		aligned := alignedBytes(len(data))
		copy(aligned, data)
		data = aligned
	}
	form := meta.Form()
	kinds := form.sectionKinds()
	if len(meta.Sections) != len(kinds) {
		return nil, fmt.Errorf("mgraph: %s container has %d sections, want %d", form, len(meta.Sections), len(kinds))
	}
	for i, k := range kinds {
		if meta.Sections[i].Kind != k {
			return nil, fmt.Errorf("mgraph: section %d is %s, want %s", i, KindName(meta.Sections[i].Kind), KindName(k))
		}
	}
	if opts.VerifyCRC {
		for i := range meta.Sections {
			s := &meta.Sections[i]
			if got := crc32.Checksum(data[s.Offset:s.Offset+s.Bytes()], crcTable); got != s.CRC {
				return nil, fmt.Errorf("mgraph: section %d (%s) CRC mismatch (got %08x, stored %08x)", i, KindName(s.Kind), got, s.CRC)
			}
		}
	}

	c := &Container{Meta: *meta, form: form}
	if form == FormTemporal {
		if c.tp, err = assembleTemporal(data, meta); err != nil {
			return nil, fmt.Errorf("mgraph: %w", err)
		}
		return c, nil
	}
	// Packed-element sections must agree with the header counts before the
	// int conversions below.
	offSec := &meta.Sections[0]
	if offSec.Width == 0 || offSec.Count != meta.NumNodes+1 {
		return nil, fmt.Errorf("mgraph: offsets section has %d entries at width %d, want %d packed entries", offSec.Count, offSec.Width, meta.NumNodes+1)
	}
	off, err := bitpack.View(int(offSec.Width), int(offSec.Count), wordsAt(data, offSec.Offset, offSec.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("mgraph: offsets section: %w", err)
	}

	switch form {
	case FormPacked, FormWeighted:
		colSec := &meta.Sections[1]
		if colSec.Width == 0 || colSec.Count != meta.NumEdges {
			return nil, fmt.Errorf("mgraph: neighbors section has %d entries at width %d, want %d packed entries", colSec.Count, colSec.Width, meta.NumEdges)
		}
		cols, err := bitpack.View(int(colSec.Width), int(colSec.Count), wordsAt(data, colSec.Offset, colSec.Bytes()))
		if err != nil {
			return nil, fmt.Errorf("mgraph: neighbors section: %w", err)
		}
		if form == FormPacked {
			c.pk, err = csr.AssemblePacked(off, cols)
			if err != nil {
				return nil, fmt.Errorf("mgraph: %w", err)
			}
			return c, nil
		}
		valSec := &meta.Sections[2]
		if valSec.Width == 0 || valSec.Count != meta.NumEdges {
			return nil, fmt.Errorf("mgraph: weights section has %d entries at width %d, want %d packed entries", valSec.Count, valSec.Width, meta.NumEdges)
		}
		vals, err := bitpack.View(int(valSec.Width), int(valSec.Count), wordsAt(data, valSec.Offset, valSec.Bytes()))
		if err != nil {
			return nil, fmt.Errorf("mgraph: weights section: %w", err)
		}
		c.pw, err = csr.AssemblePackedWeighted(off, cols, vals)
		if err != nil {
			return nil, fmt.Errorf("mgraph: %w", err)
		}
		return c, nil
	default: // FormDelta
		paySec := &meta.Sections[1]
		if paySec.Width != 0 {
			return nil, fmt.Errorf("mgraph: delta payload section has width %d, want raw bits", paySec.Width)
		}
		payload, err := bitarray.View(wordsAt(data, paySec.Offset, paySec.Bytes()), int(paySec.Count))
		if err != nil {
			return nil, fmt.Errorf("mgraph: delta payload section: %w", err)
		}
		c.dp, err = csr.AssembleDeltaPacked(off, payload, int(meta.NumNodes), int(meta.NumEdges))
		if err != nil {
			return nil, fmt.Errorf("mgraph: %w", err)
		}
		return c, nil
	}
}
