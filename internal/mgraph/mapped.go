package mgraph

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"unsafe"

	"csrgraph/internal/obs"
)

// Mapped is a container opened through the zero-copy load path: the graph
// arrays alias the file mapping (or, on platforms without mmap support, a
// single aligned heap copy). Queries on the contained graph are safe for
// concurrent use — the mapping is read-only and the views are immutable —
// but must not outlive Close.
//
// Trust model: Open always validates the header, section table, section
// bounds, and the row-offset invariants (everything row decoding needs to
// stay in-bounds), touching only the header and offsets pages. It does NOT
// checksum the payloads or scan neighbor values: a server reopening the
// container it built gets its near-zero startup, while corrupt neighbor
// bits would surface as wrong answers rather than panics in the search
// paths. For files from untrusted sources, opt into WithVerify, which adds
// the per-section CRC pass and the O(numEdges) neighbor-range scan — the
// checks ReadFile always runs.
type Mapped struct {
	*Container
	data   []byte
	mapped bool // true when data is an OS mapping that needs munmap
}

// openConfig collects Open options.
type openConfig struct {
	verify    bool
	nodeSpace int // >0: neighbor-range bound override (sharded containers)
}

// OpenOption customizes Open.
type OpenOption func(*openConfig)

// WithVerify makes Open checksum every section payload and scan neighbor
// values against the node space before returning. It faults in the whole
// file — integrity over startup latency.
func WithVerify() OpenOption {
	return func(c *openConfig) { c.verify = true }
}

// WithNodeSpace overrides the node space the verify pass scans neighbor
// values against. Shard containers store local rows with GLOBAL neighbor
// ids, so their valid bound is the whole graph's node count, not the
// container's own row count. No effect without WithVerify.
func WithNodeSpace(n int) OpenOption {
	return func(c *openConfig) { c.nodeSpace = n }
}

// Open maps the container at path and assembles zero-copy graph views over
// the mapping. With metrics enabled the load reports its wall time under
// csrgraph_mmap_load_seconds and the mapped byte count under
// csrgraph_mmap_load_bytes.
func Open(path string, opts ...OpenOption) (*Mapped, error) {
	var cfg openConfig
	for _, o := range opts {
		o(&cfg)
	}
	start := obs.Now()
	m, err := load(path, cfg, mapFile)
	if err != nil {
		return nil, err
	}
	m.advise()
	obs.Tick(mmapLoadSeconds, start)
	mmapLoadBytes.Set(float64(len(m.data)))
	return m, nil
}

// ReadFile reads the container at path into one aligned heap copy and
// assembles the graph views over it. Unlike Open it always runs the full
// verify — every section CRC and the neighbor-range scan — so whatever it
// returns is safe to query, traverse and index per-node state by neighbor
// id, whoever wrote the file. The copy is owned by the GC; there is nothing
// to close.
func ReadFile(path string) (*Container, error) {
	m, err := load(path, openConfig{verify: true}, readAligned)
	if err != nil {
		return nil, err
	}
	return m.Container, nil
}

// load reads or maps path through back, parses it and, when cfg.verify is
// set, checks the section CRCs and neighbor ids.
func load(path string, cfg openConfig, back func(*os.File, int64) ([]byte, bool, error)) (*Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //csr:errok read-only file; close cannot lose data
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < headerSize {
		// Short files still get the legacy-format hint when the magic fits.
		small := make([]byte, size)
		if _, err := f.ReadAt(small, 0); err == nil {
			if _, perr := parseMeta(small, uint64(size)); perr != nil {
				return nil, perr
			}
		}
		return nil, fmt.Errorf("mgraph: %s: %d bytes is too short for a container", path, size)
	}
	data, mapped, err := back(f, size)
	if err != nil {
		return nil, fmt.Errorf("mgraph: read %s: %w", path, err)
	}
	c, err := Parse(data, ParseOptions{VerifyCRC: cfg.verify})
	if err == nil && cfg.verify {
		if err = c.validateNeighbors(cfg.nodeSpace); err != nil {
			err = fmt.Errorf("mgraph: %w", err)
		}
	}
	if err != nil {
		unmapFile(data, mapped) //csr:errok error path; the parse or validation failure is the error to surface
		return nil, err
	}
	return &Mapped{Container: c, data: data, mapped: mapped}, nil
}

// alignedBytes returns n zeroed bytes backed by a []uint64, so the section
// word views over them are 8-byte aligned.
func alignedBytes(n int) []byte {
	words := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), n)
}

// readAligned reads size bytes of f into one aligned heap copy: ReadFile's
// backing, and Open's on platforms without the unix mmap path, where the
// container still loads and the views still work, just without shared
// pages or lazy faulting.
func readAligned(f *os.File, size int64) ([]byte, bool, error) {
	data := alignedBytes(int(size))
	if _, err := io.ReadFull(io.NewSectionReader(f, 0, size), data); err != nil {
		return nil, false, err
	}
	return data, false, nil
}

// advise passes access-pattern hints to the OS: the offsets section is
// touched by every query (prefetch it), while the neighbor/payload
// sections are probed at random by the zero-decode searches (don't
// read-ahead around them).
func (m *Mapped) advise() {
	if !m.mapped {
		return
	}
	for i := range m.Sections {
		s := &m.Sections[i]
		if s.Kind == KindOffsets || s.Kind == KindFrameTable || s.Kind == KindFrameOffsets {
			adviseRange(m.data, int(s.Offset), int(s.Bytes()), adviseWillNeed)
		} else {
			adviseRange(m.data, int(s.Offset), int(s.Bytes()), adviseRandom)
		}
	}
}

// SizeBytes returns the mapped (or copied) container size.
func (m *Mapped) SizeBytes() int64 { return int64(len(m.data)) }

// Close releases the mapping. The graph views become invalid: no query may
// run concurrently with or after Close.
func (m *Mapped) Close() error {
	if m.data == nil {
		return nil
	}
	data, mapped := m.data, m.mapped
	m.data, m.mapped = nil, false
	m.pk, m.pw, m.dp, m.tp = nil, nil, nil, nil
	return unmapFile(data, mapped)
}

// unmapFile releases data if it is a real mapping; heap copies are GC'd.
func unmapFile(data []byte, mapped bool) error {
	if !mapped || len(data) == 0 {
		return nil
	}
	return munmapBytes(data)
}

// ReadMetaFile reads the container header and section table from path with
// ordinary file reads — no mapping, no array loads — and, when verify is
// set, streams each section through its CRC. crcOK[i] reports section i's
// status and is nil when verify is false. This is csrstats' metadata path.
func ReadMetaFile(path string, verify bool) (meta *Meta, crcOK []bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close() //csr:errok read-only file; close cannot lose data
	st, err := f.Stat()
	if err != nil {
		return nil, nil, err
	}
	head := make([]byte, headerSize+maxSections*sectionEntrySize)
	if int64(len(head)) > st.Size() {
		head = head[:st.Size()]
	}
	if _, err := f.ReadAt(head, 0); err != nil {
		return nil, nil, fmt.Errorf("mgraph: %s: %w", path, err)
	}
	meta, err = parseMeta(head, uint64(st.Size()))
	if err != nil {
		return nil, nil, fmt.Errorf("mgraph: %s: %w", path, err)
	}
	if !verify {
		return meta, nil, nil
	}
	crcOK = make([]bool, len(meta.Sections))
	buf := make([]byte, writerChunk)
	for i := range meta.Sections {
		s := &meta.Sections[i]
		crc := uint32(0)
		remaining := int64(s.Bytes())
		at := int64(s.Offset)
		for remaining > 0 {
			chunk := buf
			if remaining < int64(len(chunk)) {
				chunk = chunk[:remaining]
			}
			if _, err := f.ReadAt(chunk, at); err != nil {
				return nil, nil, fmt.Errorf("mgraph: %s: section %d: %w", path, i, err)
			}
			crc = crc32.Update(crc, crcTable, chunk)
			at += int64(len(chunk))
			remaining -= int64(len(chunk))
		}
		crcOK[i] = crc == s.CRC
	}
	return meta, crcOK, nil
}
