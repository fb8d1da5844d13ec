//go:build !linux && !darwin

package mgraph

import "os"

// mapFile on platforms without the unix mmap path falls back to the
// aligned heap copy ReadFile uses.
func mapFile(f *os.File, size int64) ([]byte, bool, error) { return readAligned(f, size) }

// munmapBytes is a no-op for the heap fallback; the GC owns the copy.
func munmapBytes(data []byte) error { return nil }

// adviseKind mirrors the unix build; hints are meaningless without a
// mapping.
type adviseKind int

const (
	adviseWillNeed adviseKind = iota
	adviseRandom
)

// adviseRange is a no-op for the heap fallback.
func adviseRange(data []byte, off, n int, kind adviseKind) {}
