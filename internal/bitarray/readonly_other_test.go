//go:build !linux && !darwin

package bitarray

import (
	"slices"
	"testing"
)

// readOnlyWords has no protected mapping to offer here; the heap copy still
// runs the View path.
func readOnlyWords(_ testing.TB, words []uint64) []uint64 { return slices.Clone(words) }
