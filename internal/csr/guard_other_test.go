//go:build !linux && !darwin

package csr

import (
	"slices"
	"testing"
)

// guardedWords has no guard page to offer here; the heap copy still runs
// the View path.
func guardedWords(_ testing.TB, words []uint64) []uint64 { return slices.Clone(words) }
