// Package atomicfix exercises the atomicfield analyzer: once a field or
// package-level variable is touched through sync/atomic's function API,
// every plain access to it in the package is a finding; slice elements
// (atomic merge, plain reads after the barrier) are exempt.
package atomicfix

import "sync/atomic"

type stats struct {
	hits int64
	cold int64
}

func (s *stats) inc() {
	atomic.AddInt64(&s.hits, 1)
}

func (s *stats) read() int64 {
	return s.hits // want `plain access of field hits`
}

func (s *stats) write(v int64) {
	s.hits = v // want `plain access of field hits`
}

func (s *stats) atomicReadOK() int64 {
	return atomic.LoadInt64(&s.hits)
}

// cold is never accessed atomically, so plain access is fine.
func (s *stats) coldRead() int64 {
	return s.cold
}

var inFlight int64

func enter() {
	atomic.AddInt64(&inFlight, 1)
}

func snapshot() int64 {
	return inFlight // want `plain access of variable inFlight`
}

// sliceElemOK: atomic ops on slice elements don't taint post-barrier plain
// reads of the same elements — the atomic-merge pattern.
func sliceElemOK(words []int64) int64 {
	atomic.AddInt64(&words[0], 1)
	return words[0]
}
