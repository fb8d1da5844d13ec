//go:build race

package server

// raceEnabled: under the race detector sync.Pool drops a share of what is
// Put, so allocation ceilings on pooled paths do not hold.
const raceEnabled = true
