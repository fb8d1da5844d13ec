package frontier

import "csrgraph/internal/obs"

// Per-round frontier instrumentation (DESIGN.md §10 discipline: series
// registered once at package init, hot paths hold the pointers). Round wall
// times are split by representation so a misbehaving switching policy shows
// up as dense-round time on small frontiers; the switch counters make
// direction flapping visible.
var (
	roundSparseSeconds = obs.GetDurationHistogram(`csrgraph_frontier_round_seconds{mode="sparse"}`)
	roundDenseSeconds  = obs.GetDurationHistogram(`csrgraph_frontier_round_seconds{mode="dense"}`)
	switchToDense      = obs.GetCounter(`csrgraph_frontier_switch_total{to="dense"}`)
	switchToSparse     = obs.GetCounter(`csrgraph_frontier_switch_total{to="sparse"}`)
)
