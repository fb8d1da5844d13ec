package shard

import (
	"fmt"

	"csrgraph/internal/obs"
)

// Package-level series for the serving tier. Per DESIGN.md §10 these are
// registered once at init (or once per shard at router build) and hot
// paths only touch the returned pointers.
var (
	// routedTotal counts items routed through the scatter-gather tier,
	// labeled by operation.
	routedNeighbors = obs.GetCounter(`csrgraph_shard_routed_total{op="neighbors"}`)
	routedDegrees   = obs.GetCounter(`csrgraph_shard_routed_total{op="degrees"}`)
	routedExists    = obs.GetCounter(`csrgraph_shard_routed_total{op="exists"}`)
	routedBFS       = obs.GetCounter(`csrgraph_shard_routed_total{op="bfs"}`)

	// fanoutLegs is the fan-out width distribution: legs per batch request.
	fanoutLegs = obs.GetHistogram("csrgraph_shard_fanout_legs")

	// mergeSeconds times the merge step — scattering one leg's results back
	// into the caller's slice at the original indices.
	mergeSeconds = obs.GetDurationHistogram("csrgraph_shard_merge_seconds")
)

// legSecondsHist registers (idempotently, via the registry) the per-shard
// leg latency series; its quantiles are the per-shard p99 the serving tier
// exports. Called once per shard at router construction — the registration
// call site lives here, outside any loop, and the router holds the pointer.
func legSecondsHist(s int) *obs.Histogram {
	return obs.GetDurationHistogram(fmt.Sprintf(`csrgraph_shard_leg_seconds{shard="%d"}`, s))
}

// queueDepthGauge registers the per-shard queue-depth gauge: legs admitted
// to the shard (waiting on the in-flight bound or executing).
func queueDepthGauge(s int) *obs.Gauge {
	return obs.GetGauge(fmt.Sprintf(`csrgraph_shard_queue_depth{shard="%d"}`, s))
}

// queueDepthMaxGauge registers the per-shard queue-depth high-watermark:
// the deepest the shard's admission queue has been since the router was
// built. The instantaneous gauge misses bursts shorter than a scrape
// interval; the watermark is what /healthz reports for "has this shard ever
// been the bottleneck".
func queueDepthMaxGauge(s int) *obs.Gauge {
	return obs.GetGauge(fmt.Sprintf(`csrgraph_shard_queue_depth_max{shard="%d"}`, s))
}
