// Package obsfix exercises the obsnames analyzer: family grammar, counter
// _total suffixes, the label-block escape hatch for dynamic parts, and the
// out-of-loop / out-of-hotpath registration discipline.
package obsfix

import (
	"fmt"

	"csrgraph/internal/obs"
)

// Well-formed registrations: literal families, constant concatenation, and
// dynamic parts that start inside the label block.
var (
	hits  = obs.GetCounter("csrgraph_hits_total")
	depth = obs.GetGauge("csrgraph_queue_depth")
	lat   = obs.GetDurationHistogram(`csrgraph_request_seconds{path="/x"}`)
)

const prefix = "csrgraph_stage_"

var staged = obs.GetCounter(prefix + "merge_total")

// The tracing subsystem's series follow the same grammar: counters with a
// mode label, a plain drop counter, and the per-shard watermark gauge.
var (
	traceStarted  = obs.GetCounter(`csrgraph_trace_started_total{mode="sampled"}`)
	traceDrops    = obs.GetCounter("csrgraph_trace_ring_dropped_total")
	traceDepthMax = obs.GetGauge(`csrgraph_shard_queue_depth_max{shard="0"}`)
)

// The wire path's one series: a counter, so _total.
var respDropped = obs.GetCounter("csrgraph_http_resp_buffers_dropped_total")

func register(path string, r *obs.Registry) {
	obs.GetCounter("hits_total")             // want `name family "hits_total" must match`
	obs.GetCounter("csrgraph_Hits_total")    // want `must match`
	obs.GetCounter("csrgraph_cache_hits")    // want `counter family "csrgraph_cache_hits" must end in _total`
	obs.GetCounter("csrgraph_trace_dropped") // want `counter family "csrgraph_trace_dropped" must end in _total`
	r.WorkerCounter("csrgraph_chunks")       // want `counter family "csrgraph_chunks" must end in _total`
	obs.GetGauge(fmt.Sprintf("g_%s", path))  // want `must start with a literal csrgraph_-prefixed family`
	obs.GetGauge(path)                       // want `must start with a literal csrgraph_-prefixed family`

	// Dynamic content is fine once inside the label block.
	obs.GetDurationHistogram(`csrgraph_http_request_seconds{path="` + path + `"}`)
	obs.GetCounter(fmt.Sprintf(`csrgraph_http_responses_total{path=%q}`, path))

	for i := 0; i < 3; i++ {
		obs.GetCounter("csrgraph_loop_total") // want `metric registration inside a loop`
	}
}

//csr:hotpath
func hotLookup() {
	obs.GetCounter("csrgraph_probe_total").Inc() // want `metric registration in //csr:hotpath function hotLookup`
}
