package query

// Query-engine instrumentation, recorded once per batch (never per query)
// so the metrics-enabled hot path pays two clock reads and three histogram
// updates per batch — noise against thousands of row decodes. The dispatch
// counters split existence traffic between the zero-decode search path and
// the decode-and-binary-search fallback, the signal that a deployed source
// type is missing its Searcher fast path.

import "csrgraph/internal/obs"

var (
	neighborsBatchSize    = obs.GetHistogram(`csrgraph_query_batch_size{op="neighbors"}`)
	neighborsBatchSeconds = obs.GetDurationHistogram(`csrgraph_query_batch_seconds{op="neighbors"}`)
	existsBatchSize       = obs.GetHistogram(`csrgraph_query_batch_size{op="exists"}`)
	existsBatchSeconds    = obs.GetDurationHistogram(`csrgraph_query_batch_seconds{op="exists"}`)

	dispatchSearch = obs.GetCounter(`csrgraph_query_dispatch_total{path="search"}`)
	dispatchDecode = obs.GetCounter(`csrgraph_query_dispatch_total{path="decode"}`)
)
