package tcsr

// Differential-pipeline instrumentation, in the same
// csrgraph_build_stage_seconds family the static CSR pipeline reports
// under: tcsr_diff is the Figure 5 snapshot-differencing pass
// (BuildFromSnapshots), tcsr_frames the per-frame build and pack from a sorted
// event list (BuildFromEvents). tcsr_diff_imbalance mirrors the fill
// imbalance gauge: slowest worker over mean worker wall time across the
// differencing team.

import "csrgraph/internal/obs"

var (
	stageDiff   = obs.GetDurationHistogram(`csrgraph_build_stage_seconds{stage="tcsr_diff"}`)
	stageFrames = obs.GetDurationHistogram(`csrgraph_build_stage_seconds{stage="tcsr_frames"}`)

	diffImbalance = obs.GetGauge("csrgraph_tcsr_diff_imbalance")
)
