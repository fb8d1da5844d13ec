package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// metricDecl is one metric as BENCHMARK.json declares it. Bound is the
// share of the baseline median an end-to-end metric may worsen by;
// per-layer metrics have none.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkFile mirrors BENCHMARK.json, the contract the driver reads.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

// profile is one size of the grid: how big the graphs are and how long
// each phase runs. "driver" fits the benchmark driver's time cap, "paper"
// is the issue's full size, "smoke" is what the tests run.
type profile struct {
	Scale        int     `json:"scale"`         // G: rmat node space 2^scale
	Edges        int     `json:"edges"`         // G: generated edges (before dedup)
	UniformNodes int     `json:"uniform_nodes"` // U
	UniformEdges int     `json:"uniform_edges"`
	PoolDiv      int     `json:"pool_div"`   // request pools are workload.pool / pool_div
	SetupReps    int     `json:"setup_reps"` // one before the loop, the others between its first windows
	WarmupS      float64 `json:"warmup_s"`
	Windows      int     `json:"windows"` // of the loop, each followed by one round of the library tail
	WindowS      float64 `json:"window_s"`
	DecodeS      float64 `json:"decode_s"` // library tail: NeighborsBatch time over all rounds
	OpenLoopS    float64 `json:"open_loop_s"`
	Replay       int     `json:"replay"` // requests replayed depth by depth in the ledger
	// csrserver -cache-mb, sized on the measured hit ratios (README, "Cache
	// size"): the sharded workloads' hot set must fit the row tables.
	CacheMB int `json:"cache_mb"`
}

// mixEntry is one request shape of a workload's traffic mix.
type mixEntry struct {
	Op    string `json:"op"`    // exists, degree, neighbors
	Share int    `json:"share"` // weight in the deterministic interleave
	Items int    `json:"items"` // probes or nodes per request
	Keys  string `json:"keys"`  // edge-endpoint, hub, uniform
}

// workloadSpec is one workload of bench/workloads.json.
type workloadSpec struct {
	Name     string     `json:"name"`
	Why      string     `json:"why"`
	Kind     string     `json:"kind"`  // http: over the socket; lib: in process
	Graph    string     `json:"graph"` // shards: -graph G.shards.json; mmap: -graph G.csrc -mmap
	Pool     int        `json:"pool"`
	Mix      []mixEntry `json:"mix"`
	OpenRate int        `json:"open_rate"` // req/s of the ungated open-loop step
}

// grid mirrors bench/workloads.json.
type grid struct {
	Shards    int                `json:"shards"`
	Profiles  map[string]profile `json:"profiles"`
	Workloads []workloadSpec     `json:"workloads"`
	// Cite names, for an end-to-end metric that every workload reports but
	// not every workload is about, the workloads a claim may cite it on;
	// -check judges it there only. A metric without an entry is cited on all.
	Cite map[string][]string `json:"cite"`
}

func (g *grid) workload(name string) *workloadSpec {
	for i := range g.Workloads {
		if g.Workloads[i].Name == name {
			return &g.Workloads[i]
		}
	}
	return nil
}

func (g *grid) cited(metric, workload string) bool {
	on, ok := g.Cite[metric]
	return !ok || slices.Contains(on, workload)
}

// The metric names this program emits. -validate holds them against
// BENCHMARK.json in both directions, and every run checks what it actually
// emitted against the same declaration.
var (
	emittedEndToEnd = []string{
		"setup_s", "throughput_qps", "cpu_us_per_query", "req_p50_ms", "req_p99_ms",
		"rss_peak_mb", "resp_mb_per_s", "build_edges_per_s", "bytes_per_edge",
		"decode_mnbr_per_s", "bfs_ms", "kcore_powerlaw_ms", "kcore_uniform_ms",
	}
	emittedPerLayer = []string{
		"http.self_us_per_req", "http.resp_bytes_per_query",
		"http.open_p50_ms", "http.open_p99_ms", "http.open_late_share", "http.cache_hit_ratio",
		"server.total_us_per_req", "server.self_us_per_req", "server.self_share",
		"server.allocs_per_query", "server.alloc_bytes_per_query",
		"shard.router_us_per_req", "shard.router_self_us_per_req", "shard.engine_ns_per_query",
		"shard.rowtable_hit_ratio", "shard.rowtable_bytes", "shard.legs_per_req", "shard.leg_imbalance",
		"shard.bfs_ms", "shard.open_shards_ms",
		"query.exists_ns_per_query", "query.self_ns_per_query", "query.neighbors_ns_per_nbr", "query.par_speedup",
		"csr.search_ns_per_probe", "csr.row_ns_per_nbr", "csr.degree_ns", "csr.build_ms", "csr.pack_ms",
		"bitpack.get_ns", "bitpack.lowerbound_ns", "bitpack.pack_ns_per_val",
		"bitarray.unpack_ns_per_val", "bitarray.unpack_gb_per_s",
		"parallel.for_overhead_us", "parallel.dynamic_grab_ns",
		"edgelist.prepare_ms", "radix.sort_ns_per_key", "degree.ns_per_edge", "prefixsum.ns_per_elem",
		"mgraph.write_mb_per_s", "mgraph.open_ms", "mgraph.open_verify_ms",
		"frontier.bfs_rounds", "frontier.bfs_sparse_rounds", "frontier.bfs_ns_per_edge",
		"algo.kcore_ns_per_edge_powerlaw", "algo.kcore_ns_per_edge_uniform",
		"trace.overhead_pct", "bench.span_overhead_pct", "ledger.unattributed_us_per_req",
	}
)

// findRoot walks up from the working directory to the checkout root, the
// directory holding BENCHMARK.json and go.mod.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if fileExists(filepath.Join(dir, "BENCHMARK.json")) && fileExists(filepath.Join(dir, "go.mod")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json beside a go.mod at or above the working directory")
		}
		dir = parent
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

func readJSON(path string, into any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// loadConfig reads BENCHMARK.json and bench/workloads.json from root and
// checks them against each other and against the emitted metric names.
func loadConfig(root string) (*benchmarkFile, *grid, error) {
	var bf benchmarkFile
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &bf); err != nil {
		return nil, nil, err
	}
	var g grid
	if err := readJSON(filepath.Join(root, "bench", "workloads.json"), &g); err != nil {
		return nil, nil, err
	}
	if err := validateConfig(&bf, &g); err != nil {
		return nil, nil, err
	}
	return &bf, &g, nil
}

// validateConfig is the -validate mode: every workload and metric must be
// both declared (BENCHMARK.json) and emitted (workloads.json, this
// program), with no extras on either side.
func validateConfig(bf *benchmarkFile, g *grid) error {
	var problems []string
	bad := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }

	declared := make(map[string]string)
	for _, w := range bf.Workloads {
		declared[w.Name] = w.Why
	}
	seen := make(map[string]bool)
	for _, w := range g.Workloads {
		seen[w.Name] = true
		why, ok := declared[w.Name]
		switch {
		case !ok:
			bad("workload %q is in workloads.json but not declared in BENCHMARK.json", w.Name)
		case why != w.Why:
			bad("workload %q: the two files give a different why", w.Name)
		}
		if w.Kind != "http" && w.Kind != "lib" {
			bad("workload %q: kind %q is neither http nor lib", w.Name, w.Kind)
		}
		if w.Graph != "shards" && w.Graph != "mmap" {
			bad("workload %q: graph %q is neither shards nor mmap", w.Name, w.Graph)
		}
		if w.Pool < 1 || len(w.Mix) == 0 || w.OpenRate < 1 {
			bad("workload %q: needs a pool size, a mix and an open-loop rate", w.Name)
		}
		for _, m := range w.Mix {
			if m.Share < 1 || m.Items < 1 {
				bad("workload %q: mix entry %q needs a positive share and item count", w.Name, m.Op)
			}
			if m.Op != "exists" && m.Op != "degree" && m.Op != "neighbors" {
				bad("workload %q: unknown op %q", w.Name, m.Op)
			}
			if m.Keys != "edge-endpoint" && m.Keys != "hub" && m.Keys != "uniform" {
				bad("workload %q: unknown key distribution %q", w.Name, m.Keys)
			}
			if w.Kind == "lib" && m.Op != "exists" {
				bad("workload %q: the in-process loop times EdgesExistBatch only, not %q", w.Name, m.Op)
			}
		}
	}
	for name := range declared {
		if !seen[name] {
			bad("workload %q is declared in BENCHMARK.json but missing from workloads.json", name)
		}
	}
	diffNames := func(kind string, decls []metricDecl, emitted []string) {
		want := make(map[string]bool)
		for _, d := range decls {
			want[d.Name] = true
			if d.Better != "higher" && d.Better != "lower" {
				bad("%s metric %q: better is %q", kind, d.Name, d.Better)
			}
		}
		for _, name := range emitted {
			if !want[name] {
				bad("%s metric %q is emitted but not declared", kind, name)
			}
			delete(want, name)
		}
		for name := range want {
			bad("%s metric %q is declared but not emitted", kind, name)
		}
	}
	diffNames("end-to-end", bf.EndToEnd, emittedEndToEnd)
	diffNames("per-layer", bf.PerLayer, emittedPerLayer)
	if g.Shards < 1 {
		bad("workloads.json: shards must be positive")
	}
	endToEnd := make(map[string]bool)
	for _, d := range bf.EndToEnd {
		endToEnd[d.Name] = true
	}
	for metric, on := range g.Cite {
		if !endToEnd[metric] {
			bad("cite: %q is not an end-to-end metric of BENCHMARK.json", metric)
		}
		for _, name := range on {
			if !seen[name] {
				bad("cite: %q names workload %q, which workloads.json does not have", metric, name)
			}
		}
	}
	for name, p := range g.Profiles {
		if p.Scale < 1 || p.Edges < 1 || p.UniformNodes < 1 || p.UniformEdges < 1 || p.PoolDiv < 1 ||
			p.SetupReps < 1 || p.Windows < 1 || p.WindowS <= 0 || p.DecodeS <= 0 ||
			p.OpenLoopS <= 0 || p.Replay < 1 || p.CacheMB < 1 {
			bad("profile %q has a zero or negative size", name)
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("benchmark files disagree:\n  %s", strings.Join(problems, "\n  "))
	}
	return nil
}
