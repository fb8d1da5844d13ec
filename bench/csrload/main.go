// Command csrload is the repository's benchmark: it builds graphgen,
// csrconvert and csrserver from ./cmd, generates its inputs from a seed,
// checks every answer against its own oracle, and measures four workloads
// from the socket down to the bit-unpack kernels. bench/README.md describes
// the workloads and every metric.
//
// It is a module of its own (bench/go.mod), run from the checkout root:
//
//	go run -C bench ./csrload -seed 1 -out <dir>            all workloads, end-to-end metrics
//	go run -C bench ./csrload -seed 1 -out <dir> -trace 1   the per-layer ledger and spans
//	go run -C bench ./csrload -check <saved>/results.json   rerun and compare against the bounds
//	go run -C bench ./csrload -validate                     check the declarations, run nothing
//
// The benchmark driver runs one workload at a time and reads the last line
// of standard output:
//
//	go run -C bench ./csrload --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Every workload runs in a process of its own, so that peak memory and the
// state of the heap mean the same whoever starts it: without -workload the
// program starts itself once per workload.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"csrgraph"
)

// metricValue is one reported metric: the median of its samples (one per
// window, round or repetition), which results.json keeps beside it.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples"`
}

// result is one workload's run.
type result struct {
	Workload       string                 `json:"workload"`
	Metrics        map[string]metricValue `json:"metrics"`
	Attempted      int64                  `json:"attempted"`
	Failed         int64                  `json:"failed"`
	PoolHash       string                 `json:"pool_hash"`
	SocketCPUUS    float64                `json:"socket_cpu_us_per_req,omitempty"` // what the ledger rows sum to
	Ledger         []ledgerRow            `json:"ledger,omitempty"`
	ServerReported map[string]any         `json:"server_reported,omitempty"`
}

// resultsFile is <out>/results.json.
type resultsFile struct {
	Seed      uint64   `json:"seed"`
	Profile   string   `json:"profile"`
	Traced    bool     `json:"traced"`
	Procs     int      `json:"procs"`
	Conns     int      `json:"conns"`
	Workloads []result `json:"workloads"`
}

// runner carries what every workload run shares.
type runner struct {
	root     string
	bf       *benchmarkFile
	grid     *grid
	prof     profile
	profName string
	seed     uint64
	procs    int // -procs of every program, and of the in-process calls
	conns    int // closed-loop connections
	traced   bool
	outDir   string
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "csrload:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("csrload", flag.ContinueOnError)
	workload := fs.String("workload", "", "run this workload only, in this process, and end with the driver's one-line JSON result")
	seed := fs.Uint64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 0, "length of the measured phase, split over the profile's windows (0 keeps the profile's)")
	trace := fs.Int("trace", 0, "1 does the traced run: per-layer metrics, ledger, spans-<workload>.jsonl")
	profName := fs.String("profile", "driver", "size of the grid in bench/workloads.json: driver, paper or smoke")
	out := fs.String("out", "", "directory for results.json and span files (default .bench_build/out in the checkout)")
	check := fs.String("check", "", "compare the run with this saved results.json against the bounds of BENCHMARK.json")
	validate := fs.Bool("validate", false, "check BENCHMARK.json and bench/workloads.json against what this program emits, then exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	// go run -C bench starts the program in bench/; relative paths, the
	// user's and the program's own, are taken from the checkout root.
	root, err := findRoot()
	if err != nil {
		return err
	}
	if err := os.Chdir(root); err != nil {
		return err
	}
	bf, g, err := loadConfig(root)
	if err != nil {
		return err
	}
	if *validate {
		fmt.Printf("ok: %d workloads, %d end-to-end and %d per-layer metrics declared and emitted\n",
			len(bf.Workloads), len(bf.EndToEnd), len(bf.PerLayer))
		return nil
	}
	prof, ok := g.Profiles[*profName]
	if !ok {
		return fmt.Errorf("no profile %q in bench/workloads.json", *profName)
	}
	if *seconds > 0 {
		prof.WindowS = *seconds / float64(prof.Windows)
	}
	r := &runner{
		root: root, bf: bf, grid: g, prof: prof, profName: *profName, seed: *seed,
		procs: runtime.NumCPU(), conns: min(runtime.NumCPU(), 4),
		traced: *trace == 1, outDir: *out,
	}
	if r.outDir == "" {
		r.outDir = filepath.Join(root, ".bench_build", "out")
	}
	resultsPath := filepath.Join(r.outDir, "results.json")
	// The saved run is read before anything is written: this run's own
	// results.json must never be what it is compared with.
	var saved *resultsFile
	if *check != "" {
		if samePath(*check, resultsPath) {
			return fmt.Errorf("-check %s is where this run writes its own results; choose another -out", *check)
		}
		saved = new(resultsFile)
		if err := readJSON(*check, saved); err != nil {
			return err
		}
	}
	if err := os.MkdirAll(r.outDir, 0o755); err != nil {
		return err
	}

	file := &resultsFile{Seed: r.seed, Profile: r.profName, Traced: r.traced, Procs: r.procs, Conns: r.conns}
	if *workload == "" {
		// One process per workload; each leaves its result in results.json.
		for i := range g.Workloads {
			name := g.Workloads[i].Name
			err := runChild([]string{"-workload", name, "-seed", fmt.Sprint(r.seed), "-seconds", fmt.Sprint(*seconds),
				"-trace", fmt.Sprint(*trace), "-profile", r.profName, "-out", r.outDir})
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			var one resultsFile
			if err := readJSON(resultsPath, &one); err != nil {
				return err
			}
			file.Workloads = append(file.Workloads, one.Workloads...)
		}
	} else {
		spec := g.workload(*workload)
		if spec == nil {
			return fmt.Errorf("no workload %q in bench/workloads.json", *workload)
		}
		res, err := r.runWorkload(spec)
		if err != nil {
			return fmt.Errorf("%s: %w", spec.Name, err)
		}
		file.Workloads = []result{*res}
		r.print(res)
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(resultsPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if saved != nil {
		if err := r.check(*check, saved, file); err != nil {
			return err
		}
	}
	if *workload != "" {
		return r.driverLine(&file.Workloads[0])
	}
	return nil
}

// samePath reports whether two paths name one file once made absolute.
func samePath(a, b string) bool {
	absA, errA := filepath.Abs(a)
	absB, errB := filepath.Abs(b)
	return errA == nil && errB == nil && absA == absB
}

// runChild runs one workload in a process of its own, this program again,
// and waits for it. The tests, whose program is the test binary, replace it.
var runChild = func(args []string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.Command(self, args...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	return cmd.Run()
}

// decls returns the metrics this run must emit.
func (r *runner) decls() []metricDecl {
	if r.traced {
		return r.bf.PerLayer
	}
	return r.bf.EndToEnd
}

// finish turns samples into the result's metrics, refusing a run that
// measured anything undeclared or missed anything declared.
func (r *runner) finish(res *result, raw map[string][]float64) error {
	res.Metrics = make(map[string]metricValue)
	for _, d := range r.decls() {
		samples, ok := raw[d.Name]
		if !ok {
			return fmt.Errorf("metric %q is declared in BENCHMARK.json but this run did not measure it", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: median(samples), Unit: d.Unit, Samples: samples}
		delete(raw, d.Name)
	}
	for name := range raw {
		return fmt.Errorf("metric %q was measured but is not declared in BENCHMARK.json", name)
	}
	return nil
}

// target is what a set-up leaves behind: a server to send to, or for the
// in-process workload a compressed graph to call.
type target struct {
	srv *serverProc
	cg  *csrgraph.CompressedGraph
}

// setUp goes from no inputs to a program that can answer, in the directory
// of in, and returns how long that took: graphgen, then csrconvert and
// csrserver until /healthz is 200, or in process reading the edge file and
// Build + Compress. The oracle, the pools and the gate are the benchmark's
// own work and are not part of it.
func (r *runner) setUp(in *inputs, spec *workloadSpec, socket bool) (target, float64, error) {
	var t target
	t0 := time.Now()
	err := in.generate(r.prof, r.seed)
	switch {
	case err != nil:
	case !socket:
		t.cg, err = loadAndCompress(in.edgeFile, r.procs)
	default:
		if err = in.convert(spec.Graph, r.grid.Shards, r.procs); err == nil {
			t.srv, err = startServer(in, spec.Graph, r.procs, r.prof.CacheMB)
		}
	}
	return t, time.Since(t0).Seconds(), err
}

// runWorkload is one workload from nothing: tools, inputs, set-up, gate,
// and then either the measured loop with the library tail and the further
// set-ups between its windows, or the traced ledger.
func (r *runner) runWorkload(spec *workloadSpec) (*result, error) {
	p := r.prof
	// Scratch inside the checkout, removed at exit: the programs under test
	// and everything a set-up writes.
	build := filepath.Join(r.root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(build, spec.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	bin, err := buildTools(r.root, dir)
	if err != nil {
		return nil, err
	}
	in := &inputs{bin: bin, dir: dir}

	// The traced run needs a socket whatever the workload; the in-process
	// one borrows the plain mmap server for it.
	socket := spec.Kind == "http" || r.traced
	tgt, seconds, err := r.setUp(in, spec, socket)
	if err != nil {
		return nil, err
	}
	setups := []float64{seconds}
	measuredPid := "self"
	if socket {
		defer tgt.srv.stop()
		measuredPid = tgt.srv.pid()
	}

	edges, err := readEdgeFile(in.edgeFile)
	if err != nil {
		return nil, err
	}
	o := newOracle(edges, 0)
	pool := makePool(spec, max(spec.Pool/p.PoolDiv, r.conns), edges, o, r.seed)
	res := &result{Workload: spec.Name, PoolHash: fmt.Sprintf("%016x", poolHash(pool))}
	raw := make(map[string][]float64)

	if r.traced {
		if err := r.tracedRun(spec, in, tgt.srv, pool, edges, o, res, raw); err != nil {
			return nil, err
		}
		return res, r.finish(res, raw)
	}

	var loop loopFunc
	if socket {
		if err := gate(tgt.srv.base, pool, o, r.conns); err != nil {
			return nil, fmt.Errorf("correctness gate: %w", err)
		}
		c := newClient(r.conns)
		defer c.CloseIdleConnections()
		loop = closedLoop(c, tgt.srv.base, pool, r.conns, time.Now())
	} else {
		if err := gateLib(tgt.cg, pool, o, r.procs); err != nil {
			return nil, fmt.Errorf("correctness gate: %w", err)
		}
		loop = existsLoop(tgt.cg, pool, o, r.procs, time.Now())
	}
	tail, err := newLibTail(p, edges, o, r.seed, r.procs)
	if err != nil {
		return nil, fmt.Errorf("library tail: %w", err)
	}
	// Between the windows, with the loop at rest: one round of the tail, and
	// while set-ups are still owed, one more of those, in a directory of its
	// own and torn down at once.
	again := &inputs{bin: bin, dir: filepath.Join(dir, "again")}
	if err := os.Mkdir(again.dir, 0o755); err != nil {
		return nil, err
	}
	between := func(window int) error {
		if err := tail.round(window); err != nil {
			return fmt.Errorf("library tail: %w", err)
		}
		if len(setups) < p.SetupReps {
			t, seconds, err := r.setUp(again, spec, socket)
			if err != nil {
				return err
			}
			if t.srv != nil {
				t.srv.stop()
			}
			setups = append(setups, seconds)
		}
		return nil
	}
	m, err := measureLoop(p, measuredPid, loop, between)
	if err != nil {
		return nil, err
	}
	if m.firstErr != nil {
		fmt.Fprintf(os.Stderr, "csrload: %s: first failed operation: %v\n", spec.Name, m.firstErr)
	}
	res.Attempted = int64(len(pool)) + m.attempted + tail.attempted
	res.Failed = m.failed
	raw["setup_s"] = setups
	loopMetrics(m.windows, raw)
	for name, samples := range tail.raw {
		raw[name] = samples
	}
	rss, err := procPeakRSSMB(measuredPid)
	if err != nil {
		return nil, err
	}
	raw["rss_peak_mb"] = []float64{rss}
	return res, r.finish(res, raw)
}

// loadAndCompress is the in-process set-up: read the edge file, build the
// CSR, bit-pack it.
func loadAndCompress(edgeFile string, procs int) (*csrgraph.CompressedGraph, error) {
	edges, err := readEdgeFile(edgeFile)
	if err != nil {
		return nil, err
	}
	g, err := csrgraph.Build(edges, csrgraph.WithProcs(procs))
	if err != nil {
		return nil, err
	}
	return g.Compress(), nil
}

// loopMetrics turns the windows of a closed loop into the samples of the
// end-to-end metrics every loop yields, one sample per window.
func loopMetrics(ws []window, raw map[string][]float64) {
	for name, f := range map[string]func(w *window) float64{
		"throughput_qps":   func(w *window) float64 { return float64(w.items) / w.seconds },
		"cpu_us_per_query": func(w *window) float64 { return w.cpuUS / float64(w.items) },
		"req_p50_ms":       func(w *window) float64 { return percentile(w.latMS, 0.50) },
		"req_p99_ms":       func(w *window) float64 { return percentile(w.latMS, 0.99) },
		"resp_mb_per_s":    func(w *window) float64 { return float64(w.bytes) / 1e6 / w.seconds },
	} {
		raw[name] = perWindow(ws, f)
	}
}

// tracedRun is the separate run behind the per-layer metrics: the socket
// with tracing off and on, one open-loop step, the server's own reports,
// and the in-process ledger.
func (r *runner) tracedRun(spec *workloadSpec, in *inputs, srv *serverProc,
	pool []request, edges []csrgraph.Edge, o *oracle, res *result, raw map[string][]float64) error {
	p := r.prof
	if err := gate(srv.base, pool, o, r.conns); err != nil {
		return fmt.Errorf("correctness gate: %w", err)
	}
	loop := func(s *serverProc) (measured, error) {
		c := newClient(r.conns)
		defer c.CloseIdleConnections()
		return measureLoop(p, s.pid(), closedLoop(c, s.base, pool, r.conns, time.Now()), nil)
	}
	plain, err := loop(srv)
	if err != nil {
		return err
	}
	res.Attempted = int64(len(pool)) + plain.attempted
	res.Failed = plain.failed
	cpuPerReq := median(perWindow(plain.windows, func(w *window) float64 { return w.cpuUS / float64(w.ops) }))
	// Exact for a seed: the verified body lengths of the whole pool.
	var bodyBytes, items int
	for i := range pool {
		bodyBytes += pool[i].wantLen
		items += pool[i].items()
	}
	raw["http.resp_bytes_per_query"] = []float64{float64(bodyBytes) / float64(items)}

	lat, late, open := openLoop(srv.base, pool, spec.OpenRate, p.OpenLoopS)
	res.Attempted += open.attempted
	res.Failed += open.failed
	raw["http.open_p50_ms"] = []float64{percentile(lat, 0.50)}
	raw["http.open_p99_ms"] = []float64{percentile(lat, 0.99)}
	raw["http.open_late_share"] = []float64{late}
	srv.stop()

	// The same loop against a server that traces every request.
	tsrv, err := startServer(in, spec.Graph, r.procs, p.CacheMB, "-metrics", "-trace-sample", "always")
	if err != nil {
		return err
	}
	tracing, err := loop(tsrv)
	if err == nil {
		res.ServerReported = scrape(tsrv.base)
	}
	tsrv.stop()
	if err != nil {
		return err
	}
	// The one server-reported number that is also interpreted: the property
	// the workloads are told apart by, as the server itself counted it over
	// this loop from a cold cache.
	raw["http.cache_hit_ratio"] = []float64{cacheHitRatio(res.ServerReported["/stats"])}
	res.Attempted += tracing.attempted
	res.Failed += tracing.failed
	qps := func(m measured) float64 {
		return median(perWindow(m.windows, func(w *window) float64 { return float64(w.items) / w.seconds }))
	}
	raw["trace.overhead_pct"] = []float64{100 * (qps(plain) - qps(tracing)) / qps(plain)}

	// Both stored forms, whichever one the workload served from.
	li := &layerInputs{
		prof: p, procs: r.procs, ownGraph: spec.Graph, dir: in.dir,
		replay: pool[:min(p.Replay, len(pool))], edges: edges, seed: r.seed, socketCPUUS: cpuPerReq,
	}
	for _, graph := range []string{"shards", "mmap"} {
		if err := in.convert(graph, r.grid.Shards, r.procs); err != nil {
			return err
		}
		if graph == "shards" {
			li.manifestFile = in.graphFile
		} else {
			li.csrcFile = in.graphFile
		}
	}
	log := &spanLog{origin: time.Now(), on: true}
	layer, ledger, err := measureLayers(li, log)
	if err != nil {
		return err
	}
	// The client's view of the same requests, from the untraced socket run.
	seen := make(map[int32]bool)
	for _, s := range plain.samples {
		if int(s.req) < len(li.replay) && !seen[s.req] {
			seen[s.req] = true
			log.spans = append(log.spans, span{"http", int(s.req), "", s.doneNS - s.latNS, s.doneNS, int(s.items)})
		}
	}
	if err := log.write(filepath.Join(r.outDir, "spans-"+spec.Name+".jsonl")); err != nil {
		return err
	}
	for name, v := range layer {
		raw[name] = []float64{v}
	}
	res.SocketCPUUS, res.Ledger = cpuPerReq, ledger
	return nil
}

// print lists every metric of a result by name, with unit, sample count
// and bound.
func (r *runner) print(res *result) {
	w := os.Stdout
	fmt.Fprintf(w, "\n%s  (seed %d, profile %s, pool %s, %d attempted, %d failed)\n",
		res.Workload, r.seed, r.profName, res.PoolHash, res.Attempted, res.Failed)
	for _, d := range r.decls() {
		mv := res.Metrics[d.Name]
		line := fmt.Sprintf("  %-34s %16.6g %-6s", d.Name, mv.Value, mv.Unit)
		if len(mv.Samples) > 1 {
			line += fmt.Sprintf("  n=%d", len(mv.Samples))
		}
		if d.Bound > 0 {
			line += fmt.Sprintf("  bound %.1f%% (%s is better)", 100*d.Bound, d.Better)
		}
		if !r.grid.cited(d.Name, res.Workload) {
			line += "  cite it on " + strings.Join(r.grid.Cite[d.Name], ", ")
		}
		fmt.Fprintln(w, line)
	}
	if !r.traced {
		fmt.Fprintf(w, "  %-34s %16.6g %-6s  bound 0 absolute\n", "error_share",
			float64(res.Failed)/float64(max(res.Attempted, 1)), "share")
		return
	}
	fmt.Fprintf(w, "  ledger, server CPU us per request (%.3f measured at the socket):\n", res.SocketCPUUS)
	for _, row := range res.Ledger {
		fmt.Fprintf(w, "    %-20s %12.3f\n", row.Layer, row.USPerReq)
	}
}

func sumLedger(rows []ledgerRow) float64 {
	total := 0.0
	for _, row := range rows {
		total += row.USPerReq
	}
	return total
}

// driverLine prints the one JSON object the benchmark driver reads.
func (r *runner) driverLine(res *result) error {
	type dm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]dm `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]dm{}}
	for name, mv := range res.Metrics {
		out.Metrics[name] = dm{mv.Value, mv.Unit}
	}
	data, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(data))
	return err
}

// check compares this run with a saved one, metric by metric, against the
// bounds of BENCHMARK.json, and fails on any breach. A metric is gated on
// the workloads workloads.json cites it on; elsewhere the difference is
// shown and not judged.
func (r *runner) check(path string, saved, cur *resultsFile) error {
	if saved.Profile != cur.Profile || saved.Traced != cur.Traced {
		return fmt.Errorf("%s was run with profile %q, traced %v; this run is %q, %v",
			path, saved.Profile, saved.Traced, cur.Profile, cur.Traced)
	}
	base := make(map[string]map[string]metricValue)
	for _, w := range saved.Workloads {
		base[w.Workload] = w.Metrics
	}
	fmt.Printf("\n%-22s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "saved", "now", "worse by", "bound", "verdict")
	var breaches []string
	for _, w := range cur.Workloads {
		if w.Failed > 0 {
			breaches = append(breaches, fmt.Sprintf("%s: %d failed operations", w.Workload, w.Failed))
		}
		for _, d := range r.decls() {
			was, ok := base[w.Workload][d.Name]
			if !ok || was.Value == 0 {
				continue
			}
			// Positive means worse, whichever direction is better.
			worse := (w.Metrics[d.Name].Value - was.Value) / was.Value
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case d.Bound == 0:
				verdict = "no bound"
			case !r.grid.cited(d.Name, w.Workload):
				verdict = "not gated here"
			case worse > d.Bound:
				verdict = "BREACH"
				breaches = append(breaches, w.Workload+"/"+d.Name)
			}
			fmt.Printf("%-22s %-20s %14.6g %14.6g %+8.1f%% %6.1f%%  %s\n",
				w.Workload, d.Name, was.Value, w.Metrics[d.Name].Value, 100*worse, 100*d.Bound, verdict)
		}
	}
	if len(breaches) > 0 {
		sort.Strings(breaches)
		return fmt.Errorf("worse than %s beyond the bound: %s", path, strings.Join(breaches, ", "))
	}
	return nil
}
