package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs the whole benchmark against real binaries at the smoke
// profile: all four workloads with their end-to-end metrics, then the
// traced run of one. Only correctness is asserted, never a time.
func TestSmoke(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("the benchmark reads CPU time and peak RSS from /proc")
	}
	// The test binary cannot start itself as csrload: the per-workload
	// processes become calls.
	defer func(old func([]string) error) { runChild = old }(runChild)
	runChild = run
	out := t.TempDir()
	if err := run([]string{"-profile", "smoke", "-seed", "1", "-out", out}); err != nil {
		t.Fatal(err)
	}
	saved := filepath.Join(out, "results.json")
	var file resultsFile
	if err := readJSON(saved, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != 4 {
		t.Fatalf("%d workloads in results.json, want 4", len(file.Workloads))
	}
	for _, w := range file.Workloads {
		if w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s: %d attempted, %d failed", w.Workload, w.Attempted, w.Failed)
		}
		for _, name := range emittedEndToEnd {
			if v := w.Metrics[name].Value; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v, want a positive number", w.Workload, name, v)
			}
		}
	}

	// -check: a run compared with itself breaches nothing; one metric worse
	// than its bound allows does, on a workload it is cited on and not on
	// another.
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, g, err := loadConfig(root)
	if err != nil {
		t.Fatal(err)
	}
	var base resultsFile
	if err := readJSON(saved, &base); err != nil {
		t.Fatal(err)
	}
	checker := &runner{bf: bf, grid: g}
	if err := checker.check(saved, &base, &file); err != nil {
		t.Errorf("a run checked against itself: %v", err)
	}
	double := func(workload int) {
		slow := file.Workloads[workload].Metrics["bfs_ms"]
		slow.Value *= 2
		file.Workloads[workload].Metrics["bfs_ms"] = slow
	}
	double(0)
	if err := checker.check(saved, &base, &file); err != nil {
		t.Errorf("a doubled bfs_ms on %s, where it is not cited: %v", file.Workloads[0].Workload, err)
	}
	double(3)
	if err := checker.check(saved, &base, &file); err == nil || !strings.Contains(err.Error(), "lib-pipeline/bfs_ms") {
		t.Errorf("a doubled bfs_ms: error %v, want a breach of lib-pipeline/bfs_ms", err)
	}
	// A run is never compared with the file it is about to write.
	if err := run([]string{"-profile", "smoke", "-out", out, "-check", saved}); err == nil || !strings.Contains(err.Error(), "another -out") {
		t.Errorf("-check on the run's own results.json: error %v, want a refusal", err)
	}

	if err := run([]string{"-profile", "smoke", "-seed", "1", "-out", out, "-workload", "http-mixed-uniform", "-trace", "1"}); err != nil {
		t.Fatal(err)
	}
	if err := readJSON(filepath.Join(out, "results.json"), &file); err != nil {
		t.Fatal(err)
	}
	w := file.Workloads[0]
	for _, name := range emittedPerLayer {
		if _, ok := w.Metrics[name]; !ok {
			t.Errorf("traced run did not report %s", name)
		}
	}
	if len(w.ServerReported) == 0 {
		t.Error("traced run stored nothing under server_reported")
	}
	// The ledger closes: its rows, unattributed included, sum to the server
	// CPU per request measured at the socket.
	if sum := sumLedger(w.Ledger); !(w.SocketCPUUS > 0) || math.Abs(sum-w.SocketCPUUS) > 1e-6*w.SocketCPUUS {
		t.Errorf("ledger rows sum to %v us, the socket measured %v us", sum, w.SocketCPUUS)
	}
	f, err := os.Open(filepath.Join(out, "spans-http-mixed-uniform.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	names := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span line %q: %v", sc.Text(), err)
		}
		if s.EndNS < s.StartNS {
			t.Errorf("span %+v ends before it starts", s)
		}
		names[s.Name]++
	}
	for _, name := range []string{"http", "server", "query", "csr", "shard.router", "shard.engine"} {
		if names[name] == 0 {
			t.Errorf("no %q span in the span file (have %v)", name, names)
		}
	}
}
