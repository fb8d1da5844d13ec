package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"csrgraph/internal/harness"
)

// TestParseProcs: -procs goes through harness.ParseProcs, white space and
// all, and without it the sweep is the host's.
func TestParseProcs(t *testing.T) {
	for procs, rows := range map[string]int{
		" 1, 2": 2,
		"":      len(harness.Sweep(runtime.GOMAXPROCS(0))),
	} {
		csv := filepath.Join(t.TempDir(), "out.csv")
		args := []string{"-experiment", "table2", "-scale", "512", "-reps", "1", "-graph", "WebNotreDame", "-csv", csv}
		if procs != "" {
			args = append(args, "-procs", procs)
		}
		if err := run(args); err != nil {
			t.Fatalf("-procs %q: %v", procs, err)
		}
		data, err := os.ReadFile(csv)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Count(string(data), "\n") - 1; got != rows {
			t.Fatalf("-procs %q: %d rows, want %d:\n%s", procs, got, rows, data)
		}
	}
	for _, bad := range []string{"0", "x", "4,-1"} {
		if err := run([]string{"-procs", bad, "-scale", "512"}); err == nil {
			t.Errorf("-procs %q: want error", bad)
		}
	}
}

func TestRunSmallSweep(t *testing.T) {
	csv := filepath.Join(t.TempDir(), "out.csv")
	err := run([]string{
		"-experiment", "all", "-scale", "512", "-reps", "1",
		"-procs", "1,2", "-graph", "WebNotreDame", "-csv", csv,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 3 { // header + 2 proc rows
		t.Fatalf("csv lines = %d:\n%s", len(lines), data)
	}
	if !strings.HasPrefix(lines[1], "WebNotreDame,512,") {
		t.Fatalf("csv row: %s", lines[1])
	}
}

func TestRunScalingExperiment(t *testing.T) {
	err := run([]string{"-experiment", "scaling", "-scale", "512", "-reps", "1", "-graph", "WebNotreDame"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunQueriesExperiment(t *testing.T) {
	err := run([]string{"-experiment", "queries", "-scale", "512", "-reps", "1", "-graph", "WebNotreDame"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"bad experiment": {"-experiment", "nope", "-scale", "512", "-graph", "WebNotreDame", "-reps", "1"},
		"unknown -mode":  {"-mode", "psychic", "-scale", "512"},
		"bad graph":      {"-graph", "Friendster", "-scale", "512"},
		"bad procs":      {"-procs", "zero", "-scale", "512"},
		"bad scale":      {"-scale", "0"},
	} {
		if err := run(args); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}
