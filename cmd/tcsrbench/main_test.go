package main

import "testing"

// TestParseProcs: -procs goes through harness.ParseProcs, white space and
// all, and without it the sweep is the host's.
func TestParseProcs(t *testing.T) {
	small := []string{"-nodes", "200", "-base", "1000", "-churn", "50", "-frames", "6", "-reps", "1", "-queries", "10"}
	for _, extra := range [][]string{nil, {"-procs", " 1, 2"}} {
		if err := run(append(extra, small...)); err != nil {
			t.Fatalf("%v: %v", extra, err)
		}
	}
	if err := run(append([]string{"-procs", "1,zero"}, small...)); err == nil {
		t.Fatal("want error")
	}
}

func TestRunSmall(t *testing.T) {
	err := run([]string{
		"-nodes", "200", "-base", "1000", "-churn", "50", "-frames", "6",
		"-procs", "1,2", "-reps", "1", "-queries", "500", "-compare",
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{"-procs", "x"}); err == nil {
		t.Fatal("want procs error")
	}
	if err := run([]string{"-nodes", "1", "-frames", "3", "-reps", "1"}); err == nil {
		t.Fatal("want generator error for 1 node")
	}
}
