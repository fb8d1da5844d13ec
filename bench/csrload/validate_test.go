package main

import (
	"strings"
	"testing"
)

func TestValidateCommittedFiles(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, g, err := loadConfig(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != 4 || len(g.Workloads) != 4 {
		t.Errorf("%d declared and %d configured workloads, want 4 and 4", len(bf.Workloads), len(g.Workloads))
	}
	for _, name := range []string{"driver", "paper", "smoke"} {
		if _, ok := g.Profiles[name]; !ok {
			t.Errorf("workloads.json has no %q profile", name)
		}
	}

	// Each way the two files and the program can drift apart is caught.
	for _, c := range []struct {
		name   string
		mutate func(*benchmarkFile, *grid)
		want   string
	}{
		{"metric declared but not emitted", func(b *benchmarkFile, _ *grid) {
			b.EndToEnd = append(b.EndToEnd, metricDecl{Name: "made_up", Unit: "s", Better: "lower"})
		}, `"made_up" is declared but not emitted`},
		{"metric emitted but not declared", func(b *benchmarkFile, _ *grid) {
			b.PerLayer = b.PerLayer[1:]
		}, "is emitted but not declared"},
		{"workload only in workloads.json", func(b *benchmarkFile, _ *grid) {
			b.Workloads = b.Workloads[:3]
		}, "not declared in BENCHMARK.json"},
		{"workload only in BENCHMARK.json", func(_ *benchmarkFile, g *grid) {
			g.Workloads = g.Workloads[1:]
		}, "missing from workloads.json"},
		{"unknown op", func(_ *benchmarkFile, g *grid) {
			g.Workloads[0].Mix = []mixEntry{{Op: "bfs", Share: 1, Items: 1, Keys: "uniform"}}
		}, `unknown op "bfs"`},
	} {
		bf, g, err := loadConfig(root)
		if err != nil {
			t.Fatal(err)
		}
		c.mutate(bf, g)
		if err := validateConfig(bf, g); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one mentioning %q", c.name, err, c.want)
		}
	}
}
