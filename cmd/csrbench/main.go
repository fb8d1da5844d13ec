// Command csrbench regenerates the paper's evaluation artifacts:
//
//	csrbench -experiment table2   # Table II: sizes, times, speed-ups
//	csrbench -experiment fig6     # Figure 6: time vs processors
//	csrbench -experiment fig7     # Figure 7: speed-up vs processors
//	csrbench -experiment all      # everything, plus CSV with -csv
//
// Inputs are seeded R-MAT stand-ins for the SNAP datasets, scaled down by
// -scale (64 by default; -scale 1 is paper-size and needs several GB of
// memory). Every time is the median wall clock of -reps runs of the real
// goroutine implementation; the processor sweep defaults to 1, doubling,
// up to GOMAXPROCS, and -procs asks for other counts.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"csrgraph/internal/harness"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "csrbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("csrbench", flag.ContinueOnError)
	experiment := fs.String("experiment", "all", "table2, fig6, fig7, queries, scaling or all")
	scale := fs.Int("scale", 64, "divide the paper's graph sizes by this factor (1 = full size)")
	reps := fs.Int("reps", 3, "median-of-k repetitions per measurement")
	procsStr := fs.String("procs", "", "comma-separated processor counts (default 1, doubling, up to GOMAXPROCS)")
	graph := fs.String("graph", "", "run a single registry graph (default: all four)")
	csvPath := fs.String("csv", "", "also write results as CSV to this path")
	svgDir := fs.String("svg", "", "also write fig6.svg and fig7.svg into this directory")
	genProcs := fs.Int("genprocs", 4, "processors used for workload generation")
	if err := fs.Parse(args); err != nil {
		return err
	}

	procs, err := harness.ParseProcs(*procsStr)
	if err != nil {
		return err
	}

	specs := harness.Registry
	if *graph != "" {
		spec, err := harness.Find(*graph)
		if err != nil {
			return err
		}
		specs = []harness.GraphSpec{spec}
	}

	if *experiment == "scaling" {
		for _, spec := range specs {
			fmt.Printf("== %s: p=1 construction across input scales ==\n", spec.Name)
			// From the requested scale up to 8x smaller inputs.
			scales := []int{*scale * 8, *scale * 4, *scale * 2, *scale}
			points, err := harness.RunScaling(spec, scales, *reps, *genProcs)
			if err != nil {
				return err
			}
			if err := harness.RenderScaling(os.Stdout, spec.Name, points); err != nil {
				return err
			}
			fmt.Println()
		}
		return nil
	}

	if *experiment == "queries" {
		for _, spec := range specs {
			inst, err := spec.Generate(*scale, *genProcs)
			if err != nil {
				return err
			}
			for _, p := range procs {
				fmt.Printf("== %s: batched query throughput (procs=%d) ==\n", spec.Name, p)
				qr := harness.RunQueryComparison(inst, 20000, p, *reps)
				if err := harness.RenderQueryComparison(os.Stdout, spec.Name, qr); err != nil {
					return err
				}
				fmt.Println()
			}
		}
		return nil
	}

	var results []*harness.Result
	for _, spec := range specs {
		fmt.Fprintf(os.Stderr, "generating %s at 1/%d scale...\n", spec.Name, *scale)
		inst, err := spec.Generate(*scale, *genProcs)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "measuring %s (%d nodes, %d edges, p in %v)...\n",
			spec.Name, inst.NumNodes, len(inst.Edges), procs)
		results = append(results, harness.RunConstruction(inst, procs, *reps))
	}

	switch *experiment {
	case "table2":
		err = harness.RenderTable2(os.Stdout, results)
	case "fig6":
		err = harness.RenderFig6(os.Stdout, results)
	case "fig7":
		err = harness.RenderFig7(os.Stdout, results)
	case "all":
		fmt.Println("== Table II ==")
		if err = harness.RenderTable2(os.Stdout, results); err != nil {
			break
		}
		fmt.Println("\n== Figure 6: construction time (ms) vs processors ==")
		if err = harness.RenderFig6(os.Stdout, results); err != nil {
			break
		}
		fmt.Println("\n== Figure 7: speed-up (%) vs processors ==")
		err = harness.RenderFig7(os.Stdout, results)
	default:
		return fmt.Errorf("unknown experiment %q", *experiment)
	}
	if err != nil {
		return err
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		werr := harness.RenderCSV(f, results)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *csvPath)
	}
	if *svgDir != "" {
		for name, render := range map[string]func(io.Writer, []*harness.Result) error{
			"fig6.svg": harness.RenderFig6SVG,
			"fig7.svg": harness.RenderFig7SVG,
		} {
			path := filepath.Join(*svgDir, name)
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			werr := render(f, results)
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				return werr
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}
	return nil
}
