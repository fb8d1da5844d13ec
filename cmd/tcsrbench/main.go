// Command tcsrbench measures the bit-packed time-evolving differential CSR
// of Section IV: parallel construction time across a processor sweep, the
// space of the differential form versus full per-frame snapshots and the
// checkpoint-interval ablation (-compare), and activity-query throughput.
//
//	tcsrbench -nodes 20000 -base 100000 -churn 2000 -frames 50 -compare
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"csrgraph/internal/gen"
	"csrgraph/internal/harness"
	"csrgraph/internal/tcsr"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tcsrbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tcsrbench", flag.ContinueOnError)
	nodes := fs.Int("nodes", 20000, "node count")
	base := fs.Int("base", 100000, "frame-0 edges")
	churn := fs.Int("churn", 2000, "toggles per later frame")
	frames := fs.Int("frames", 50, "number of frames")
	seed := fs.Uint64("seed", 1, "stream seed")
	procsStr := fs.String("procs", "", "comma-separated processor counts (default 1, doubling, up to GOMAXPROCS)")
	reps := fs.Int("reps", 3, "median-of-k repetitions")
	compare := fs.Bool("compare", false, "also report differential vs full-snapshot space")
	queries := fs.Int("queries", 10000, "activity queries to time")
	if err := fs.Parse(args); err != nil {
		return err
	}
	procs, err := harness.ParseProcs(*procsStr)
	if err != nil {
		return err
	}

	fmt.Fprintf(os.Stderr, "generating temporal stream (%d nodes, %d base, %d churn x %d frames)...\n",
		*nodes, *base, *churn, *frames)
	events, err := gen.TemporalStream(*nodes, *base, *churn, *frames, *seed, 4)
	if err != nil {
		return err
	}
	fmt.Printf("events: %d over %d frames\n\n", len(events), *frames)

	fmt.Println("== TCSR construction time vs processors (Algorithm 5) ==")
	var buildErr error
	rows := harness.TimeSweep(procs, *reps, func(p int) {
		if _, err := tcsr.BuildFromEvents(events, *nodes, *frames, p); err != nil {
			buildErr = err
		}
	})
	if buildErr != nil {
		return buildErr
	}
	for _, m := range rows {
		speed := "-"
		if m.Procs > 1 {
			speed = fmt.Sprintf("%.2f%%", m.SpeedupP)
		}
		fmt.Printf("p=%-3d  %10v  speed-up %s\n", m.Procs, m.Time, speed)
	}

	pt, err := tcsr.BuildFromEvents(events, *nodes, *frames, 4)
	if err != nil {
		return err
	}
	plain := pt.PlainSizeBytes()
	fmt.Printf("\ndifferential TCSR: %s plain, %s bit-packed\n",
		harness.HumanBytes(plain), harness.HumanBytes(pt.SizeBytes()))

	// Activity queries, drawn once; answer times them over one form of the
	// graph, median of -reps passes.
	qs := make([]tcsr.ActivityQuery, *queries)
	st := *seed
	for i := range qs {
		st = st*6364136223846793005 + 1442695040888963407
		qs[i] = tcsr.ActivityQuery{
			U: uint32(st>>33) % uint32(*nodes),
			V: uint32(st>>13) % uint32(*nodes),
			T: int(st>>3) % *frames,
		}
	}
	answer := func(g *tcsr.Packed) (hits int, elapsed time.Duration) {
		elapsed = harness.MedianOf(*reps, func() {
			hits = 0
			for _, q := range qs {
				if g.Active(q.U, q.V, q.T) {
					hits++
				}
			}
		})
		return hits, elapsed
	}

	if *compare {
		full := pt.FullSnapshotSizeBytes()
		fmt.Printf("full snapshots:    %s (differential is %.1fx smaller)\n",
			harness.HumanBytes(full), float64(full)/float64(plain))

		// Checkpoint-interval ablation: query time vs space (the copy+log
		// trade-off from the related work).
		fmt.Println("\n== checkpoint interval ablation (Active query, space vs latency) ==")
		for _, interval := range []int{1, 4, 16, *frames} {
			if interval > *frames {
				continue
			}
			ck, err := pt.Checkpoint(interval, 4)
			if err != nil {
				return err
			}
			_, elapsed := answer(ck)
			fmt.Printf("interval=%-3d  %s total, %8.0f q/s\n",
				interval, harness.HumanBytes(ck.SizeBytes()),
				float64(len(qs))/elapsed.Seconds())
		}
	}

	// Activity-query throughput over the packed form.
	hits, elapsed := answer(pt)
	fmt.Printf("\n%d activity queries in %v (%.0f q/s, %d active)\n",
		len(qs), elapsed, float64(len(qs))/elapsed.Seconds(), hits)
	return nil
}
