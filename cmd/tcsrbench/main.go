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
	"strconv"
	"strings"
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
	procsStr := fs.String("procs", "1,4,8,16,64", "processor sweep")
	reps := fs.Int("reps", 3, "median-of-k repetitions")
	compare := fs.Bool("compare", false, "also report differential vs full-snapshot space")
	queries := fs.Int("queries", 10000, "activity queries to time")
	if err := fs.Parse(args); err != nil {
		return err
	}
	procs, err := parseProcs(*procsStr)
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
	var t1 time.Duration
	for _, p := range procs {
		best := time.Duration(0)
		for r := 0; r < *reps; r++ {
			start := time.Now()
			if _, err := tcsr.BuildFromEvents(events, *nodes, *frames, p); err != nil {
				return err
			}
			if d := time.Since(start); best == 0 || d < best {
				best = d
			}
		}
		if p == 1 {
			t1 = best
		}
		speed := "-"
		if p > 1 && t1 > 0 {
			speed = fmt.Sprintf("%.2f%%", 100*float64(t1-best)/float64(t1))
		}
		fmt.Printf("p=%-3d  %10v  speed-up %s\n", p, best, speed)
	}

	pt, err := tcsr.BuildFromEvents(events, *nodes, *frames, 4)
	if err != nil {
		return err
	}
	plain := pt.PlainSizeBytes()
	fmt.Printf("\ndifferential TCSR: %s plain, %s bit-packed\n",
		harness.HumanBytes(plain), harness.HumanBytes(pt.SizeBytes()))

	if *compare {
		full := pt.FullSnapshotSizeBytes()
		fmt.Printf("full snapshots:    %s (differential is %.1fx smaller)\n",
			harness.HumanBytes(full), float64(full)/float64(plain))

		// Checkpoint-interval ablation: query time vs space (the copy+log
		// trade-off from the related work).
		fmt.Println("\n== checkpoint interval ablation (Active query, space vs latency) ==")
		queriesCk := make([]tcsr.ActivityQuery, 2000)
		st := *seed
		for i := range queriesCk {
			st = st*6364136223846793005 + 1442695040888963407
			queriesCk[i] = tcsr.ActivityQuery{
				U: uint32(st>>33) % uint32(*nodes),
				V: uint32(st>>13) % uint32(*nodes),
				T: int(st>>3) % *frames,
			}
		}
		for _, interval := range []int{1, 4, 16, *frames} {
			if interval > *frames {
				continue
			}
			ck, err := pt.Checkpoint(interval, 4)
			if err != nil {
				return err
			}
			start := time.Now()
			for _, q := range queriesCk {
				ck.Active(q.U, q.V, q.T)
			}
			elapsed := time.Since(start)
			fmt.Printf("interval=%-3d  %s total, %8.0f q/s\n",
				interval, harness.HumanBytes(ck.SizeBytes()),
				float64(len(queriesCk))/elapsed.Seconds())
		}
	}

	// Activity-query throughput over the packed form.
	rngState := *seed
	next := func() uint32 {
		rngState = rngState*6364136223846793005 + 1442695040888963407
		return uint32(rngState >> 33)
	}
	start := time.Now()
	hits := 0
	for i := 0; i < *queries; i++ {
		u := next() % uint32(*nodes)
		v := next() % uint32(*nodes)
		f := int(next()) % *frames
		if pt.Active(u, v, f) {
			hits++
		}
	}
	elapsed := time.Since(start)
	fmt.Printf("\n%d activity queries in %v (%.0f q/s, %d active)\n",
		*queries, elapsed, float64(*queries)/elapsed.Seconds(), hits)
	return nil
}

func parseProcs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || p < 1 {
			return nil, fmt.Errorf("bad processor count %q", part)
		}
		out = append(out, p)
	}
	return out, nil
}
