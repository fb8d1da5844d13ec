// Command csrconvert compresses an edge-list file into bit-packed CSR on
// disk and reports the compression achieved:
//
//	csrconvert -in graph.txt -out graph.csrc -procs 8
//	csrconvert -in huge.bin -out huge.csrc -extmem-mb 512
//	csrconvert -in graph.txt -out graph.shards.json -partition 4
//
// The input may be SNAP text or the graphgen binary framing (.bin). The
// output is always the versioned binary container (internal/mgraph), whatever
// its name, which csrserver, csrquery and csrstats load or map without
// rebuilding; under -partition, -out is a JSON manifest naming one
// container per shard. -extmem-mb builds through the spill-to-disk pipeline
// under a fixed memory budget, for edge lists larger than RAM (the result
// is byte-identical to the in-RAM build).
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"csrgraph/internal/csr"
	"csrgraph/internal/edgelist"
	"csrgraph/internal/harness"
	"csrgraph/internal/mgraph"
	"csrgraph/internal/order"
	"csrgraph/internal/shard"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "csrconvert:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("csrconvert", flag.ContinueOnError)
	in := fs.String("in", "", "input edge list (required)")
	out := fs.String("out", "", "output container path, or manifest path under -partition (required)")
	procs := fs.Int("procs", 4, "processors for sorting and construction")
	symmetrize := fs.Bool("symmetrize", false, "add reverse edges before building")
	ordering := fs.String("order", "none", "relabel nodes before packing: none, degree or bfs")
	extmemMB := fs.Int("extmem-mb", 0, "external-memory build budget in MiB (0 = in-RAM)")
	partition := fs.Int("partition", 0, "cut into K edge-balanced shards: -out becomes a JSON manifest with one container per shard")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return fmt.Errorf("-in and -out are required")
	}
	if *extmemMB > 0 {
		if *ordering != "none" {
			return fmt.Errorf("-extmem-mb is incompatible with -order: relabeling needs the whole graph in memory")
		}
		if *partition > 0 {
			return fmt.Errorf("-extmem-mb is incompatible with -partition: the cut needs the whole offsets array in memory")
		}
		return runExternal(*in, *out, *extmemMB, *procs, *symmetrize)
	}

	l, err := edgelist.LoadFile(*in)
	if err != nil {
		return err
	}
	rawSize := l.SizeBytes()
	start := time.Now()
	l = l.Prepared(*symmetrize, *procs)
	m := csr.Build(l, l.NumNodes(), *procs)
	switch *ordering {
	case "none":
	case "degree":
		m, err = order.Apply(m, order.ByDegree(m, *procs), *procs)
	case "bfs":
		m, err = order.Apply(m, order.ByBFS(m, 0, *procs), *procs)
	default:
		return fmt.Errorf("unknown -order %q (none, degree, bfs)", *ordering)
	}
	if err != nil {
		return err
	}
	if *partition > 0 {
		return runPartition(m, *out, *partition, *procs, rawSize, len(l), start)
	}
	pk := csr.PackMatrix(m, *procs)
	elapsed := time.Since(start)

	if err := mgraph.WritePackedFile(*out, pk); err != nil {
		return err
	}
	fmt.Printf("input:    %d edges, %s\n", len(l), harness.HumanBytes(rawSize))
	fmt.Printf("packed:   %s (%.1fx smaller), %d-bit neighbors, %d-bit offsets\n",
		harness.HumanBytes(pk.SizeBytes()), float64(rawSize)/float64(pk.SizeBytes()),
		pk.NumBits(), pk.OffsetBits())
	fmt.Printf("built in: %v with %d processors\n", elapsed, *procs)
	fmt.Printf("wrote:    %s (container)\n", *out)
	return nil
}

// runPartition cuts the built matrix into K edge-balanced range shards and
// writes one container per shard plus the JSON manifest csrserver serves
// from. Pair with -order so each contiguous range is also cache-compact.
func runPartition(m *csr.Matrix, out string, k, procs int, rawSize int64, inputEdges int, start time.Time) error {
	part, err := shard.CutByEdges(m.RowOffsets, k)
	if err != nil {
		return err
	}
	shards, err := shard.Split(m, part)
	if err != nil {
		return err
	}
	mf, err := shard.WriteShards(out, shards, part, procs)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Printf("input:    %d edges, %s\n", inputEdges, harness.HumanBytes(rawSize))
	fmt.Printf("cut:      %d edge-balanced range shards\n", k)
	for s, sh := range mf.Shards {
		fmt.Printf("  shard %d: [%d, %d) %d nodes, %d edges -> %s\n", s, sh.Lo, sh.Hi, sh.Nodes, sh.Edges, sh.File)
	}
	fmt.Printf("built in: %v with %d processors\n", elapsed, procs)
	fmt.Printf("wrote:    %s (manifest)\n", out)
	return nil
}

// runExternal builds the container through the spill-to-disk pipeline.
func runExternal(in, out string, budgetMB, procs int, symmetrize bool) error {
	start := time.Now()
	stats, err := mgraph.ExternalBuildFile(in, out, mgraph.ExternalOptions{
		MemoryBudget: int64(budgetMB) << 20,
		Procs:        procs,
		Symmetrize:   symmetrize,
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	outInfo, err := os.Stat(out)
	if err != nil {
		return err
	}
	fmt.Printf("input:    %d edges streamed (%d sort keys)\n", stats.InputEdges, stats.Keys)
	fmt.Printf("graph:    %d nodes, %d unique edges\n", stats.NumNodes, stats.UniqueEdges)
	fmt.Printf("spill:    %d shards, %s under a %d MiB budget\n",
		stats.Shards, harness.HumanBytes(stats.SpilledBytes), budgetMB)
	fmt.Printf("built in: %v with %d processors\n", elapsed, procs)
	fmt.Printf("wrote:    %s (container, %s)\n", out, harness.HumanBytes(outInfo.Size()))
	return nil
}
