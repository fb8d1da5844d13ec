// Command csrstats runs the analytics suite over a graph file and prints
// a structural report: degree distribution, components, clustering,
// triangles, k-core depth.
//
//	csrstats -in graph.txt -procs 8 -symmetrize
//	csrstats -in graph.csrc
//	csrstats -in graph.csrc -meta
//
// The input may be a SNAP text edge list, the binary edge framing (.bin),
// or a binary graph container (.csrc, detected by magic as well as
// extension). Container inputs first print the container metadata —
// version, form, per-section layout, checksum status — straight from the
// header without loading the arrays; -meta stops there, otherwise the
// container is memory-mapped and analyzed like any other graph. A temporal
// container has no single static graph to analyze, so only its metadata
// prints. Triangles, clustering and k-core are defined on symmetric graphs
// only: on a directed graph -heavy prints that it skipped them.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"csrgraph/internal/algo"
	"csrgraph/internal/csr"
	"csrgraph/internal/edgelist"
	"csrgraph/internal/harness"
	"csrgraph/internal/mgraph"
	"csrgraph/internal/parallel"
	"csrgraph/internal/query"
)

// graph is what csrstats analyzes. Every static form (the plain CSR and
// the container's packed and delta forms) knows its edge count and answers
// single existence probes, which the symmetry check needs.
type graph interface {
	query.Source
	NumEdges() int
	SearchRow(u, v edgelist.NodeID) bool
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "csrstats:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("csrstats", flag.ContinueOnError)
	in := fs.String("in", "", "input graph (required): .txt/.bin edge list or .csrc container")
	procs := fs.Int("procs", 4, "processors")
	symmetrize := fs.Bool("symmetrize", false, "add reverse edges (edge-list inputs only)")
	heavy := fs.Bool("heavy", true, "include triangles, clustering and k-core, on symmetric graphs (O(m^1.5)-ish)")
	metaOnly := fs.Bool("meta", false, "container inputs: print header metadata only, do not load the graph")
	verify := fs.Bool("verify", false, "container inputs: checksum every section payload")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("-in is required")
	}

	var g graph
	var sizeBytes int64
	switch {
	case isContainer(*in):
		if err := printContainerMeta(*in, *verify); err != nil {
			return err
		}
		if *metaOnly {
			return nil
		}
		var mopts []mgraph.OpenOption
		if *verify {
			mopts = append(mopts, mgraph.WithVerify())
		}
		m, err := mgraph.Open(*in, mopts...)
		if err != nil {
			return err
		}
		defer m.Close() //csr:errok read-only mapping; nothing to lose on close
		var ok bool
		if g, ok = m.Source().(graph); !ok {
			return fmt.Errorf("%s holds a %s graph; only -meta applies", *in, m.GraphForm())
		}
		sizeBytes = m.SizeBytes()
	default:
		l, err := edgelist.LoadFile(*in)
		if err != nil {
			return err
		}
		l = l.Prepared(*symmetrize, *procs)
		m := csr.Build(l, l.NumNodes(), *procs)
		g = m
		sizeBytes = m.SizeBytes()
	}

	start := time.Now()
	st := algo.Degrees(g, *procs)
	nodes := g.NumNodes()
	fmt.Printf("nodes:      %d\n", nodes)
	fmt.Printf("edges:      %d\n", g.NumEdges())
	fmt.Printf("storage:    %s\n", harness.HumanBytes(sizeBytes))
	fmt.Printf("degree:     min %d, mean %.2f, max %d, isolated %d\n",
		st.Min, st.Mean, st.Max, st.Isolated)

	labels := algo.ConnectedComponents(g, *procs)
	compSizes := map[uint32]int{}
	for _, l := range labels {
		compSizes[l]++
	}
	largest := 0
	for _, s := range compSizes {
		if s > largest {
			largest = s
		}
	}
	fmt.Printf("components: %d (largest %d nodes, %.1f%%)\n",
		len(compSizes), largest, 100*float64(largest)/float64(max(nodes, 1)))

	switch {
	case !*heavy:
	case !symmetric(g, *procs):
		fmt.Println("heavy:      skipped triangles, clustering and k-core: the graph is directed " +
			"(-symmetrize for edge lists, csrconvert -symmetrize for containers)")
	default:
		tri := algo.CountTriangles(g, *procs)
		avgCC, ccNodes := algo.GlobalClustering(g, *procs)
		core := algo.CoreNumbersBucketed(g, *procs)
		var maxCore uint32
		for _, k := range core {
			if k > maxCore {
				maxCore = k
			}
		}
		fmt.Printf("triangles:  %d\n", tri)
		fmt.Printf("clustering: %.4f (over %d nodes)\n", avgCC, ccNodes)
		fmt.Printf("max k-core: %d\n", maxCore)
	}
	fmt.Printf("analyzed in %v with %d processors\n", time.Since(start), *procs)
	return nil
}

// symmetric reports whether g stores (v, u) for every stored (u, v), in one
// parallel pass of existence probes that stops at the first one-way edge.
func symmetric(g graph, p int) bool {
	var oneWay atomic.Bool
	parallel.For(g.NumNodes(), p, func(_ int, r parallel.Range) {
		var row []uint32
		for u := r.Start; u < r.End && !oneWay.Load(); u++ {
			row = g.Row(row, uint32(u))
			for _, v := range row {
				if !g.SearchRow(v, uint32(u)) {
					oneWay.Store(true)
					return
				}
			}
		}
	})
	return !oneWay.Load()
}

// isContainer reports whether path is a binary graph container, by
// extension or by sniffing the magic (so renamed files still work).
func isContainer(path string) bool {
	if strings.HasSuffix(path, ".csrc") {
		return true
	}
	f, err := os.Open(path)
	if err != nil {
		return false // the real open reports the error with context
	}
	defer f.Close() //csr:errok read-only file; close cannot lose data
	var magic [4]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return false
	}
	return string(magic[:]) == mgraph.Magic
}

// printContainerMeta prints the header and section table without loading
// any graph arrays — O(1) I/O unless verify streams the payloads.
func printContainerMeta(path string, verify bool) error {
	meta, crcOK, err := mgraph.ReadMetaFile(path, verify)
	if err != nil {
		return err
	}
	fmt.Printf("container:  v%d, %s form, %d nodes, %d edges\n",
		meta.Version, meta.Form(), meta.NumNodes, meta.NumEdges)
	for i, s := range meta.Sections {
		crcNote := "crc unchecked"
		if verify {
			crcNote = "crc ok"
			if !crcOK[i] {
				crcNote = "CRC MISMATCH"
			}
		}
		width := fmt.Sprintf("%2d-bit", s.Width)
		if s.Width == 0 {
			width = "rawbit"
		}
		fmt.Printf("  section %d: %-15s %s  count %-12d %10s at %-10d %s\n",
			i, mgraph.KindName(s.Kind), width, s.Count,
			harness.HumanBytes(int64(s.Bytes())), s.Offset, crcNote)
	}
	return nil
}
