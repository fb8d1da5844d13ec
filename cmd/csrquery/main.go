// Command csrquery runs queries against a graph container produced by
// csrconvert or TemporalGraph.SaveFile. The container's header says
// whether it holds a static or a temporal graph, and that picks the
// subcommands:
//
//	csrquery -graph g.csrc neighbors 17 42
//	csrquery -graph g.csrc exists 17:42 9:3
//	csrquery -graph g.csrc degree 17
//	csrquery -graph g.csrc stats
//	csrquery -graph t.csrc active 17:42:3 9:3:0
//	csrquery -graph t.csrc tneighbors 17 3
//	csrquery -graph t.csrc stats
//
// The container is read into memory and verified (section checksums and
// neighbor ids) before any query runs. Batched queries run in parallel
// across -procs processors (Section V of the paper), with the engine
// csrserver answers through.
//
// With -server the query goes to a running csrserver instead, and -trace
// additionally prints the request's per-stage latency breakdown (the server
// must be started with -trace-sample):
//
//	csrquery -server http://localhost:8080 -trace exists 17:42
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"csrgraph/internal/edgelist"
	"csrgraph/internal/harness"
	"csrgraph/internal/mgraph"
	"csrgraph/internal/query"
	"csrgraph/internal/tcsr"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "csrquery:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("csrquery", flag.ContinueOnError)
	graphPath := fs.String("graph", "", "graph container, static or temporal")
	procs := fs.Int("procs", 4, "processors for batched queries")
	serverURL := fs.String("server", "", "query a running csrserver at this base URL instead of a local file")
	traceOn := fs.Bool("trace", false, "with -server: trace the request and print its per-stage latency breakdown")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if *serverURL != "" {
		if *graphPath != "" {
			return fmt.Errorf("-server is mutually exclusive with -graph")
		}
		return runRemote(*serverURL, *traceOn, rest, os.Stdout)
	}
	if *traceOn {
		return fmt.Errorf("-trace needs -server: local queries have no trace recorder")
	}
	if *graphPath == "" {
		return fmt.Errorf("-graph is required")
	}
	c, err := mgraph.ReadFile(*graphPath)
	if err != nil {
		return err
	}
	if c.GraphForm() == mgraph.FormTemporal {
		return runTemporal(c.Temporal(), rest, *procs)
	}
	return runStatic(c, rest, *procs)
}

// runStatic dispatches subcommands over a static container, answering
// through its query source whatever its form.
func runStatic(c *mgraph.Container, rest []string, procs int) error {
	const subcommands = "neighbors, exists, degree or stats"
	if len(rest) == 0 {
		return fmt.Errorf("need a subcommand: %s", subcommands)
	}
	src := c.Source()
	switch rest[0] {
	case "stats":
		fmt.Printf("nodes:         %d\n", src.NumNodes())
		fmt.Printf("edges:         %d\n", c.NumEdges)
		if pk := c.Packed(); pk != nil {
			fmt.Printf("payload:       %s\n", harness.HumanBytes(pk.SizeBytes()))
			fmt.Printf("neighbor bits: %d\n", pk.NumBits())
			fmt.Printf("offset bits:   %d\n", pk.OffsetBits())
		} else {
			fmt.Printf("payload:       %s\n", harness.HumanBytes(c.Delta().SizeBytes()))
		}
		return nil
	case "neighbors":
		nodes, err := parseItems(rest[1:], src.NumNodes(), edgelist.ParseNodeItem, "node id")
		if err != nil {
			return err
		}
		results := query.NeighborsBatch(src, nodes, procs)
		for i, u := range nodes {
			fmt.Printf("%d: %v\n", u, results[i])
		}
		return nil
	case "degree":
		nodes, err := parseItems(rest[1:], src.NumNodes(), edgelist.ParseNodeItem, "node id")
		if err != nil {
			return err
		}
		results := query.CountBatch(src, nodes, procs)
		for i, u := range nodes {
			fmt.Printf("%d: %d\n", u, results[i])
		}
		return nil
	case "exists":
		edges, err := parseItems(rest[1:], src.NumNodes(), edgelist.ParseEdgeItem, "u:v pair")
		if err != nil {
			return err
		}
		results := query.EdgesExistBatchSearch(src, edges, procs)
		for i, e := range edges {
			fmt.Printf("%d -> %d: %v\n", e.U, e.V, results[i])
		}
		return nil
	}
	return fmt.Errorf("unknown subcommand %q for a %s graph; want %s", rest[0], c.GraphForm(), subcommands)
}

// runTemporal dispatches subcommands over a temporal container.
func runTemporal(pt *tcsr.Packed, rest []string, procs int) error {
	const subcommands = "active, tneighbors or stats"
	if len(rest) == 0 {
		return fmt.Errorf("need a subcommand: %s", subcommands)
	}
	switch rest[0] {
	case "stats":
		fmt.Printf("nodes:   %d\n", pt.NumNodes())
		fmt.Printf("frames:  %d\n", pt.NumFrames())
		fmt.Printf("payload: %s\n", harness.HumanBytes(pt.SizeBytes()))
		return nil
	case "active":
		queries, err := parseItems(rest[1:], pt.NumNodes(), func(a string, n int) (tcsr.ActivityQuery, error) {
			return tcsr.ParseQueryItem(a, n, pt.NumFrames())
		}, "u:v:t query")
		if err != nil {
			return err
		}
		results := pt.ActiveBatch(queries, procs)
		for i, q := range queries {
			fmt.Printf("%d -> %d at frame %d: %v\n", q.U, q.V, q.T, results[i])
		}
		return nil
	case "tneighbors":
		if len(rest) != 3 {
			return fmt.Errorf("usage: tneighbors <node> <frame>")
		}
		u, err1 := strconv.ParseUint(rest[1], 10, 32)
		tf, err2 := strconv.Atoi(rest[2])
		if err1 != nil || err2 != nil {
			return fmt.Errorf("bad node/frame")
		}
		if int(u) >= pt.NumNodes() || tf < 0 || tf >= pt.NumFrames() {
			return fmt.Errorf("node %d / frame %d out of range", u, tf)
		}
		fmt.Printf("%d at frame %d: %v\n", u, tf, pt.ActiveNeighbors(nil, uint32(u), tf))
		return nil
	}
	return fmt.Errorf("unknown subcommand %q for a temporal graph; want %s", rest[0], subcommands)
}

// parseItems decodes a subcommand's arguments with the item grammar the
// server's batch endpoints use: one item per argument, n the node count.
func parseItems[T any](args []string, n int, item func(string, int) (T, error), what string) ([]T, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("need at least one %s", what)
	}
	out := make([]T, len(args))
	for i, a := range args {
		v, err := item(a, n)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
