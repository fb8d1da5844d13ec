// Command csrquery runs queries against a graph container produced by
// csrconvert, or a temporal container written by TemporalGraph.SaveFile:
//
//	csrquery -graph g.csrc neighbors 17 42
//	csrquery -graph g.csrc exists 17:42 9:3
//	csrquery -graph g.csrc degree 17
//	csrquery -graph g.csrc stats
//	csrquery -temporal t.csrc active 17:42:3 9:3:0
//	csrquery -temporal t.csrc tneighbors 17 3
//	csrquery -temporal t.csrc stats
//
// The container is read into memory and verified (section checksums and
// neighbor ids) before any query runs. Batched queries run in parallel
// across -procs processors (Section V of the paper).
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
	"strings"

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
	graphPath := fs.String("graph", "", "packed or weighted graph container")
	temporalPath := fs.String("temporal", "", "temporal graph container (mutually exclusive with -graph)")
	procs := fs.Int("procs", 4, "processors for batched queries")
	serverURL := fs.String("server", "", "query a running csrserver at this base URL instead of a local file")
	traceOn := fs.Bool("trace", false, "with -server: trace the request and print its per-stage latency breakdown")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	if *serverURL != "" {
		if *graphPath != "" || *temporalPath != "" {
			return fmt.Errorf("-server is mutually exclusive with -graph and -temporal")
		}
		return runRemote(*serverURL, *traceOn, rest, os.Stdout)
	}
	if *traceOn {
		return fmt.Errorf("-trace needs -server: local queries have no trace recorder")
	}
	if *temporalPath != "" {
		if *graphPath != "" {
			return fmt.Errorf("-graph and -temporal are mutually exclusive")
		}
		return runTemporal(*temporalPath, rest, *procs)
	}
	if *graphPath == "" {
		return fmt.Errorf("-graph or -temporal is required")
	}
	if len(rest) == 0 {
		return fmt.Errorf("need a subcommand: neighbors, exists, degree or stats")
	}

	c, err := mgraph.ReadFile(*graphPath)
	if err != nil {
		return err
	}
	pk := c.Packed()
	if pk == nil {
		return fmt.Errorf("%s holds a %s graph; -graph needs a packed or weighted one", *graphPath, c.GraphForm())
	}

	switch rest[0] {
	case "stats":
		fmt.Printf("nodes:         %d\n", pk.NumNodes())
		fmt.Printf("edges:         %d\n", pk.NumEdges())
		fmt.Printf("payload:       %s\n", harness.HumanBytes(pk.SizeBytes()))
		fmt.Printf("neighbor bits: %d\n", pk.NumBits())
		fmt.Printf("offset bits:   %d\n", pk.OffsetBits())
		return nil
	case "neighbors":
		nodes, err := parseNodes(rest[1:], pk.NumNodes())
		if err != nil {
			return err
		}
		results := query.NeighborsBatch(pk, nodes, *procs)
		for i, u := range nodes {
			fmt.Printf("%d: %v\n", u, results[i])
		}
		return nil
	case "degree":
		nodes, err := parseNodes(rest[1:], pk.NumNodes())
		if err != nil {
			return err
		}
		results := query.CountBatch(pk, nodes, *procs)
		for i, u := range nodes {
			fmt.Printf("%d: %d\n", u, results[i])
		}
		return nil
	case "exists":
		edges, err := parseEdges(rest[1:], pk.NumNodes())
		if err != nil {
			return err
		}
		results := query.EdgesExistBatchBinary(pk, edges, *procs)
		for i, e := range edges {
			fmt.Printf("%d -> %d: %v\n", e.U, e.V, results[i])
		}
		return nil
	}
	return fmt.Errorf("unknown subcommand %q", rest[0])
}

// runTemporal dispatches subcommands over a temporal container.
func runTemporal(path string, rest []string, procs int) error {
	if len(rest) == 0 {
		return fmt.Errorf("need a subcommand: active, tneighbors or stats")
	}
	c, err := mgraph.ReadFile(path)
	if err != nil {
		return err
	}
	pt := c.Temporal()
	if pt == nil {
		return fmt.Errorf("%s holds a %s graph; -temporal needs a temporal one", path, c.GraphForm())
	}
	switch rest[0] {
	case "stats":
		fmt.Printf("nodes:   %d\n", pt.NumNodes())
		fmt.Printf("frames:  %d\n", pt.NumFrames())
		fmt.Printf("payload: %s\n", harness.HumanBytes(pt.SizeBytes()))
		return nil
	case "active":
		if len(rest) < 2 {
			return fmt.Errorf("need at least one u:v:t query")
		}
		queries := make([]tcsr.ActivityQuery, len(rest)-1)
		for i, a := range rest[1:] {
			parts := strings.Split(a, ":")
			if len(parts) != 3 {
				return fmt.Errorf("bad query %q, want u:v:t", a)
			}
			u, err1 := strconv.ParseUint(parts[0], 10, 32)
			v, err2 := strconv.ParseUint(parts[1], 10, 32)
			tf, err3 := strconv.Atoi(parts[2])
			if err1 != nil || err2 != nil || err3 != nil {
				return fmt.Errorf("bad query %q", a)
			}
			if int(u) >= pt.NumNodes() || int(v) >= pt.NumNodes() || tf < 0 || tf >= pt.NumFrames() {
				return fmt.Errorf("query %q out of range (%d nodes, %d frames)", a, pt.NumNodes(), pt.NumFrames())
			}
			queries[i] = tcsr.ActivityQuery{U: uint32(u), V: uint32(v), T: tf}
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
		fmt.Printf("%d at frame %d: %v\n", u, tf, pt.ActiveNeighbors(uint32(u), tf))
		return nil
	}
	return fmt.Errorf("unknown temporal subcommand %q", rest[0])
}

func parseNodes(args []string, numNodes int) ([]edgelist.NodeID, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("need at least one node id")
	}
	out := make([]edgelist.NodeID, len(args))
	for i, a := range args {
		v, err := strconv.ParseUint(a, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad node id %q: %w", a, err)
		}
		if int(v) >= numNodes {
			return nil, fmt.Errorf("node %d out of range [0,%d)", v, numNodes)
		}
		out[i] = uint32(v)
	}
	return out, nil
}

func parseEdges(args []string, numNodes int) ([]edgelist.Edge, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("need at least one u:v pair")
	}
	out := make([]edgelist.Edge, len(args))
	for i, a := range args {
		parts := strings.SplitN(a, ":", 2)
		if len(parts) != 2 {
			return nil, fmt.Errorf("bad edge %q, want u:v", a)
		}
		u, err := strconv.ParseUint(parts[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad edge %q: %w", a, err)
		}
		v, err := strconv.ParseUint(parts[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad edge %q: %w", a, err)
		}
		if int(u) >= numNodes || int(v) >= numNodes {
			return nil, fmt.Errorf("edge %q out of range [0,%d)", a, numNodes)
		}
		out[i] = edgelist.Edge{U: uint32(u), V: uint32(v)}
	}
	return out, nil
}
