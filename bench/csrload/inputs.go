package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"csrgraph"
)

// rng is splitmix64, written out here so that a seed names the same pools
// on every Go release (the pool hash is pinned by a test).
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// buildTools compiles the three programs under test from ./cmd into
// dir/bin, with whatever build cache the environment provides and the
// compiler's scratch files kept inside dir.
func buildTools(root, dir string) (string, error) {
	bin := filepath.Join(dir, "bin")
	cmd := exec.Command("go", "build", "-o", bin+string(filepath.Separator),
		"./cmd/graphgen", "./cmd/csrconvert", "./cmd/csrserver")
	cmd.Dir = root
	cmd.Env = append(os.Environ(), "GOTMPDIR="+dir)
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/...: %v\n%s", err, out)
	}
	return bin, nil
}

// runTool runs one of the built programs to completion.
func runTool(path string, args ...string) error {
	out, err := exec.Command(path, args...).CombinedOutput()
	if err != nil {
		return fmt.Errorf("%s %s: %v\n%s", filepath.Base(path), strings.Join(args, " "), err, out)
	}
	return nil
}

// inputs names the files one set-up leaves in the work directory.
type inputs struct {
	bin, dir  string
	edgeFile  string // graphgen's binary edge list
	graphFile string // what csrserver -graph gets
}

// generate runs graphgen for G. -procs stays at graphgen's default: the
// generator derives one stream per chunk, so the processor count is part
// of what a seed means.
func (in *inputs) generate(p profile, seed uint64) error {
	in.edgeFile = filepath.Join(in.dir, "G.bin")
	return runTool(filepath.Join(in.bin, "graphgen"), "-kind", "rmat",
		"-scale", strconv.Itoa(p.Scale), "-edges", strconv.Itoa(p.Edges),
		"-seed", strconv.FormatUint(seed, 10), "-out", in.edgeFile)
}

// convert runs csrconvert into the stored form the workload serves from.
func (in *inputs) convert(graph string, shards, procs int) error {
	args := []string{"-in", in.edgeFile, "-procs", strconv.Itoa(procs)}
	if graph == "shards" {
		in.graphFile = filepath.Join(in.dir, "G.shards.json")
		args = append(args, "-partition", strconv.Itoa(shards))
	} else {
		in.graphFile = filepath.Join(in.dir, "G.csrc")
	}
	return runTool(filepath.Join(in.bin, "csrconvert"), append(args, "-out", in.graphFile)...)
}

// readEdgeFile parses graphgen's binary framing: "CSEL", a u64 edge count,
// then two little-endian u32 per edge.
func readEdgeFile(path string) ([]csrgraph.Edge, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	var hdr [12]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%s: header: %w", path, err)
	}
	if string(hdr[:4]) != "CSEL" {
		return nil, fmt.Errorf("%s: bad magic %q", path, hdr[:4])
	}
	n := binary.LittleEndian.Uint64(hdr[4:])
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if want := int64(12 + 8*n); st.Size() != want {
		return nil, fmt.Errorf("%s: %d bytes, header says %d", path, st.Size(), want)
	}
	edges := make([]csrgraph.Edge, n)
	var rec [8]byte
	for i := range edges {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("%s: edge %d: %w", path, i, err)
		}
		edges[i] = csrgraph.Edge{U: binary.LittleEndian.Uint32(rec[0:]), V: binary.LittleEndian.Uint32(rec[4:])}
	}
	return edges, nil
}

// oracle is the benchmark's own answer key: sorted, deduplicated adjacency
// built with the standard library's sort, sharing no code with the
// repository's radix construction path.
type oracle struct {
	off  []int    // n+1 row offsets into cols
	cols []uint32 // neighbor ids, ascending within a row
}

// newOracle builds the adjacency over node ids [0, n); n <= 0 means
// max id + 1, which is how every program here sizes the id space.
func newOracle(edges []csrgraph.Edge, n int) *oracle {
	keys := make([]uint64, len(edges))
	for i, e := range edges {
		keys[i] = uint64(e.U)<<32 | uint64(e.V)
		n = max(n, int(e.U)+1, int(e.V)+1)
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	o := &oracle{off: make([]int, n+1), cols: make([]uint32, len(keys))}
	for i, k := range keys {
		o.off[k>>32+1]++
		o.cols[i] = uint32(k)
	}
	for u := 0; u < n; u++ {
		o.off[u+1] += o.off[u]
	}
	return o
}

func (o *oracle) numNodes() int           { return len(o.off) - 1 }
func (o *oracle) numEdges() int           { return len(o.cols) }
func (o *oracle) row(u uint32) []uint32   { return o.cols[o.off[u]:o.off[u+1]] }
func (o *oracle) degree(u uint32) int     { return o.off[u+1] - o.off[u] }
func (o *oracle) exists(u, v uint32) bool { _, ok := slices.BinarySearch(o.row(u), v); return ok }

// request is one pooled query batch. Over HTTP it is a GET of url; in
// process the same items go to the batch API directly.
type request struct {
	op    string // exists, degree, neighbors
	edges []csrgraph.Edge
	nodes []uint32
	url   string
	// Filled by the correctness gate from the verified reply, then checked
	// on every timed reply.
	wantLen  int
	wantHash uint64
}

func (r *request) items() int { return len(r.edges) + len(r.nodes) }

// interleave spreads the mix entries over one period of sum(share) slots,
// always picking the entry furthest behind its share, so 3:1:1 gives
// the same E E D E N pattern on every run.
func interleave(mix []mixEntry) []int {
	total := 0
	for _, m := range mix {
		total += m.Share
	}
	credit := make([]int, len(mix))
	pattern := make([]int, total)
	for slot := range pattern {
		best := 0
		for i, m := range mix {
			credit[i] += m.Share
			if credit[i] > credit[best] {
				best = i
			}
		}
		credit[best] -= total
		pattern[slot] = best
	}
	return pattern
}

// makePool generates a workload's request pool from the seed. Sources are
// drawn as its mix says: "edge-endpoint" takes the source of a random edge
// (degree-biased), "hub" the smallest id among four such draws (R-MAT puts
// its hubs at small ids), "uniform" any node id. Half of the existence
// targets are real neighbors of their source.
func makePool(spec *workloadSpec, size int, edges []csrgraph.Edge, o *oracle, seed uint64) []request {
	r := &rng{s: seed ^ fnv64([]byte(spec.Name))}
	source := func(keys string) uint32 {
		switch keys {
		case "edge-endpoint":
			return edges[r.intn(len(edges))].U
		case "hub":
			u := edges[r.intn(len(edges))].U
			for i := 0; i < 3; i++ {
				u = min(u, edges[r.intn(len(edges))].U)
			}
			return u
		default:
			return uint32(r.intn(o.numNodes()))
		}
	}
	pattern := interleave(spec.Mix)
	pool := make([]request, size)
	var sb strings.Builder
	for i := range pool {
		m := spec.Mix[pattern[i%len(pattern)]]
		req := &pool[i]
		req.op = m.Op
		sb.Reset()
		if m.Op == "exists" {
			sb.WriteString("/exists?edges=")
			req.edges = make([]csrgraph.Edge, m.Items)
			for j := range req.edges {
				u := source(m.Keys)
				v := uint32(r.intn(o.numNodes()))
				if row := o.row(u); len(row) > 0 && r.next()&1 == 0 {
					v = row[r.intn(len(row))]
				}
				req.edges[j] = csrgraph.Edge{U: u, V: v}
				if j > 0 {
					sb.WriteByte(',')
				}
				sb.WriteString(strconv.FormatUint(uint64(u), 10))
				sb.WriteByte(':')
				sb.WriteString(strconv.FormatUint(uint64(v), 10))
			}
		} else {
			sb.WriteString("/" + m.Op + "?nodes=")
			req.nodes = make([]uint32, m.Items)
			for j := range req.nodes {
				req.nodes[j] = source(m.Keys)
				if j > 0 {
					sb.WriteByte(',')
				}
				sb.WriteString(strconv.FormatUint(uint64(req.nodes[j]), 10))
			}
		}
		req.url = sb.String()
	}
	return pool
}

func fnv64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// poolHash fingerprints a pool: same seed, same graph, same bytes.
func poolHash(pool []request) uint64 {
	h := fnv.New64a()
	for i := range pool {
		io.WriteString(h, pool[i].url)
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}

// nodeBatches draws the degree-biased node batches of the library tail's
// NeighborsBatch phase.
func nodeBatches(count, items int, edges []csrgraph.Edge, seed uint64) [][]uint32 {
	r := &rng{s: seed ^ 0xDEC0DE}
	out := make([][]uint32, count)
	for i := range out {
		out[i] = make([]uint32, items)
		for j := range out[i] {
			out[i][j] = edges[r.intn(len(edges))].U
		}
	}
	return out
}

// shuffled returns the edges in a seeded random order: graphgen writes its
// list sorted, and the build path should be timed on crawl order.
func shuffled(edges []csrgraph.Edge, seed uint64) []csrgraph.Edge {
	out := slices.Clone(edges)
	r := &rng{s: seed ^ 0x5AFF1E}
	for i := len(out) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// bfsSources picks the distinct traversal sources, degree-biased so none
// is an isolated node.
func bfsSources(count int, edges []csrgraph.Edge, seed uint64) []uint32 {
	r := &rng{s: seed ^ 0xBF5}
	var out []uint32
	for tries := 0; len(out) < count && tries < 64*count; tries++ {
		if u := edges[r.intn(len(edges))].U; !slices.Contains(out, u) {
			out = append(out, u)
		}
	}
	return out
}
