package server

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"csrgraph/internal/csr"
	"csrgraph/internal/edgelist"
	"csrgraph/internal/shard"
)

// ascendingRow draws k ids of [lo, hi) and returns the distinct ones in
// ascending order, the shape of a CSR row.
func ascendingRow(rng *rand.Rand, k int, lo, hi uint32) []uint32 {
	row := make([]uint32, k)
	for i := range row {
		row[i] = lo + uint32(rng.Int63n(int64(hi-lo)))
	}
	slices.Sort(row)
	return slices.Compact(row)
}

// benchRows is one /neighbors reply's worth of rows of a named shape.
func benchRows(shape string) [][]uint32 {
	rng := rand.New(rand.NewSource(5))
	rows := make([][]uint32, 64)
	for i := range rows {
		switch shape {
		case "hub": // http-neighbors-hub: ~830 neighbours in an 18-bit id space
			rows[i] = ascendingRow(rng, 830, 0, 1<<18)
		case "short": // http-mixed-uniform: a handful of neighbours
			rows[i] = ascendingRow(rng, 1+rng.Intn(15), 0, 1<<18)
		case "span": // every class boundary from four to seven digits in one row
			rows[i] = slices.Concat(
				ascendingRow(rng, 50, 1e3, 1e4), ascendingRow(rng, 100, 1e4, 1e5),
				ascendingRow(rng, 200, 1e5, 1e6), ascendingRow(rng, 400, 1e6, 1e7))
		case "tendigit":
			rows[i] = ascendingRow(rng, 830, 1e9, 1<<32-1)
		default:
			panic(shape)
		}
	}
	return rows
}

func countValues(rows [][]uint32) (n int) {
	for _, row := range rows {
		n += len(row)
	}
	return n
}

// reportPer restates the benchmark's time per op as ns per unit, for ops
// of count units.
func reportPer(b *testing.B, unit string, count int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(count), "ns/"+unit)
}

var benchSink int

func BenchmarkEncodeNeighbors(b *testing.B) {
	for _, shape := range []string{"hub", "short", "span", "tendigit"} {
		b.Run(shape, func(b *testing.B) {
			rows := benchRows(shape)
			nodes := make([]edgelist.NodeID, len(rows))
			for i := range nodes {
				nodes[i] = edgelist.NodeID(i * 4001)
			}
			values := countValues(rows)
			buf := make([]byte, 2+neighborItemMax*len(rows)+neighborMax*values+wireSlack)
			b.SetBytes(int64(encodeNeighbors(buf, nodes, rows)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink += encodeNeighbors(buf, nodes, rows)
			}
			reportPer(b, "value", values)
		})
	}
}

// benchProbes is the edge batch of one http-exists-skewed request.
func benchProbes() []edgelist.Edge {
	rng := rand.New(rand.NewSource(6))
	edges := make([]edgelist.Edge, 256)
	for i := range edges {
		edges[i] = edgelist.Edge{U: rng.Uint32() % (1 << 18), V: rng.Uint32() % (1 << 18)}
	}
	return edges
}

func BenchmarkEncodeExists(b *testing.B) {
	edges := benchProbes()
	exists := make([]bool, len(edges))
	for i := range exists {
		exists[i] = i%3 == 0
	}
	buf := make([]byte, 2+existsItemMax*len(edges)+wireSlack)
	b.SetBytes(int64(encodeExists(buf, edges, exists)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += encodeExists(buf, edges, exists)
	}
	reportPer(b, "item", len(edges))
}

func BenchmarkParseBatch(b *testing.B) {
	items := make([]string, 0, 256)
	for _, e := range benchProbes() {
		items = append(items, fmt.Sprintf("%d:%d", e.U, e.V))
	}
	rawQuery := "edges=" + strings.Join(items, ",")
	var dst []edgelist.Edge
	b.SetBytes(int64(len(rawQuery)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if dst, err = parseBatch(dst, rawQuery, &edgeGrammar, 1<<18); err != nil {
			b.Fatal(err)
		}
	}
	reportPer(b, "item", len(items))
}

// BenchmarkNeighborsWire is the measurement ROADMAP's one-engine item asks
// for: the text of 64 hub rows produced from the shard row table's shared
// decoded rows ("table") and from the packed form, each row decoded into
// one reused scratch slice and printed from there ("packed"). resident-B is
// what the form keeps in memory beyond the packed graph to answer that way:
// the decoded rows (the table's slots are not counted), or the scratch.
func BenchmarkNeighborsWire(b *testing.B) {
	const n, hubs, degree = 1 << 18, 64, 830
	rng := rand.New(rand.NewSource(8))
	var l edgelist.List
	nodes := make([]edgelist.NodeID, hubs)
	for i := range nodes {
		nodes[i] = edgelist.NodeID(i * 4001)
		for _, v := range ascendingRow(rng, degree, 0, n) {
			l = append(l, edgelist.Edge{U: nodes[i], V: v})
		}
	}
	l.SortByUV(1)
	pk := csr.BuildPacked(l, n, 1)
	buf := make([]byte, neighborMax*len(l)+wireSlack)

	b.Run("table", func(b *testing.B) {
		eng := shard.NewEngine(0, 0, pk, shard.EngineConfig{CacheBytes: 64 << 20, Procs: 1})
		eng.Neighbors(nodes) // admit the rows
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			at := 0
			for _, row := range eng.Neighbors(nodes) {
				at = putRow(buf, at, row)
			}
			benchSink += at
		}
		reportPer(b, "value", len(l))
		b.ReportMetric(float64(4*len(l)), "resident-B")
	})
	b.Run("packed", func(b *testing.B) {
		var scratch []uint32
		for i := 0; i < b.N; i++ {
			at := 0
			for _, u := range nodes {
				scratch = pk.Row(scratch[:0], u)
				at = putRow(buf, at, scratch)
			}
			benchSink += at
		}
		reportPer(b, "value", len(l))
		b.ReportMetric(float64(cap(scratch)*4), "resident-B")
	})
}
