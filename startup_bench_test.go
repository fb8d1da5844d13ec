// Startup benchmarks for the build-once/serve-many split the binary
// container enables:
//
//	BenchmarkStartup — time from "graph file on disk" to "first query
//	    answerable" on a 10M-edge graph. load=mmap maps the container and
//	    assembles zero-copy views (page-table setup plus the O(n) offsets
//	    validation); load=heap reads the same container into one heap copy
//	    through the verified reader (full-file read, section CRCs and the
//	    neighbor-range scan); load=rebuild sorts, dedups, and bit-packs
//	    from the raw edge list — what every server start cost before the
//	    container format existed.
//
// `make bench-startup` snapshots exactly these sub-benchmarks.
package csrgraph

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"csrgraph/internal/csr"
	"csrgraph/internal/edgelist"
	"csrgraph/internal/mgraph"
)

var (
	startupBenchOnce sync.Once
	startupBenchFile string // the container
	startupBenchList edgelist.List
	startupBenchErr  error
)

// startupBenchSetup builds the 10M-edge graph once and writes it as a
// container; the write happens off every measured clock.
func startupBenchSetup(b *testing.B) (string, edgelist.List) {
	b.Helper()
	inputs := sortBenchInputs(b)
	startupBenchOnce.Do(func() {
		src := inputs[fmt.Sprintf("dist=powerlaw/edges=%d", queryBenchEdges)]
		prepared := src.Prepared(false, 4)
		pk := csr.BuildPacked(prepared, prepared.NumNodes(), 4)
		// Not b.TempDir: the files must survive re-invocations of the
		// parent benchmark (the sync.Once build runs only once).
		dir, err := os.MkdirTemp("", "csrstartup-")
		if err != nil {
			startupBenchErr = err
			return
		}
		path := filepath.Join(dir, "g.csrc")
		if err := mgraph.WritePackedFile(path, pk); err != nil {
			startupBenchErr = err
			return
		}
		startupBenchFile, startupBenchList = path, src
	})
	if startupBenchErr != nil {
		b.Fatal(startupBenchErr)
	}
	return startupBenchFile, startupBenchList
}

// BenchmarkStartup is the acceptance benchmark for the mmap path: mapped
// container load versus verified heap load versus full rebuild, each
// proven live by answering one query before the iteration ends.
func BenchmarkStartup(b *testing.B) {
	path, src := startupBenchSetup(b)

	b.Run(fmt.Sprintf("edges=%d/load=mmap", queryBenchEdges), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m, err := mgraph.Open(path)
			if err != nil {
				b.Fatal(err)
			}
			if m.Packed().Degree(0) < 0 {
				b.Fatal("negative degree")
			}
			if err := m.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run(fmt.Sprintf("edges=%d/load=heap", queryBenchEdges), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c, err := mgraph.ReadFile(path)
			if err != nil {
				b.Fatal(err)
			}
			if c.Packed().Degree(0) < 0 {
				b.Fatal("negative degree")
			}
		}
	})

	b.Run(fmt.Sprintf("edges=%d/load=rebuild", queryBenchEdges), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			prepared := src.Prepared(false, 4)
			pk := csr.BuildPacked(prepared, prepared.NumNodes(), 4)
			if pk.Degree(0) < 0 {
				b.Fatal("negative degree")
			}
		}
	})
}
