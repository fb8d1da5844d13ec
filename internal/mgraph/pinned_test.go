package mgraph

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"csrgraph/internal/csr"
	"csrgraph/internal/edgelist"
	"csrgraph/internal/gen"
)

// pinnedContainers are the SHA-256 of WritePackedFile's output as the
// value-by-value packer (AppendBits per value, per-chunk arrays merged
// serially) of the commit before the block pack kernels wrote it. The
// packed layout is a file format: a faster packer must reproduce it to the
// byte, for every processor count.
var pinnedContainers = map[string]string{
	"figure1": "927c306c38549027deb7af7d134895c6f007b2f956881719674e00cd44689ef2",
	"rmat12":  "dbb7ba8d09a57259c4def37b97c78a6eca3b431d0b9522853fd62839ba9896f4",
}

func TestWritePackedFileBytesPinned(t *testing.T) {
	// The paper's Table I / Figure 1 example over an 11-node id space, so
	// node 10 is an empty row.
	figure1 := edgelist.List{
		{U: 0, V: 5}, {U: 1, V: 6}, {U: 1, V: 7}, {U: 2, V: 7}, {U: 3, V: 8},
		{U: 3, V: 9}, {U: 4, V: 9}, {U: 5, V: 0}, {U: 6, V: 1}, {U: 7, V: 1},
		{U: 7, V: 2}, {U: 8, V: 2}, {U: 8, V: 3}, {U: 9, V: 3},
	}
	rmat, err := gen.RMAT(12, 40000, gen.DefaultRMAT, 20260805, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		list  edgelist.List
		nodes int
	}{{"figure1", figure1, 11}, {"rmat12", rmat, 1 << 12}} {
		prepared := c.list.Prepared(false, 1)
		for _, p := range []int{1, 2, 3, 8} {
			path := filepath.Join(t.TempDir(), c.name+".csrc")
			if err := WritePackedFile(path, csr.BuildPacked(prepared, c.nodes, p)); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != pinnedContainers[c.name] {
				t.Errorf("%s p=%d: container hashes to %s, pinned %s", c.name, p, got, pinnedContainers[c.name])
			}
		}
	}
}
