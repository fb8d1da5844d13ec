package shard

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"csrgraph/internal/csr"
	"csrgraph/internal/mgraph"
)

// Manifest describes an offline-partitioned graph: the partition geometry
// plus one mgraph container file per shard. It is plain JSON so operators
// can inspect a cut with standard tools, and shard files are stored as
// paths relative to the manifest so the whole set moves as a directory.
type Manifest struct {
	Version  int             `json:"version"`
	Strategy string          `json:"strategy"` // always "range"
	Nodes    int             `json:"nodes"`
	Edges    int             `json:"edges"`
	Shards   []ManifestShard `json:"shards"`
}

// ManifestShard is one shard's entry: its container file and owned range.
type ManifestShard struct {
	File  string `json:"file"`
	Lo    uint32 `json:"lo"` // first owned global id
	Hi    uint32 `json:"hi"` // one past the last owned global id
	Nodes int    `json:"nodes"`
	Edges int    `json:"edges"`
}

// ManifestVersion is the current manifest schema version.
const ManifestVersion = 1

// manifestStrategy is the one cut a manifest describes: contiguous,
// edge-balanced vertex ranges. The field stays in the schema so every
// manifest written so far still loads.
const manifestStrategy = "range"

// IsManifestPath sniffs whether path is a shard manifest rather than a
// graph file: manifests are JSON objects, every graph format starts with a
// binary magic. Unreadable paths report false and let the graph loaders
// produce their own error.
func IsManifestPath(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close() //csr:errok read-only sniff
	var first [1]byte
	if _, err := f.Read(first[:]); err != nil {
		return false
	}
	return first[0] == '{'
}

// WriteShards packs every shard matrix and writes the per-shard containers
// next to manifestPath (named <stem>.s<k>.csrc) plus the manifest itself.
// Shards mmap independently afterwards: one shard's file can be rebuilt,
// re-verified, or remapped without touching its siblings.
func WriteShards(manifestPath string, shards []*csr.Matrix, part *Partition, procs int) (*Manifest, error) {
	if len(shards) != part.NumShards() {
		return nil, fmt.Errorf("shard: %d matrices for a %d-shard partition", len(shards), part.NumShards())
	}
	dir := filepath.Dir(manifestPath)
	stem := strings.TrimSuffix(filepath.Base(manifestPath), filepath.Ext(manifestPath))
	mf := &Manifest{
		Version:  ManifestVersion,
		Strategy: manifestStrategy,
		Nodes:    part.NumNodes(),
	}
	for s, m := range shards {
		lo, hi := part.Bounds(s)
		name := fmt.Sprintf("%s.s%d.csrc", stem, s)
		pk := csr.PackMatrix(m, procs)
		if err := mgraph.WritePackedFile(filepath.Join(dir, name), pk); err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		mf.Shards = append(mf.Shards, ManifestShard{
			File:  name,
			Lo:    lo,
			Hi:    hi,
			Nodes: m.NumNodes(),
			Edges: m.NumEdges(),
		})
		mf.Edges += m.NumEdges()
	}
	data, err := json.MarshalIndent(mf, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(manifestPath, append(data, '\n'), 0o644); err != nil {
		return nil, err
	}
	return mf, nil
}

// LoadManifest parses and validates a manifest file.
func LoadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var mf Manifest
	if err := json.Unmarshal(data, &mf); err != nil {
		return nil, fmt.Errorf("shard: bad manifest %s: %w", path, err)
	}
	if mf.Version != ManifestVersion {
		return nil, fmt.Errorf("shard: unsupported manifest version %d (want %d)", mf.Version, ManifestVersion)
	}
	if len(mf.Shards) == 0 {
		return nil, fmt.Errorf("shard: manifest %s lists no shards", path)
	}
	if _, err := mf.Partition(); err != nil {
		return nil, err
	}
	return &mf, nil
}

// Partition reconstructs the range partition the manifest was cut with.
func (mf *Manifest) Partition() (*Partition, error) {
	if mf.Strategy != manifestStrategy {
		return nil, fmt.Errorf("shard: manifest strategy %q is not supported (want %q)", mf.Strategy, manifestStrategy)
	}
	bounds := make([]uint32, len(mf.Shards)+1)
	for s, sh := range mf.Shards {
		bounds[s] = sh.Lo
		bounds[s+1] = sh.Hi
		if s > 0 && sh.Lo != mf.Shards[s-1].Hi {
			return nil, fmt.Errorf("shard: manifest ranges not contiguous at shard %d", s)
		}
	}
	if int(bounds[len(bounds)-1]) != mf.Nodes {
		return nil, fmt.Errorf("shard: manifest ranges end at %d, want %d nodes", bounds[len(bounds)-1], mf.Nodes)
	}
	return Range(bounds)
}

// OpenShards maps every shard container listed in the manifest (paths
// resolved relative to manifestPath) and returns the mappings in shard
// order. verify adds the per-section CRC and neighbor-range pass per shard.
// On any failure the already-opened mappings are closed.
func OpenShards(manifestPath string, mf *Manifest, verify bool) ([]*mgraph.Mapped, error) {
	dir := filepath.Dir(manifestPath)
	var opts []mgraph.OpenOption
	if verify {
		// Shard rows hold GLOBAL neighbor ids, so the neighbor-range scan
		// must run against the whole graph's node space.
		opts = append(opts, mgraph.WithVerify(), mgraph.WithNodeSpace(mf.Nodes))
	}
	maps := make([]*mgraph.Mapped, 0, len(mf.Shards))
	// fail unwinds every mapping opened so far; the triggering error wins.
	fail := func(err error) ([]*mgraph.Mapped, error) {
		for _, prev := range maps {
			prev.Close() //csr:errok unwinding a failed multi-open; the first error wins
		}
		return nil, err
	}
	for s, sh := range mf.Shards {
		m, err := mgraph.Open(filepath.Join(dir, sh.File), opts...)
		if err != nil {
			return fail(fmt.Errorf("shard %d (%s): %w", s, sh.File, err))
		}
		maps = append(maps, m)
		if m.GraphForm() != mgraph.FormPacked {
			return fail(fmt.Errorf("shard %d (%s): %s container, want packed", s, sh.File, m.GraphForm()))
		}
		if got, want := m.Packed().NumNodes(), sh.Nodes; got != want {
			return fail(fmt.Errorf("shard %d (%s): container has %d nodes, manifest says %d", s, sh.File, got, want))
		}
	}
	return maps, nil
}
