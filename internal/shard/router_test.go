package shard

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"csrgraph/internal/algo"
	"csrgraph/internal/csr"
	"csrgraph/internal/edgelist"
	"csrgraph/internal/query"
)

// buildRouter partitions m into k edge-balanced shards with r replicas each
// and the given per-engine cache budget.
func buildRouter(t *testing.T, m *csr.Matrix, k, replicas int, cacheBytes int64) *Router {
	t.Helper()
	part, pks, err := PartitionSource(csr.PackMatrix(m, 1), k, 2)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([][]*Engine, k)
	for s, pk := range pks {
		engines[s] = NewReplicas(s, replicas, pk, EngineConfig{CacheBytes: cacheBytes})
	}
	rt, err := NewRouter(part, engines, RouterConfig{MaxLeg: 64})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// testProbes builds hub-skewed existence probes (half true edges, half
// random) plus the reference answers from the unsharded engine.
func testProbes(t *testing.T, m *csr.Matrix, count int, seed int64) ([]edgelist.Edge, []bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := uint32(m.NumNodes())
	probes := make([]edgelist.Edge, count)
	for i := range probes {
		u := rng.Uint32() % n
		if deg := m.Degree(u); deg > 0 && i%2 == 0 {
			probes[i] = edgelist.Edge{U: u, V: m.Neighbors(u)[rng.Intn(deg)]}
		} else {
			probes[i] = edgelist.Edge{U: u, V: rng.Uint32() % n}
		}
	}
	return probes, query.EdgesExistBatch(csr.PackMatrix(m, 1), probes, 1)
}

// TestRouterDifferential pins the sharded answers to the unsharded engine
// across shard counts, for every routed operation.
func TestRouterDifferential(t *testing.T) {
	m := testMatrix(t, 400, 6000, 10)
	pk := csr.PackMatrix(m, 1)
	rng := rand.New(rand.NewSource(11))
	ids := make([]edgelist.NodeID, 700)
	for i := range ids {
		ids[i] = rng.Uint32() % uint32(m.NumNodes())
	}
	probes, wantExists := testProbes(t, m, 900, 12)
	wantRows := query.NeighborsBatch(pk, ids, 1)
	wantDeg := query.CountBatch(pk, ids, 1)
	wantDist := algo.BFS(pk, 3, 1)

	for _, k := range []int{1, 2, 4, 8} {
		for _, replicas := range []int{1, 2} {
			rt := buildRouter(t, m, k, replicas, 1<<20)
			gotRows, err := rt.NeighborsBatch(ids)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotRows, wantRows) {
				t.Fatalf("k=%d r=%d: NeighborsBatch differs", k, replicas)
			}
			gotDeg, err := rt.DegreeBatch(ids)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotDeg, wantDeg) {
				t.Fatalf("k=%d r=%d: DegreeBatch differs", k, replicas)
			}
			gotExists, err := rt.EdgesExistBatch(probes)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotExists, wantExists) {
				t.Fatalf("k=%d r=%d: EdgesExistBatch differs", k, replicas)
			}
			gotDist, rounds, err := rt.BFS(3)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotDist, wantDist) {
				t.Fatalf("k=%d r=%d: BFS distances differ", k, replicas)
			}
			if rounds < 1 {
				t.Fatalf("k=%d r=%d: BFS took %d rounds", k, replicas, rounds)
			}
			// Run the warm pass too: cached rows must not change answers.
			gotExists, err = rt.EdgesExistBatch(probes)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotExists, wantExists) {
				t.Fatalf("k=%d r=%d: warm EdgesExistBatch differs", k, replicas)
			}
		}
	}
}

// TestEdgesExistAdmitsNoRows pins existence to the packed rows: an
// existence-only batch leaves the row tables empty, on one engine and
// through the router, and the answers are the same with and without a
// table budget at every shard count.
func TestEdgesExistAdmitsNoRows(t *testing.T) {
	m := testMatrix(t, 400, 6000, 10)
	probes, _ := testProbes(t, m, 900, 12)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 300; i++ { // the hub rows, each past a cache line of bits
		u := rng.Uint32() % 9
		probes = append(probes, edgelist.Edge{U: u, V: rng.Uint32() % 400})
		if row := m.Neighbors(u); len(row) > 0 {
			probes = append(probes, edgelist.Edge{U: u, V: row[rng.Intn(len(row))]})
		}
	}
	want := query.EdgesExistBatch(m, probes, 1)

	const budget = 64 << 20
	e := NewEngine(0, 0, csr.PackMatrix(m, 1), EngineConfig{CacheBytes: budget})
	if got := e.EdgesExist(probes); !reflect.DeepEqual(got, want) {
		t.Fatal("engine EdgesExist differs from the baseline")
	}
	if st := e.CacheStats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("engine row table after existence only: %+v", st)
	}
	for _, k := range []int{1, 2, 4, 8} {
		for _, cache := range []int64{0, budget} {
			rt := buildRouter(t, m, k, 1, cache)
			got, err := rt.EdgesExistBatch(probes)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("k=%d cache=%d: EdgesExistBatch differs", k, cache)
			}
			for s := 0; s < rt.NumShards(); s++ {
				for _, e := range rt.Replicas(s) {
					if st := e.CacheStats(); st.Entries != 0 || st.Bytes != 0 {
						t.Fatalf("k=%d cache=%d shard %d: row table after existence only: %+v", k, cache, s, st)
					}
				}
			}
		}
	}
}

// slowSource delays every row decode — the adversarial-latency shard.
type slowSource struct {
	query.Source
	delay time.Duration
}

func (s slowSource) Row(dst []uint32, u edgelist.NodeID) []uint32 {
	time.Sleep(s.delay)
	return s.Source.Row(dst, u)
}

func (s slowSource) Degree(u edgelist.NodeID) int {
	time.Sleep(s.delay)
	return s.Source.Degree(u)
}

// TestRouterOrderingUnderSlowShard injects latency into one shard and
// checks the merged output still lands at the original indices: fast
// shards' legs complete and merge first, but ordering is positional, not
// completion-order.
func TestRouterOrderingUnderSlowShard(t *testing.T) {
	m := testMatrix(t, 200, 3000, 13)
	part, pks, err := PartitionSource(csr.PackMatrix(m, 1), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([][]*Engine, 4)
	for s, pk := range pks {
		var src query.Source = pk
		if s == 1 {
			src = slowSource{Source: pk, delay: 200 * time.Microsecond}
		}
		engines[s] = []*Engine{NewEngine(s, 0, src, EngineConfig{})}
	}
	// Legs of 300: above legHandoff, so every shard's first leg runs on a
	// goroutine of its own beside the caller's.
	rt, err := NewRouter(part, engines, RouterConfig{MaxLeg: 300})
	if err != nil {
		t.Fatal(err)
	}

	refPk := csr.PackMatrix(m, 1)
	rng := rand.New(rand.NewSource(14))
	// Interleave ids so every leg's results land scattered through the
	// output, with plenty aimed at the slow shard.
	ids := make([]edgelist.NodeID, 1600)
	for i := range ids {
		ids[i] = rng.Uint32() % uint32(m.NumNodes())
	}
	got, err := rt.NeighborsBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	if want := query.NeighborsBatch(refPk, ids, 1); !reflect.DeepEqual(got, want) {
		t.Fatal("slow shard broke merge ordering for NeighborsBatch")
	}
	probes, wantExists := testProbes(t, m, 1600, 15)
	gotExists, err := rt.EdgesExistBatch(probes)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotExists, wantExists) {
		t.Fatal("slow shard broke merge ordering for EdgesExistBatch")
	}
}

// TestRouterLegHandoff routes batches whose legs fall on both sides of
// legHandoff — two shards drawing several large legs each, two drawing a
// handful of items — so one request runs small legs on the caller, large
// ones on goroutines, and the last large one on the caller again. Under
// -race this is the test that watches the mixed merge.
func TestRouterLegHandoff(t *testing.T) {
	m := testMatrix(t, 400, 6000, 19)
	pk := csr.PackMatrix(m, 1)
	rt := buildRouter(t, m, 4, 2, 1<<20)
	rt.cfg.MaxLeg = 2 * legHandoff
	rng := rand.New(rand.NewSource(20))
	ids := make([]edgelist.NodeID, 0, 3000)
	for s, count := range []int{1400, 7, 1200, 3} {
		lo, hi := rt.Partition().Bounds(s)
		for i := 0; i < count; i++ {
			ids = append(ids, lo+rng.Uint32()%(hi-lo))
		}
	}
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	probes := make([]edgelist.Edge, len(ids))
	for i, u := range ids {
		probes[i] = edgelist.Edge{U: u, V: rng.Uint32() % uint32(m.NumNodes())}
	}
	large := 0
	sc := rt.getScratch()
	if err := rt.groupIDs(ids, sc); err != nil {
		t.Fatal(err)
	}
	legs := len(rt.makeLegs(sc))
	for _, l := range sc.legs {
		if l.large() {
			large++
		}
	}
	rt.putScratch(sc)
	if large < 3 || large == legs {
		t.Fatalf("%d large legs of %d: the batch does not mix both kinds", large, legs)
	}
	for pass := 0; pass < 3; pass++ {
		rows, err := rt.NeighborsBatch(ids)
		if err != nil || !reflect.DeepEqual(rows, query.NeighborsBatch(pk, ids, 1)) {
			t.Fatalf("pass %d: NeighborsBatch differs (%v)", pass, err)
		}
		degs, err := rt.DegreeBatch(ids)
		if err != nil || !reflect.DeepEqual(degs, query.CountBatch(pk, ids, 1)) {
			t.Fatalf("pass %d: DegreeBatch differs (%v)", pass, err)
		}
		exists, err := rt.EdgesExistBatch(probes)
		if err != nil || !reflect.DeepEqual(exists, query.EdgesExistBatch(pk, probes, 1)) {
			t.Fatalf("pass %d: EdgesExistBatch differs (%v)", pass, err)
		}
	}
}

// TestRouterEmptyShard routes over a partition with an empty middle shard.
func TestRouterEmptyShard(t *testing.T) {
	m := testMatrix(t, 100, 1500, 16)
	part, err := Range([]uint32{0, 40, 40, 100})
	if err != nil {
		t.Fatal(err)
	}
	pk := csr.PackMatrix(m, 1)
	ms, err := SplitSource(pk, part, 1)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([][]*Engine, len(ms))
	for s, sm := range ms {
		engines[s] = []*Engine{NewEngine(s, 0, csr.PackMatrix(sm, 1), EngineConfig{})}
	}
	rt, err := NewRouter(part, engines, RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]edgelist.NodeID, m.NumNodes())
	for i := range ids {
		ids[i] = uint32(i)
	}
	got, err := rt.NeighborsBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	if want := query.NeighborsBatch(pk, ids, 1); !reflect.DeepEqual(got, want) {
		t.Fatal("empty shard broke NeighborsBatch")
	}
	dist, _, err := rt.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	if want := algo.BFS(pk, 0, 1); !reflect.DeepEqual(dist, want) {
		t.Fatal("empty shard broke BFS")
	}
}

// TestRouterSingleShardBatch sends a batch that lands entirely in one
// shard: exactly the legs for that shard run (inline when just one), and
// answers still match.
func TestRouterSingleShardBatch(t *testing.T) {
	m := testMatrix(t, 200, 3000, 17)
	rt := buildRouter(t, m, 4, 1, 0)
	lo, hi := rt.Partition().Bounds(2)
	var ids []edgelist.NodeID
	for u := lo; u < hi && len(ids) < 50; u++ {
		ids = append(ids, u)
	}
	got, err := rt.NeighborsBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	if want := query.NeighborsBatch(csr.PackMatrix(m, 1), ids, 1); !reflect.DeepEqual(got, want) {
		t.Fatal("single-shard batch differs")
	}
}

// TestRouterOutOfRange pins the error contract: any id outside [0, n)
// fails the whole batch before any leg runs.
func TestRouterOutOfRange(t *testing.T) {
	m := testMatrix(t, 100, 1000, 18)
	rt := buildRouter(t, m, 2, 1, 0)
	n := uint32(m.NumNodes())
	if _, err := rt.NeighborsBatch([]edgelist.NodeID{0, n}); err == nil {
		t.Fatal("NeighborsBatch accepted out-of-range id")
	}
	if _, err := rt.DegreeBatch([]edgelist.NodeID{n + 5}); err == nil {
		t.Fatal("DegreeBatch accepted out-of-range id")
	}
	if _, err := rt.EdgesExistBatch([]edgelist.Edge{{U: n, V: 0}}); err == nil {
		t.Fatal("EdgesExistBatch accepted out-of-range U")
	}
	if _, err := rt.EdgesExistBatch([]edgelist.Edge{{U: 0, V: n}}); err == nil {
		t.Fatal("EdgesExistBatch accepted out-of-range V")
	}
	if _, _, err := rt.BFS(n); err == nil {
		t.Fatal("BFS accepted out-of-range source")
	}
	if _, err := rt.BFSBatch([]edgelist.NodeID{0, n}); err == nil {
		t.Fatal("BFSBatch accepted out-of-range source")
	}
}

// TestRouterEmptyBatch: zero-length batches return empty results, no error.
func TestRouterEmptyBatch(t *testing.T) {
	m := testMatrix(t, 50, 400, 19)
	rt := buildRouter(t, m, 2, 1, 0)
	if rows, err := rt.NeighborsBatch(nil); err != nil || len(rows) != 0 {
		t.Fatalf("empty NeighborsBatch: %v, %d rows", err, len(rows))
	}
	if ok, err := rt.EdgesExistBatch(nil); err != nil || len(ok) != 0 {
		t.Fatalf("empty EdgesExistBatch: %v, %d answers", err, len(ok))
	}
}

// TestRouterBFSBatch checks the batch wrapper preserves order.
func TestRouterBFSBatch(t *testing.T) {
	m := testMatrix(t, 150, 2000, 20)
	rt := buildRouter(t, m, 4, 1, 0)
	pk := csr.PackMatrix(m, 1)
	srcs := []edgelist.NodeID{0, 7, 149}
	got, err := rt.BFSBatch(srcs)
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range srcs {
		if want := algo.BFS(pk, src, 1); !reflect.DeepEqual(got[i], want) {
			t.Fatalf("BFSBatch[%d] (src %d) differs", i, src)
		}
	}
}

// TestRouterModStrategy runs the differential through a mod partition —
// strided ownership instead of ranges.
func TestRouterModStrategy(t *testing.T) {
	m := testMatrix(t, 300, 4000, 21)
	pk := csr.PackMatrix(m, 1)
	part, err := Mod(m.NumNodes(), 4)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := SplitSource(pk, part, 1)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([][]*Engine, len(ms))
	for s, sm := range ms {
		engines[s] = []*Engine{NewEngine(s, 0, csr.PackMatrix(sm, 1), EngineConfig{CacheBytes: 1 << 18})}
	}
	rt, err := NewRouter(part, engines, RouterConfig{MaxLeg: 32})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	ids := make([]edgelist.NodeID, 400)
	for i := range ids {
		ids[i] = rng.Uint32() % uint32(m.NumNodes())
	}
	got, err := rt.NeighborsBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	if want := query.NeighborsBatch(pk, ids, 1); !reflect.DeepEqual(got, want) {
		t.Fatal("mod partition broke NeighborsBatch")
	}
	dist, _, err := rt.BFS(5)
	if err != nil {
		t.Fatal(err)
	}
	if want := algo.BFS(pk, 5, 1); !reflect.DeepEqual(dist, want) {
		t.Fatal("mod partition broke BFS")
	}
}

// TestReplicaSpread checks multi-replica shards actually spread legs: with
// round-robin tiebreak over equal loads, both replicas must see traffic.
func TestReplicaSpread(t *testing.T) {
	m := testMatrix(t, 200, 3000, 23)
	rt := buildRouter(t, m, 2, 2, 1<<18)
	rng := rand.New(rand.NewSource(24))
	for round := 0; round < 20; round++ {
		ids := make([]edgelist.NodeID, 300)
		for i := range ids {
			ids[i] = rng.Uint32() % uint32(m.NumNodes())
		}
		if _, err := rt.NeighborsBatch(ids); err != nil {
			t.Fatal(err)
		}
	}
	for s := 0; s < rt.NumShards(); s++ {
		for _, e := range rt.Replicas(s) {
			if e.CacheStats().Misses == 0 {
				t.Errorf("shard %d replica %d never saw traffic", s, e.Replica())
			}
		}
	}
}

// TestNewRouterValidation pins the constructor's shape checks.
func TestNewRouterValidation(t *testing.T) {
	m := testMatrix(t, 100, 1000, 25)
	part, pks, err := PartitionSource(csr.PackMatrix(m, 1), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewRouter(part, [][]*Engine{{NewEngine(0, 0, pks[0], EngineConfig{})}}, RouterConfig{}); err == nil {
		t.Fatal("wrong shard count accepted")
	}
	if _, err := NewRouter(part, [][]*Engine{{NewEngine(0, 0, pks[0], EngineConfig{})}, {}}, RouterConfig{}); err == nil {
		t.Fatal("empty replica set accepted")
	}
	if _, err := NewRouter(part, [][]*Engine{
		{NewEngine(0, 0, pks[0], EngineConfig{})},
		{NewEngine(1, 0, pks[0], EngineConfig{})}, // wrong shard's rows
	}, RouterConfig{}); err == nil && part.ShardNodes(0) != part.ShardNodes(1) {
		t.Fatal("row-count mismatch accepted")
	}
}

// BenchmarkLegHandoff measures both sides of legHandoff. "inline" and
// "handoff" run the same two empty legs, the second either on the caller or
// on a goroutine it then waits for: the difference is what a hand-off
// costs. "probe" is one warm existence probe on an engine, the work a
// hand-off has to be set against.
func BenchmarkLegHandoff(b *testing.B) {
	m := testMatrix(b, 4000, 120000, 21)
	part, pks, err := PartitionSource(csr.PackMatrix(m, 1), 2, 1)
	if err != nil {
		b.Fatal(err)
	}
	engines := make([][]*Engine, 2)
	for s, pk := range pks {
		engines[s] = NewReplicas(s, 1, pk, EngineConfig{CacheBytes: 32 << 20})
	}
	rt, err := NewRouter(part, engines, RouterConfig{})
	if err != nil {
		b.Fatal(err)
	}
	legs := []leg{{st: rt.shards[0], shard: 0, hi: 1}, {st: rt.shards[1], shard: 1, hi: 1}}
	exec := func(leg) {}
	b.Run("inline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runInline(legs, -1, nil, exec)
		}
	})
	b.Run("handoff", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				runLeg(legs[0], nil, exec)
			}()
			runLeg(legs[1], nil, exec)
			wg.Wait()
		}
	})
	b.Run("probe", func(b *testing.B) {
		lo, hi := part.Bounds(0)
		rng := rand.New(rand.NewSource(22))
		probes := make([]edgelist.Edge, 256)
		for i := range probes {
			probes[i] = edgelist.Edge{U: rng.Uint32() % (hi - lo), V: rng.Uint32() % uint32(m.NumNodes())}
		}
		e := engines[0][0]
		e.EdgesExist(probes) // fill the row table
		b.ResetTimer()
		for i := 0; i < b.N; i += len(probes) {
			e.EdgesExist(probes)
		}
	})
}
