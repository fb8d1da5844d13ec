# csrgraph development targets. Everything is plain `go` underneath; the
# Makefile just names the common invocations.

GO ?= go

# Benchmark time per sub-benchmark for the bench-json snapshot; raise for
# lower-variance trajectory points.
BENCHTIME ?= 100ms

.PHONY: all build build-cross generate generate-check test test-race race vet fmt fmt-check lint lint-timing lint-json bench-test bench bench-quick bench-json bench-obs bench-algo bench-trace bench-compare bench-compare-query bench-compare-shard bench-startup bench-shard fuzz fuzz-smoke experiments clean

all: build generate-check vet lint test test-race bench-test

build:
	$(GO) build ./...

# Cross-compile check for the platform-split mmap code: the unix mapping
# path (linux, darwin) and the heap-copy fallback (windows) must all build.
build-cross:
	GOOS=linux $(GO) build ./...
	GOOS=darwin $(GO) build ./...
	GOOS=windows $(GO) build ./...

# Rewrite the generated width kernels of internal/bitarray (gen_kernels.go).
generate:
	$(GO) generate ./internal/bitarray

# Fail when the committed kernels are not what the generator emits:
# regenerate into a temporary directory and diff.
generate-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
		$(GO) run internal/bitarray/gen_kernels.go -dir "$$tmp" && \
		for f in "$$tmp"/*.go; do \
			diff -u internal/bitarray/$$(basename $$f) $$f || { \
				echo "generated kernels drifted: run 'make generate'"; exit 1; }; \
		done

test:
	$(GO) test ./...

# Race-detect the concurrency hot spots on every verify pass: the parallel
# worker pool and the Algorithm 1-3 scan and degree count that run on it,
# the batched query dispatch, Pack's processors writing word-aligned chunks
# of one shared array, the radix sort's chunked histogram/scatter passes,
# and the parallel construction/stream paths behind csr and tcsr are
# exactly the code the detector should be watching. `race` below covers the
# whole tree but is too slow for the default loop.
test-race:
	$(GO) test -race ./internal/parallel/... ./internal/query/... ./internal/bitpack/... ./internal/radix/... ./internal/edgelist/... ./internal/obs/... ./internal/server/... ./internal/tcsr/... ./internal/csr/... ./internal/stream/... ./internal/mgraph/... ./internal/frontier/... ./internal/algo/... ./internal/shard/... ./internal/trace/... ./internal/prefixsum/... ./internal/degree/...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

# Fail (listing the files) when anything is not gofmt-clean; lint and CI
# both gate on this.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Project-specific static analysis (DESIGN.md §11): the csrlint analyzer
# suite enforcing hot-path allocation-freedom, metric naming, parallel-for
# closure hygiene, atomic access consistency, and error propagation. The
# suite's own fixture tests run first so a broken analyzer can't silently
# pass the tree.
lint: fmt-check
	$(GO) test ./lint/...
	$(GO) run ./lint/cmd/csrlint ./...

# Same suite with per-analyzer wall-time and finding-count accounting, for
# spotting an analyzer whose cost regressed.
lint-timing:
	$(GO) run ./lint/cmd/csrlint -timing ./...

# Machine-readable lint report (findings + per-analyzer timing); CI
# uploads this next to the benchmark snapshots.
lint-json:
	$(GO) run ./lint/cmd/csrlint -json ./... > csrlint.json || test -s csrlint.json

# The benchmark is a module of its own (bench/go.mod), so the root
# module's build, vet and test never compile it. This target does: csrload's
# layers.go calls into internal/server, internal/shard and internal/query,
# and a signature it uses must not move without this failing.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Full benchmark run (same command EXPERIMENTS.md references).
bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark, for a fast sanity pass.
bench-quick:
	$(GO) test -bench=. -benchtime=1x ./...

# Snapshot the tier-1 benchmark suite (root package: Table II, Fig 6/7,
# query throughput, ablations) as BENCH_<date>.json — one file per run, the
# perf trajectory this repo accumulates. cmd/benchjson filters the -json
# event stream down to benchmark results with all metrics.
bench-json:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) -json . \
		| $(GO) run ./cmd/benchjson > BENCH_$$(date +%Y-%m-%d)$(BENCH_SUFFIX).json

# Observability overhead snapshot: the metric-core microbenchmarks plus
# the query acceptance benchmarks under obs=off|on, appended to the same
# BENCH_<date>.json trajectory as bench-json. The obs=on variants gate the
# <5% overhead budget; pair them with `go run ./cmd/benchcompare -key obs
# -baseline off -new on`.
bench-obs:
	$(GO) test -run '^$$' -bench Obs -benchmem -benchtime $(BENCHTIME) -json . ./internal/obs \
		| $(GO) run ./cmd/benchjson > BENCH_$$(date +%Y-%m-%d)$(BENCH_SUFFIX).json

# Traversal-analytics snapshot: the frontier core's BFS (sparse↔dense
# switching) and level-peel k-core at 10M edges, appended to the
# BENCH_<date>.json trajectory. Compare two snapshots with
# `go run ./cmd/benchcompare -filter 'BFSFrontier|KCore' old.json new.json`.
bench-algo:
	$(GO) test -run '^$$' -bench 'BenchmarkBFSFrontier|BenchmarkKCore' -benchmem -benchtime $(BENCHTIME) -json . \
		| $(GO) run ./cmd/benchjson > BENCH_$$(date +%Y-%m-%d)$(BENCH_SUFFIX).json

# Tracing overhead snapshot: the recorder microbenchmarks plus the 8-shard
# existence-probe acceptance benchmark under trace=off|sampled|always,
# appended to the BENCH_<date>.json trajectory like bench-json. The sampled
# variant gates the <=5% overhead budget at the production 1/256 rate; pair
# with `go run ./cmd/benchcompare -key trace -baseline off -new sampled`.
bench-trace:
	$(GO) test -run '^$$' -bench 'BenchmarkTrace|BenchmarkRecorder' -benchmem -benchtime $(BENCHTIME) -json . ./internal/trace \
		| $(GO) run ./cmd/benchjson > BENCH_$$(date +%Y-%m-%d)$(BENCH_SUFFIX).json

# Radix-vs-merge construction-sort delta table: runs BenchmarkSortByUV's
# algo= variants and pairs them through cmd/benchcompare.
bench-compare:
	$(GO) test -run '^$$' -bench BenchmarkSortByUV -benchtime $(BENCHTIME) . \
		| $(GO) run ./cmd/benchcompare

# Query-engine delta table: zero-decode search vs the linear baseline
# (algo= variants of BenchmarkEdgesExistBatch).
bench-compare-query:
	$(GO) test -run '^$$' -bench 'BenchmarkEdgesExistBatch' \
		-benchtime $(BENCHTIME) . \
		| $(GO) run ./cmd/benchcompare -baseline linear -new search

# Sharded serving-tier snapshot: the scatter-gather router's aggregate
# batch throughput across shard counts (shards=1|2|4|8) against the
# single-engine baseline (shards=single), appended to the BENCH_<date>.json
# trajectory like bench-json. Each K is cut the way csrconvert -partition
# cuts offline (CutByEdges, Split, one packed container per shard). The
# powerlaw EdgesExistBatch pairing is the tier's acceptance number
# (DESIGN.md §14).
bench-shard:
	$(GO) test -run '^$$' -bench 'BenchmarkShardEdgesExistBatch|BenchmarkShardNeighborsBatch' \
		-benchmem -benchtime $(BENCHTIME) -json . \
		| $(GO) run ./cmd/benchjson > BENCH_$$(date +%Y-%m-%d)$(BENCH_SUFFIX).json

# Sharded-vs-single delta tables: pairs the shards= variants of the
# serving-tier suites (single-engine baseline vs the router over the
# offline 8-shard cut).
bench-compare-shard:
	$(GO) test -run '^$$' -bench 'BenchmarkShardEdgesExistBatch|BenchmarkShardNeighborsBatch' \
		-benchtime $(BENCHTIME) . \
		| $(GO) run ./cmd/benchcompare -key shards -baseline single -new 8

# Cold-start delta table: mmap-backed container load vs verified heap read
# of the same container vs full rebuild at 10M edges, appended to the BENCH_<date>.json
# trajectory like bench-json. Startup iterations are seconds-long, so the
# benchtime is an iteration count.
bench-startup:
	$(GO) test -run '^$$' -bench BenchmarkStartup -benchmem -benchtime 5x -json . \
		| $(GO) run ./cmd/benchjson > BENCH_$$(date +%Y-%m-%d)$(BENCH_SUFFIX).json

# Short fuzzing pass over every fuzz target.
FUZZTIME ?= 15s
fuzz:
	$(GO) test -fuzz FuzzRadixSort -fuzztime $(FUZZTIME) ./internal/radix/
	$(GO) test -fuzz FuzzUnpackKernels -fuzztime $(FUZZTIME) ./internal/bitarray/
	$(GO) test -fuzz FuzzReadText -fuzztime $(FUZZTIME) ./internal/edgelist/
	$(GO) test -fuzz FuzzReadBinary -fuzztime $(FUZZTIME) ./internal/edgelist/
	$(GO) test -fuzz FuzzReadTemporalText -fuzztime $(FUZZTIME) ./internal/edgelist/
	$(GO) test -fuzz FuzzDecodeVarint -fuzztime $(FUZZTIME) ./internal/bitpack/
	$(GO) test -fuzz FuzzDecodeEliasGamma -fuzztime $(FUZZTIME) ./internal/bitpack/
	$(GO) test -fuzz FuzzSearchBatch -fuzztime $(FUZZTIME) ./internal/csr/
	$(GO) test -fuzz FuzzParseContainer -fuzztime $(FUZZTIME) ./internal/mgraph/
	$(GO) test -fuzz FuzzEdgeMap -fuzztime $(FUZZTIME) ./internal/frontier/
	$(GO) test -fuzz FuzzCoreNumbers -fuzztime $(FUZZTIME) ./internal/algo/
	$(GO) test -fuzz FuzzTriangles -fuzztime $(FUZZTIME) ./internal/algo/
	$(GO) test -fuzz FuzzParseBatch -fuzztime $(FUZZTIME) ./internal/server/
	$(GO) test -fuzz FuzzPutRow -fuzztime $(FUZZTIME) ./internal/server/

# CI's bounded fuzz gate: every target for 10s.
fuzz-smoke:
	$(MAKE) fuzz FUZZTIME=10s

# Regenerate the paper artifacts (Table II, Figures 6-7, CSV, SVG, the
# Section V query table and the Section IV numbers). Construction is timed
# over the host's processor sweep: 1, doubling, up to GOMAXPROCS.
experiments:
	$(GO) run ./cmd/csrbench -experiment all -scale 64 -reps 9 \
		-csv results_scale64.csv -svg .
	$(GO) run ./cmd/csrbench -experiment queries -graph LiveJournal -scale 64 -reps 9
	$(GO) run ./cmd/tcsrbench -nodes 20000 -base 100000 -churn 2000 \
		-frames 50 -compare

clean:
	$(GO) clean ./...
	rm -f results_scale64.csv fig6.svg fig7.svg test_output.txt bench_output.txt
