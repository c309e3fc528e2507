GO ?= go

.PHONY: build test vet lint-imports race bench bench-json bench-e2e bench-compare smoke-service verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# Backend encapsulation gate: the raw octree is an implementation detail
# behind core.Backend/core.Snapshot. Only internal/core and the octree
# package itself may import it in non-test code; everything else goes
# through the backend-neutral surface. Tests anywhere may reach in.
# Same rule for the durable store (WAL + snapshots + spill frames): it
# serves the window and durability policies in internal/core (and the
# stores it evicts from), not general file I/O.
lint-imports:
	@bad=$$(grep -rl '"octocache/internal/octree"' --include='*.go' . \
		| grep -v '_test\.go$$' \
		| grep -v '^\./internal/core/' \
		| grep -v '^\./internal/octree/' || true); \
	if [ -n "$$bad" ]; then \
		echo "internal/octree imported outside internal/core in:"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rl '"octocache/internal/durable"' --include='*.go' . \
		| grep -v '_test\.go$$' \
		| grep -v '^\./internal/core/' \
		| grep -v '^\./internal/octree/' \
		| grep -v '^\./internal/vdbgrid/' \
		| grep -v '^\./internal/durable/' || true); \
	if [ -n "$$bad" ]; then \
		echo "internal/durable imported outside internal/core and the backends in:"; \
		echo "$$bad"; exit 1; \
	fi
	@bad=$$(grep -rl '"octocache/internal/wire"' --include='*.go' . \
		| grep -v '^\./server/' \
		| grep -v '^\./client/' \
		| grep -v '^\./internal/wire/' || true); \
	if [ -n "$$bad" ]; then \
		echo "internal/wire imported outside server and client in:"; \
		echo "$$bad"; exit 1; \
	fi

# The concurrency gate, one line per row. nav, trace and wire rows run
# -count=2: their output is deterministic by construction, so a second-
# run divergence is a real race, never host load.
#
# gate          packages                          why
# ------------  --------------------------------  ---------------------------------------
# router+engine shard, core                       >= 4 producers vs live queriers; async
#                                                 applier hand-off under a tiny ring
# determinism   nav, clock, spsc (x2)             virtual-clock missions must repeat
# compaction    -run Compact: octree, core,       arena rebuild racing inserts, queries
#               shard, root (x2)                  and Close at every layer
# grid backend  vdbgrid; root -run Backend|...    brick grid under the async applier;
#                                                 backend x mode x shards matrix
# durable store durable                           crash / truncation / rewrite suite
# window        -run Window|Recenter: core, root  eviction racing the async applier
# durability    -run Durable|Recover: core, root  WAL + snapshot crash matrix, background
#                                                 snapshot writers racing inserts,
#                                                 constructor-failure unwinding
# trace modes   -run Trace|Boundary|Fan:          parallel marking into shared bit planes,
#               raytrace, core, root (x2)         fan tracer workers, map-level matrix
# network       wire, server, client (x2)         e2e producers + queriers + snapshot
#                                                 download must match WriteTo bit for bit
race:
	$(GO) test -race ./internal/shard/... ./internal/core/...
	$(GO) test -race -count=2 ./internal/nav/... ./internal/clock/... ./internal/spsc/...
	$(GO) test -race -count=2 -run Compact ./internal/octree/... ./internal/core/... ./internal/shard/... .
	$(GO) test -race ./internal/vdbgrid/...
	$(GO) test -race -run 'Backend|OpenAcrossBackends|SnapshotAndWalkLeaves' .
	$(GO) test -race ./internal/durable/...
	$(GO) test -race -run 'Window|Recenter' ./internal/core/... .
	$(GO) test -race -run 'Durable|Recover' ./internal/core/... .
	$(GO) test -race -count=2 -run 'Trace|Boundary|Fan' ./internal/raytrace/... ./internal/core/... .
	$(GO) test -race -count=2 ./internal/wire/... ./server/... ./client/...

bench:
	$(GO) test -bench . -benchtime 1x ./...

# Machine-readable perf snapshot: per-pipeline insert ns/op, allocs/op,
# and the serial cache hit rate. BENCHTIME=50ms makes a CI smoke run.
BENCHTIME ?= 1s
bench-json:
	$(GO) run ./cmd/benchjson -benchtime $(BENCHTIME) -o BENCH_core.json

# End-to-end benchmark (benchmark/, declared by BENCHMARK.json): ten
# runs of all four workloads, median and quartiles per metric, every run
# kept in E2E_OUT. About 18 minutes on two cores.
E2E_OUT ?= benchmark/out/e2e.json
bench-e2e:
	$(GO) run ./benchmark -repeat 10 -out $(E2E_OUT)

# Verdict per workload x metric between two bench-e2e result files,
# against BENCHMARK.json's bounds; non-zero exit on a regression.
#   make bench-compare OLD=before.json NEW=after.json
bench-compare:
	$(GO) run ./benchmark -compare $(OLD) $(NEW)

# End-to-end service smoke: loopback server, wire-protocol ingest, and
# a bit-identical diff of the streamed snapshot against an offline
# mapbuilder run of the same dataset.
smoke-service:
	GO="$(GO)" sh scripts/smoke_service.sh

verify: vet lint-imports race
	$(GO) build ./... && $(GO) test ./...
