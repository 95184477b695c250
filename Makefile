# Convenience targets; everything is plain `go` underneath.

.PHONY: all build vet lint lint-escapes lint-state lint-bench race test bench bench-json ledger profile sweep experiments examples clean

all: build vet lint test

build:
	go build ./...

vet:
	go vet ./...

# The full static-analysis gate: vet, gofmt cleanliness, the repo's own
# vixlint pass (determinism including transitive reach, allocator
# contracts, scratch escape, enum exhaustiveness, hygiene, and the
# parallel/* shard-ownership rules — see internal/lint), the compiler
# escape gate (lint-escapes), and the state-graph gate (lint-state).
# vixlint keeps a content-hash finding cache under .vixlint/, so reruns
# only re-analyze packages whose hash chain changed. The lint
# self-check tests enforce the same rules under plain `go test ./...`.
lint: vet lint-escapes lint-state
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: the following files need formatting:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi
	go run ./cmd/vixlint -v ./...

# The compiler escape gate: diff heap escapes inside //vixlint:hot call
# cones (from `go build -gcflags=-m`, replayed from the build cache on
# warm runs) against the committed golden at .vixlint/escapes.golden.
# A new escape on the hot path fails with its exact file:line and the
# compiler's reason; regenerate the golden after an audited change with
# `go run ./cmd/vixlint -escapes -update-escapes ./...`.
lint-escapes:
	go run ./cmd/vixlint -escapes -v ./...

# The state-graph gate: every mutable field reachable from the
# simulation state roots must be classified persistent, scratch or
# config in the committed manifest at .vixlint/stategraph.golden — the
# normative field list for checkpoint/restore. Regenerate after an
# audited change with `go run ./cmd/vixlint -state -update-state ./...`.
lint-state:
	go run ./cmd/vixlint -state -v ./...

# Demonstrate the incremental engine: a cold run (cache cleared) versus
# a warm rerun, which must type-check and analyze zero packages. The
# escape and state gates get the same treatment: their warm-skip states
# are keyed on the module content hash plus their golden/manifest (and,
# for escapes, the toolchain), so the warm invocations must analyze
# nothing. Only cache entries are cleared — .vixlint/escapes.golden and
# .vixlint/stategraph.golden are committed baselines, not cache. The
# binary builds into a per-invocation temp dir so concurrent checkouts
# (CI shards, worktrees) cannot clobber each other's binary.
lint-bench:
	@bin="$$(mktemp -d)/vixlint"; \
	trap 'rm -rf "$$(dirname "$$bin")"' EXIT; \
	set -e; \
	go build -o "$$bin" ./cmd/vixlint; \
	rm -f .vixlint/*.json; \
	echo "== cold (empty cache)"; \
	"$$bin" -v ./...; \
	echo "== warm (unchanged tree)"; \
	warm="$$("$$bin" -v ./... 2>&1)"; \
	echo "$$warm"; \
	case "$$warm" in \
	*" 0 analyzed"*) ;; \
	*) echo "lint-bench: warm run re-analyzed packages; cache is broken"; exit 1 ;; \
	esac; \
	echo "== escapes cold (no warm-skip state)"; \
	"$$bin" -escapes -v ./...; \
	echo "== escapes warm (unchanged tree)"; \
	warm="$$("$$bin" -escapes -v ./... 2>&1)"; \
	echo "$$warm"; \
	case "$$warm" in \
	*" 0 analyzed"*) ;; \
	*) echo "lint-bench: warm escape gate re-ran the compiler diff; warm-skip state is broken"; exit 1 ;; \
	esac; \
	echo "== state cold (no warm-skip state)"; \
	"$$bin" -state -v ./...; \
	echo "== state warm (unchanged tree)"; \
	warm="$$("$$bin" -state -v ./... 2>&1)"; \
	echo "$$warm"; \
	case "$$warm" in \
	*" 0 analyzed"*) ;; \
	*) echo "lint-bench: warm state gate re-ran the graph walk; warm-skip state is broken"; exit 1 ;; \
	esac

# Run the test suite under the race detector. Allocators and routers are
# documented as not concurrency-safe; this verifies nothing shares them
# across goroutines by accident. The explicit network run drives the
# sharded parallel tick (workers >= 2) under -race even on hosts where
# GOMAXPROCS would otherwise keep the pool on its inline path.
race:
	go test -race ./...
	go test -race -run 'TestParallelTick|TestSteadyStateZeroAllocs|TestActivityGate' ./internal/network/

test:
	go test ./...

# Regenerate every table and figure at benchmark scale.
bench:
	go test -bench=. -benchmem .

# A small harness-backed sweep grid under the race detector: exercises
# the parallel fan-out, manifest resume, and canonical merge end to end.
sweep:
	go run -race ./cmd/sweep -schemes if:1,if:2 -rates 0.02,0.05 \
		-parallel 4 -v -o /tmp/vix_sweep.csv
	@echo "wrote /tmp/vix_sweep.csv"

# Benchmark the harness itself: serial vs parallel wall time over the
# Figure 8 grid, recorded to BENCH_harness.json for the perf trajectory.
# Then benchmark the cycle loop: cycles/sec of Network.Step on a
# saturated 8x8 VIX mesh (one worker), plus the 16x16 parallel-tick
# section — one-worker and pooled cycles/sec, the effective worker
# count, and the host CPU count — and the 32x32 large-mesh section,
# recorded to BENCH_cycle.json. cyclebench carries the pre-optimization
# baselines over from the existing file, so the speedup columns keep
# comparing against the same reference points, and it exits non-zero if
# a pooled run's statistics diverge from the one-worker run's (or the
# parallel speedup gate fails where it applies: >= 1.8x on a >= 4-CPU
# host). Low-load speed is the ledger's mesh16_low row (make ledger).
bench-json:
	go run ./cmd/harnessbench -o BENCH_harness.json
	@cat BENCH_harness.json
	go run ./cmd/cyclebench -o BENCH_cycle.json
	@cat BENCH_cycle.json

# The performance ledger (bench/README.md, BENCHMARK.json): all six
# workloads' end-to-end metrics with their correctness checks; exits
# non-zero when a check fails. Add -trace 1 for the per-layer rows.
ledger:
	go run ./bench -workload all

# Profile a short Figure 8 sweep point (cpu + heap) into ./profiles/.
# Inspect with: go tool pprof profiles/sweep_cpu.pprof
profile:
	mkdir -p profiles
	go run ./cmd/sweep -schemes if:2 -rates 0.05 \
		-cpuprofile profiles/sweep_cpu.pprof \
		-memprofile profiles/sweep_mem.pprof \
		-o /tmp/vix_profile_sweep.csv
	@echo "wrote profiles/sweep_cpu.pprof profiles/sweep_mem.pprof"

# Regenerate every table and figure at full scale (minutes).
experiments:
	go run ./cmd/delaymodel -scaling
	go run ./cmd/routerbench
	go run ./cmd/loadsweep
	go run ./cmd/fairness
	go run ./cmd/chaining
	go run ./cmd/energymodel
	go run ./cmd/virtualinputs
	go run ./cmd/appsim
	go run ./cmd/ablation

examples:
	go run ./examples/quickstart
	go run ./examples/buffer_reduction
	go run ./examples/custom_allocator
	go run ./examples/adversarial_traffic
	go run ./examples/saturation_search

clean:
	go clean ./...
