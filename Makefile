# Convenience targets; everything is plain `go` underneath.

.PHONY: all build vet lint race test bench bench-json ledger profile sweep experiments examples clean

all: build vet lint test

build:
	go build ./...

vet:
	go vet ./...

# The static-analysis gate: vet, gofmt cleanliness, and one run of the
# repo's own vixlint pass (determinism including transitive reach,
# allocator contracts, scratch escape, enum exhaustiveness, hygiene, and
# the parallel/* shard-ownership rules — see internal/lint). One serial
# pass, ~2 s, nothing cached, nothing written. The lint self-check test
# enforces the same rules under plain `go test ./...`.
lint: vet
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: the following files need formatting:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi
	go run ./cmd/vixlint -v ./...

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
