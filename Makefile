# Convenience targets; everything is plain `go` underneath.

.PHONY: all build vet lint race test fuzz ledger profile sweep experiments clean

all: build vet lint test

build:
	go build ./...

vet:
	go vet ./...

# The static-analysis gate: vet, gofmt cleanliness, and the repo's own
# lint rules (determinism, enum exhaustiveness, hygiene, waiver/directive
# hygiene — see internal/lint) run by their self-check test, which
# prints each finding as file:line: rule: message. One serial pass,
# ~3 s, nothing cached, nothing written; plain `go test ./...` runs the
# same test.
lint: vet
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: the following files need formatting:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi
	go test -count=1 -run '^TestRepoIsLintClean$$' ./internal/lint

# Run the test suite under the race detector. This is the guard of both
# sim.Pool.Do sites — no static rule judges what a pool job writes. The
# sharded tick (network.tickRouters): the lockstep tests in
# internal/network run every alloc.Kinds() entry at Config.Workers >= 2
# (a positive count is taken as given, so they cross goroutines whatever
# the host's CPU count), which puts each Allocate body and every
# phase-A write under the detector. The grid fan-out (harness.Run): the
# internal/harness and internal/experiments tests run it at Parallel > 1.
# A third Do site fails TestPoolDoSitesArePinned until it has such a test.
race:
	go test -race ./...

test:
	go test ./...

# `go test` only replays the fuzz targets' seed corpora; this mutates each
# for 15 s (go test takes one -fuzz target per run). FuzzAllocate: every
# kind's grants, drawn from the packed form of the request set (the one
# the router hands over), each naming its input VC, legal against the
# list (Validate keys it by VC, refusing one out of range or twice), deterministic from
# Reset, both forms left unmutated, lone requests granted. FuzzExperiment: Validate rejects a spec, naming
# its JSON field, or the simulator runs it without error or panic.
# FuzzScanCases: a vixd POST body the byte scan admits, the JSON decoder
# admits too, with the same names, specs and close. FuzzNetwork: a burst
# over any legal topology, allocator, partition, policy, speculation,
# buffer depth, load, packet size and hop delay drains with every packet
# delivered, the network checker holding every cycle. A failing input
# lands in the package's testdata/fuzz/<target>/ — commit it with the
# fix.
fuzz:
	go test -run '^$$' -fuzz FuzzAllocate -fuzztime 15s ./internal/alloc
	go test -run '^$$' -fuzz FuzzExperiment -fuzztime 15s ./internal/config
	go test -run '^$$' -fuzz FuzzScanCases -fuzztime 15s ./internal/service
	go test -run '^$$' -fuzz FuzzNetwork -fuzztime 15s ./internal/network

# A small harness-backed sweep grid under the race detector: exercises
# the parallel fan-out, manifest resume, and canonical merge end to end.
sweep:
	go run -race ./cmd/sweep -schemes if:1,if:2 -rates 0.02,0.05 \
		-parallel 4 -v -o /tmp/vix_sweep.csv
	@echo "wrote /tmp/vix_sweep.csv"

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

# Regenerate every table, figure and ablation study at full scale
# (minutes; add -warmup 200 -measure 600 to the command for seconds).
experiments:
	go run ./cmd/figures -scaling all

clean:
	go clean ./...
