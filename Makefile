GO ?= go

.PHONY: build fmt vet test race lint lint-sarif bench-build bench-smoke bench-collect fig5 goldens fuzz-smoke smoke-names ci

build:
	$(GO) build ./...

# fmt fails when any Go file in the tree (the nested perfbench module
# included) is not gofmt-formatted, listing the offenders.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint builds and runs hslint, the repo's own static analyzer (cmd/hslint):
# lock ordering, snapshot immutability, search determinism, sentinel-error
# matching, float comparison discipline, context propagation, goroutine
# lifecycle, atomic publication, and bounded container growth. Any finding
# exits non-zero: fix it, or suppress it at its site with
# //hslint:ignore <check> <reason>. The stamp file makes repeated `make lint`
# free when no Go source changed.
GO_SOURCES := $(shell find . -name '*.go' -not -path './.git/*')

lint: .hslint.stamp

.hslint.stamp: $(GO_SOURCES)
	$(GO) build -o hslint ./cmd/hslint
	./hslint ./...
	touch $@

# lint-sarif writes SARIF 2.1.0 to hslint.sarif for CI code-scanning
# annotations, preserving hslint's exit status.
lint-sarif:
	$(GO) build -o hslint ./cmd/hslint
	./hslint -format sarif ./... > hslint.sarif

# bench-build vets and tests the benchmark harness in perfbench/. It is a
# nested module (its own go.mod, replacing hsmodel with this checkout), so
# `go build ./...` and `go test ./...` at the root never compile it; without
# this target an API change that breaks the harness shows up only when the
# benchmark runs.
bench-build:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# bench-smoke runs every benchmark exactly once: it proves the full
# experiment suite (all figures and ablations) still executes end to end
# without paying for statistically meaningful timings. -run '^$$' skips the
# tests, which test and race already ran.
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./...

# bench-collect times sample collection once at the build workload's scale
# (BenchmarkCollect: 7 applications x 120 samples, 50k-instruction shards):
# tracing, shard profiling and simulation, with s/op and B/op. Then it times
# the three layers alone at the same scale, 10 passes over one 50k shard per
# SPEC2006 application each, in ns/inst: BenchmarkShardTrace (trace
# generation), BenchmarkProfileStream (profiling) and BenchmarkSimulate
# (simulation on sampled architectures). Last, the trace generator's two
# samplers alone, in ns/draw at the SPEC2006 stand-ins' parameters:
# BenchmarkGeomSample and BenchmarkZipfSample (internal/rng). No bound
# applies; it puts the collection layer's cost and its split in the log.
bench-collect:
	$(GO) test -run '^$$' -bench '^BenchmarkCollect$$' -benchtime 1x -benchmem ./internal/core
	$(GO) test -run '^$$' -bench '^Benchmark(ShardTrace|ProfileStream|Simulate)$$' -benchtime 10x -benchmem ./internal/core
	$(GO) test -run '^$$' -bench '^Benchmark(GeomSample|ZipfSample)$$' -benchtime 1000000x ./internal/rng

# fig5 runs BenchmarkFig5Convergence once (about 5 s on 2 vCPUs) and fails
# unless it reproduces the Figure 5 convergence figures exactly: summed
# median error 0.6121 at generation 0 and 0.5650 at the last generation.
# Training changes meant to leave the model alone must leave these alone.
fig5:
	@out="$$($(GO) test -run '^$$' -bench '^BenchmarkFig5Convergence$$' -benchtime 1x .)" || { echo "$$out"; exit 1; }; \
	echo "$$out" | grep '^BenchmarkFig5'; \
	for want in '0.6121 gen0-sum-med-err' '0.5650 final-sum-med-err'; do \
		echo "$$out" | grep -q "[[:space:]]$$want" || { echo "fig5: want $$want"; exit 1; }; \
	done

# goldens runs every bit-pinning golden at GOMAXPROCS 1, 2 and 4: each
# hashes Float64bits of what its layer computes (the instruction stream,
# collected samples, simulator results, the spmv study's sampled points, the
# trained general and domain models, the spmv tuner's choices, one selection
# round over the three families, one stepwise-rung publish, and the values
# Figs 7b, 7c, 9 and 10 return at a small scale), so a change
# meant to keep the numbers, or a result that depends on the worker count,
# fails here.
GOLDEN_TESTS := ^(TestStreamGolden|TestCollectGolden|TestSimulatorGolden|TestStudySampleGolden|TestTrainGolden|TestTrainDomainModelGolden|TestTuneGolden|TestSelectionRoundGolden|TestStepwiseRungGolden|TestExtrapolationFiguresGolden)$$
GOLDEN_PKGS := ./internal/profile ./internal/core ./internal/cpu ./internal/spmv ./internal/experiments

goldens:
	$(GO) test -count=1 -cpu 1,2,4 -run '$(GOLDEN_TESTS)' $(GOLDEN_PKGS)

# fuzz-smoke fuzzes model loading for 10 s (FuzzLoadSnapshot, internal/core):
# arbitrary bytes as a model file must either load to a snapshot with finite
# predictions or fail with a typed ErrModel* error, never panic. Then for 10 s
# the fuzzed bytes become the payload of a checksum-sealed version-4 file
# (FuzzLoadSnapshotPayload), which reaches the model structure checks the
# checksum keeps FuzzLoadSnapshot from, with the same property. Then it
# fuzzes the samplers' bucket tables for 10 s (FuzzSamplerTables,
# internal/rng): for an arbitrary Geom mean, Zipf (n, theta) and draw, the
# table must answer what the formula answers and consume the same draw. Last,
# for 10 s, the wire decode (FuzzWireDecode, pkg/hsmodel): arbitrary bytes as
# a predict body, a batch body or a sample either decode to finite, validated
# values or fail with an error, never panic. A crasher is written to the
# package's testdata/fuzz/<target>/; checked in, it replays on every plain
# `go test`. -fuzzminimizetime 1s caps the minimization of each new
# interesting input (and of a crasher) at one second: at the default 60 s,
# minimizing one multi-KB model file used up a target's whole 10 s, so the
# model-loading targets ran a few dozen execs. CI runs this after ci, not
# inside it. `go test -fuzz` with a name
# that matches no target exits 0, so smoke-names checks the names in the
# three lists below.
CORE_FUZZ_TARGETS := FuzzLoadSnapshot FuzzLoadSnapshotPayload
RNG_FUZZ_TARGETS := FuzzSamplerTables
WIRE_FUZZ_TARGETS := FuzzWireDecode

fuzz-smoke:
	for target in $(CORE_FUZZ_TARGETS); do $(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 10s -fuzzminimizetime 1s ./internal/core || exit 1; done
	for target in $(RNG_FUZZ_TARGETS); do $(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 10s -fuzzminimizetime 1s ./internal/rng || exit 1; done
	for target in $(WIRE_FUZZ_TARGETS); do $(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 10s -fuzzminimizetime 1s ./pkg/hsmodel || exit 1; done

# smoke-names fails when a name in GOLDEN_TESTS, CORE_FUZZ_TARGETS,
# RNG_FUZZ_TARGETS or WIRE_FUZZ_TARGETS is not a test or fuzz target that
# `go test -list` reports
# for the packages its target runs: the lists select by regex, and a regex
# that matches nothing passes, so a renamed or deleted test would otherwise
# drop out of its run without a word.
smoke-names:
	@check() { \
		listed="$$($(GO) test -list . $$2)" || { echo "$$listed"; exit 1; }; \
		for name in $$(echo "$$1" | tr -d '^()$$' | tr '|' ' '); do \
			echo "$$listed" | grep -qx "$$name" || { echo "smoke-names: $$name is not a test or fuzz target in $$2"; exit 1; }; \
		done; \
	}; \
	check '$(CORE_FUZZ_TARGETS)' ./internal/core && \
	check '$(RNG_FUZZ_TARGETS)' ./internal/rng && \
	check '$(WIRE_FUZZ_TARGETS)' ./pkg/hsmodel && \
	check '$(GOLDEN_TESTS)' '$(GOLDEN_PKGS)'

# ci is the gate: compile, formatting (gofmt), static analysis (go vet plus
# the repo's own hslint invariant checks), the golden and fuzz lists' test
# names (smoke-names), plain tests, then the race
# detector over the whole tree (the parallel fitness pool, the lock-free
# snapshot swaps, and the fault-injection schedules are the usual suspects),
# the benchmark harness build (bench-build), the exact Figure 5
# convergence figures (fig5), and the bit-pinning goldens at GOMAXPROCS 1, 2
# and 4 (goldens). The serving, registry and family-selection end-to-end
# tests are part of test and race.
ci: build fmt vet lint smoke-names bench-build fig5 goldens test race
