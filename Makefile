GO ?= go

.PHONY: build vet test race lint lint-fix lint-sarif bench-build bench-smoke serve-smoke families-smoke registry-smoke ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint builds and runs hslint, the repo's own static analyzer (cmd/hslint):
# lock ordering, snapshot immutability, search determinism, sentinel-error
# matching, float comparison discipline, context propagation, goroutine
# lifecycle, atomic publication, and bounded container growth. Findings
# recorded in .hslint-baseline.json are grandfathered (reported, not fatal);
# fresh diagnostics exit non-zero. Suppressions use
# //hslint:ignore <check> <reason>. The stamp file makes repeated `make lint`
# free when no Go source or the baseline changed.
GO_SOURCES := $(shell find . -name '*.go' -not -path './.git/*')

lint: .hslint.stamp

.hslint.stamp: $(GO_SOURCES) .hslint-baseline.json
	$(GO) build -o hslint ./cmd/hslint
	./hslint -baseline .hslint-baseline.json ./...
	touch $@

# lint-fix applies every suggested fix (errors.Is rewrites, %w wraps, stale
# ignore-directive deletion) in place; run lint afterwards to verify.
lint-fix:
	$(GO) build -o hslint ./cmd/hslint
	./hslint -fix ./...

# lint-sarif writes SARIF 2.1.0 to hslint.sarif for CI code-scanning
# annotations, preserving hslint's exit status (baselined findings pass).
lint-sarif:
	$(GO) build -o hslint ./cmd/hslint
	./hslint -format sarif -baseline .hslint-baseline.json ./... > hslint.sarif

# bench-build vets and tests the benchmark harness in perfbench/. It is a
# nested module (its own go.mod, replacing hsmodel with this checkout), so
# `go build ./...` and `go test ./...` at the root never compile it; without
# this target an API change that breaks the harness shows up only when the
# benchmark runs.
bench-build:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# bench-smoke runs every benchmark exactly once: it proves the full
# experiment suite (all figures and ablations) still executes end to end
# without paying for statistically meaningful timings.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x ./...

# serve-smoke runs the end-to-end serving tests: each boots the HTTP service
# on an httptest loopback listener and drives it as a real client. They pin
# Float64bits identity of single and coalesced batch predicts to the
# snapshot, samples acceptance, the metrics page, and the two scripted drift
# episodes of the continuous-learning loop (a x1.6 step shift gives exactly
# one promotion; a transient x3 shift gives exactly one rollback and ends in
# cooldown). `make test` and `make race` already run them; this target runs
# just these.
SERVE_SMOKE_TESTS := ^(TestPredictBitIdenticalToSnapshot|TestBatchCoalescing|TestV1SamplesFanOut|TestModelInfoAndMetricsPage|TestLifecycleHTTPEpisode|TestLifecycleRollbackOnRegression)$$

serve-smoke:
	$(GO) test -count=1 -run '$(SERVE_SMOKE_TESTS)' ./internal/serve ./internal/lifecycle

# registry-smoke runs the multi-model serving tests over httptest loopback:
# /v1/samples fan-out accounting per entry, a non-default entry retraining
# through its /v2 samples route, the "app:<name>" alias, v1/v2 bit-parity,
# register/unregister with manifest persistence, manifest boot, and the
# per-model metrics series. `make test` and `make race` already run them.
REGISTRY_SMOKE_TESTS := ^(TestV1SamplesFanOut|TestV1V2Parity|TestRegisterUnregisterHTTP|TestManifestBoot|TestRegistryMetricsPage)$$

registry-smoke:
	$(GO) test -count=1 -run '$(REGISTRY_SMOKE_TESTS)' ./internal/serve

# families-smoke runs the model-family selection harness end to end on the
# spmv domain corpus: all three built-in families (spline, residual, dal)
# must fit, selection must complete with a full scoreboard, and the chosen
# family's CV MedAPE must not be worse than the reference spline baseline.
families-smoke:
	$(GO) test -run TestFamiliesSmoke -v ./internal/core

# ci is the gate: compile, static analysis (go vet plus the repo's own
# hslint invariant checks), plain tests, then the race detector over the
# whole tree (the parallel fitness pool, the lock-free snapshot swaps, and
# the fault-injection schedules are the usual suspects), and the benchmark
# harness build (bench-build). The serving and registry smoke tests and the
# family-selection smoke test (TestFamiliesSmoke) are part of test and race;
# families-smoke stays as a target for running that one test locally.
ci: build vet lint bench-build test race
