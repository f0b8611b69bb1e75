GO ?= go
FUZZTIME ?= 30s
BENCHTIME ?= 200ms

WORKLOAD ?= edge-burst
SECONDS ?= 5

.PHONY: build test short race vet lint fuzz bench kernelbench e2ebench loadgen servingbench loc check idle

build: ## Compile every package and binary.
	$(GO) build ./...

test: ## Run the full test suite.
	$(GO) test ./...

short: ## Run the suite without the long integration sweeps.
	$(GO) test -short ./...

race: ## Full suite under the race detector (slow; the heaviest sweeps self-skip). Includes the multi-client edge-scheduler tests, which are occupancy-bound so their scaling assertions hold under -race. The loadgen drive tests run a shortened smoke profile (see raceProfile) so their wall-clock pacing stays bounded.
	$(GO) test -race ./...

vet: ## Standard static analysis.
	$(GO) vet ./...

lint: ## Repo-specific determinism/concurrency analyzers (see DESIGN.md §11 and §16).
	$(GO) run ./cmd/edgeis-lint ./...

fuzz: ## Brief fuzz pass over the wire-protocol decoders.
	$(GO) test -run=NONE -fuzz=FuzzUnmarshalFrame -fuzztime=$(FUZZTIME) ./internal/transport/
	$(GO) test -run=NONE -fuzz=FuzzUnmarshalResult -fuzztime=$(FUZZTIME) ./internal/transport/
	$(GO) test -run=NONE -fuzz=FuzzUnmarshalError -fuzztime=$(FUZZTIME) ./internal/transport/

bench: kernelbench ## Per-figure benchmarks plus the packed-kernel sweep.
	$(GO) test -bench=. -benchmem .

kernelbench: ## Packed-vs-scalar mask kernel sweep; refreshes BENCH_kernels.json.
	$(GO) run ./cmd/edgeis-kernelbench -benchtime $(BENCHTIME) -out BENCH_kernels.json

e2ebench: ## One workload of the repository benchmark (BENCHMARK.json, bench/README.md): make e2ebench WORKLOAD=offload-rtt SECONDS=5.
	bash bench/run.sh --workload $(WORKLOAD) --seconds $(SECONDS)

loadgen: ## Deterministic serving smoke: ci-smoke, its skip-compute twin and the sharded fleet arm on the simulator, each run twice and compared (the CI gate).
	$(GO) run ./cmd/edgeis-loadgen -profile ci-smoke -check -out -
	$(GO) run ./cmd/edgeis-loadgen -profile ci-smoke-skip -check -out -
	$(GO) run ./cmd/edgeis-loadgen -profile ci-smoke-fleet -check -out -

servingbench: ## Full serving SLO suite (all simulator profiles + tcp-smoke over sockets); refreshes BENCH_serving.json.
	$(GO) run ./cmd/edgeis-loadgen -suite -check -out BENCH_serving.json

loc: ## Non-test / test Go lines per package (wc -l), the size figure simplification PRs are judged on.
	@$(GO) list -f '{{.Dir}} {{.ImportPath}}' ./... | while read d pkg; do \
		n=$$(ls $$d/*.go | grep -v _test.go | xargs cat | wc -l); \
		t=$$(ls $$d/*_test.go 2>/dev/null | xargs cat /dev/null | wc -l); \
		printf '%6d %6d  %s\n' $$n $$t $$pkg; \
	done | awk '{n+=$$1; t+=$$2; print} END {printf "%6d %6d  total (non-test, test)\n", n, t}'

check: vet lint build test race ## Everything CI runs, in order.

idle: ## Hand-in check: fails, listing them, if any edgeis-* binary or Go test binary is still running (matches executable paths, so never itself or an argument).
	@! ls -l /proc/[0-9]*/exe 2>/dev/null | grep -E '/(edgeis-[a-z]+|[^/ ]+\.test)$$'
