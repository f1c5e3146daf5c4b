# CI and local workflows invoke identical commands: .github/workflows/ci.yml
# runs exactly these targets' recipes.

GO ?= go
STATICCHECK ?= staticcheck
GOVULNCHECK ?= govulncheck

.PHONY: all build test race bench bench-gate profile fmt lint vuln serve-smoke

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# bench-gate = run the cold-solve benchmarks (repeated samples), aggregate
# into bench.json, and fail on p50/allocs regression against the last
# committed BENCH_<pr>.json trajectory point. Tune with BENCH_GATE_* (see
# scripts/bench_gate.sh and docs/BENCHMARKING.md).
bench-gate:
	bash scripts/bench_gate.sh

# profile = CPU + mutex profiles of the two hot paths this repo optimises:
# the Scenario 2 branch & bound solve (BenchmarkTable5Tailoring/scenario2)
# and the saturated serving loop (BenchmarkServeSaturated). Profiles land
# in profiles/; inspect with `go tool pprof profiles/solve_cpu.out`. The
# mutex profile is the one to read after a cache-sharding change — it
# shows exactly which lock the request goroutines queued on.
PROFILE_BENCHTIME ?= 2s
profile:
	mkdir -p profiles
	$(GO) test -run '^$$' -bench 'BenchmarkTable5Tailoring/scenario2' \
		-benchtime $(PROFILE_BENCHTIME) \
		-cpuprofile profiles/solve_cpu.out \
		-mutexprofile profiles/solve_mutex.out \
		-o profiles/repro.test .
	$(GO) test -run '^$$' -bench 'BenchmarkServeSaturated' \
		-benchtime $(PROFILE_BENCHTIME) \
		-cpuprofile profiles/serve_cpu.out \
		-mutexprofile profiles/serve_mutex.out \
		-o profiles/repro.test .

fmt:
	gofmt -w .

# serve-smoke = start wcetd, POST a single and a batch request, assert
# 200 + expected fields, SIGTERM, assert clean shutdown; then the
# campaign-job durability round trip: submit a sweep, SIGKILL the daemon
# mid-job, restart, assert checkpoint resume and a byte-identical artifact.
serve-smoke:
	bash scripts/serve_smoke.sh

# lint = vet + gofmt diff check (fails if any file needs formatting) +
# metric-naming conventions + staticcheck. staticcheck is skipped with a
# notice when the binary is not on PATH (the offline dev container); CI
# installs it and always runs it.
lint:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; \
		echo "$$unformatted" >&2; \
		exit 1; \
	fi
	bash scripts/metrics_lint.sh
	@if command -v $(STATICCHECK) >/dev/null 2>&1; then \
		$(STATICCHECK) ./...; \
	else \
		echo "lint: $(STATICCHECK) not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)" >&2; \
	fi

# vuln = known-vulnerability scan of the module and its (std-only)
# dependency graph. Same skip policy as staticcheck.
vuln:
	@if command -v $(GOVULNCHECK) >/dev/null 2>&1; then \
		$(GOVULNCHECK) ./...; \
	else \
		echo "vuln: $(GOVULNCHECK) not installed, skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)" >&2; \
	fi
