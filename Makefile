# CI and local workflows invoke identical commands: .github/workflows/ci.yml
# runs exactly these targets' recipes.

GO ?= go
STATICCHECK ?= staticcheck
GOVULNCHECK ?= govulncheck

.PHONY: all build test race bench bench-ab loc profile fmt lint vuln serve-smoke

all: build lint test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# bench-ab = same-machine A/B of the repository benchmark (BENCHMARK.json):
# every workload on BASE and on the working tree, interleaved, judged by
# scripts/benchab (see docs/BENCHMARKING.md). BASE=<rev> is required.
bench-ab:
	@if [ -z "$(BASE)" ]; then echo "usage: make bench-ab BASE=<rev>" >&2; exit 2; fi
	bash scripts/bench_ab.sh $(BASE)

# loc = added, removed and net lines of non-test Go between BASE and the
# working tree, per directory and in total: the net line count a change
# reports next to its A/B result. Untracked files count as added;
# *_test.go and testdata/ are excluded. BASE=<rev> is required.
LOC_PATHS = -- '*.go' ':!*_test.go' ':!*testdata/*'
loc:
	@if [ -z "$(BASE)" ]; then echo "usage: make loc BASE=<rev>" >&2; exit 2; fi
	@{ git diff --numstat $(BASE) $(LOC_PATHS); \
	  git ls-files --others --exclude-standard $(LOC_PATHS) | while read -r f; do \
	    printf '%s\t0\t%s\n' "$$(wc -l < "$$f")" "$$f"; done; } | \
	awk -F'\t' '{ d = $$3; sub(/\/[^\/]*$$/, "", d); if (d == $$3) d = "."; \
	    a[d] += $$1; r[d] += $$2 } END { for (d in a) print d, a[d], r[d] }' | sort | \
	awk 'BEGIN { printf "%-28s %7s %7s %7s\n", "dir", "added", "removed", "net" } \
	  { printf "%-28s %7d %7d %+7d\n", $$1, $$2, $$3, $$2 - $$3; ta += $$2; td += $$3 } \
	  END { printf "%-28s %7d %7d %+7d\n", "total", ta, td, ta - td }'

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
