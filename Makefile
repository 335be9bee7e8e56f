GO ?= go
# Pinned staticcheck release; CI installs exactly this version so the
# gate does not drift with upstream.
STATICCHECK_VERSION ?= 2024.1.1

.PHONY: ci vet build test race audit lint hmlint staticcheck lint-fix-check fuzz bench bench-smoke snapshots bench-check bench-test loc

# ci is the gate: static checks (vet + hmlint + staticcheck), build,
# race-enabled tests, the audit-enabled figure sweep (every simulated
# run carries the invariant auditor; any conservation violation fails
# the target), and the hmbench module's tests.
ci: lint build race audit bench-test

# lint runs the three static layers: the stock vet analyzers, the
# domain-specific hmlint suite (internal/lint), and staticcheck.
lint: vet hmlint staticcheck

# vet also runs inside bench/: it is a Go module of its own, so the
# root `go vet ./...` never reaches it (see bench-test).
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...

# hmlint enforces the repository's own invariants: staging-protocol
# lock discipline, declared-dependence access modes, determinism of the
# experiment tables, the Options/Retune Validate funnel, and the
# interprocedural checks (lock-order cycles, condvar wait shape,
# goroutine lifecycles, tier-chain addressing, fast-encoder coverage,
# snapshot copying). Exits nonzero on any finding.
hmlint:
	$(GO) run ./cmd/hmlint ./...

# lint-fix-check guards against drift between generated code and the
# lint gate: re-run go generate (a no-op until the repo grows
# generators, by design), re-run hmlint over the regenerated tree, and
# fail if generation dirtied the checkout.
lint-fix-check:
	$(GO) generate ./...
	$(GO) run ./cmd/hmlint ./...
	git diff --exit-code

# fuzz gives the native fuzz targets a short bounded run each: the
# trace codec (seeded from the committed X11 capture: decode round
# trip, encoder byte parity, fast-parser parity), hetmemd's
# submit handler, memsim's bandwidth allocator over random flow plans,
# sim's lock sweeps (a Scan run as a Drive step) against the explicit
# lock loop and sim's Drive steps against blocking code. CI runs this
# on every push; longer local runs just raise FUZZTIME.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/trace/ -run '^$$' -fuzz FuzzDecodeEvent -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace/ -run '^$$' -fuzz FuzzEncodeParity -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace/ -run '^$$' -fuzz FuzzDecodeParity -fuzztime $(FUZZTIME)
	$(GO) test ./internal/serve/ -run '^$$' -fuzz FuzzSubmit -fuzztime $(FUZZTIME)
	$(GO) test ./internal/memsim/ -run '^$$' -fuzz FuzzFlowPlans -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim/ -run '^$$' -fuzz FuzzSweep -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sim/ -run '^$$' -fuzz FuzzDrive -fuzztime $(FUZZTIME)

# staticcheck is optional locally (the build sandbox has no network to
# install it); CI installs the pinned version, so the gate always runs
# it there.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipped locally (CI pins $(STATICCHECK_VERSION))"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

audit:
	$(GO) run ./cmd/hmrepro -scale small -audit > /dev/null

# bench-test runs the hmbench module's tests: Small-scale equivalence
# with exp.RunFig8/RunFig9/RunX13/RunX15, the golden values and the
# workload catalogue. bench/ is a Go module of its own, so the root
# `go test ./...` never reaches them, and a memsim change that moves a
# Fig 8/9 virtual result would otherwise go unnoticed.
bench-test:
	cd bench && $(GO) test ./...

# bench runs every Go benchmark in the root module: the figure and
# dispatch benchmarks at the root, the engine and memory-model
# microbenchmarks and the trace decoder's, with no tests run beside
# them.
bench:
	$(GO) test -run '^$$' -bench=. -benchmem . ./internal/sim ./internal/memsim ./internal/trace

# bench-smoke runs every benchmark exactly once, so CI catches a
# benchmark that panics or fails without paying to time it.
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchtime 1x . ./internal/sim ./internal/memsim ./internal/trace

# snapshots regenerates every committed result of the experiment
# registry (internal/exp/registry.go): the full-scale sweep, which runs
# every entry, writes results_full.txt and the BENCH_*.json snapshots.
# Every number in them is virtual time.
snapshots:
	$(GO) run ./cmd/hmrepro -bench-dir . > results_full.txt

# bench-check guards the committed results against drift: it runs the
# same command as `snapshots` into a temp dir and fails when the full
# sweep's stdout differs from results_full.txt, when any committed
# BENCH_*.json differs from its fresh copy, or when a snapshot exists on
# one side only (a registry entry that lost its committed file, or a
# committed file no entry writes). It runs the full-scale figures, so
# it is the slow, thorough gate (CI runs the small-scale sweep
# separately).
bench-check:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; rc=0; \
	$(GO) run ./cmd/hmrepro -bench-dir $$tmp > $$tmp/results_full.txt || { echo "bench-check: the full sweep failed"; rc=1; }; \
	cmp -s results_full.txt $$tmp/results_full.txt || { echo "bench-check: results_full.txt drifted from a fresh full sweep"; rc=1; }; \
	for f in BENCH_*.json; do \
		[ -e "$$tmp/$$f" ] || { echo "bench-check: $$f is committed but no registry entry writes it"; rc=1; }; \
	done; \
	for fresh in $$tmp/BENCH_*.json; do \
		f=$${fresh##*/}; \
		if [ ! -e "$$f" ]; then echo "bench-check: $$f is written by the registry but not committed"; rc=1; \
		elif ! cmp -s "$$f" "$$fresh"; then echo "bench-check: $$f drifted from a fresh run"; rc=1; fi; \
	done; \
	[ $$rc -eq 0 ] && echo "bench-check: results_full.txt and the committed snapshots match fresh runs"; \
	exit $$rc

# loc prints the non-test Go lines of each package of the root module
# (testdata and hidden directories left out), the module's total, and
# bench/ on a line of its own: the line counts the simplicity work is
# measured by.
loc:
	@find . \( -name '.?*' -o -name testdata -o -path ./bench \) -prune -o -name '*.go' ! -name '*_test.go' -print | \
	awk '{ n = 0; while ((getline line < $$0) > 0) n++; close($$0); d = $$0; sub(/\/[^\/]*$$/, "", d); sub(/^\.\/?/, "", d); \
		lines[d == "" ? "." : d] += n; total += n } \
		END { for (d in lines) printf "%7d  %s\n", lines[d], d | "sort -k2"; close("sort -k2"); printf "%7d  root module\n", total }'
	@find bench -name '*.go' ! -name '*_test.go' -print | \
	awk '{ while ((getline line < $$0) > 0) n++; close($$0) } END { printf "%7d  bench/\n", n }'
