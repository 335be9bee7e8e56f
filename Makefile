GO ?= go
# Pinned staticcheck release; CI installs exactly this version so the
# gate does not drift with upstream.
STATICCHECK_VERSION ?= 2024.1.1

.PHONY: ci vet build test race audit lint hmlint staticcheck lint-fix-check fuzz bench snapshots bench-check bench-test

# ci is the gate: static checks (vet + hmlint + staticcheck), build,
# race-enabled tests, the audit-enabled figure sweep (every simulated
# run carries the invariant auditor; any conservation violation fails
# the target), and the hmbench module's tests.
ci: lint build race audit bench-test

# lint runs the three static layers: the stock vet analyzers, the
# domain-specific hmlint suite (internal/lint), and staticcheck.
lint: vet hmlint staticcheck

vet:
	$(GO) vet ./...

# hmlint enforces the repository's own invariants: staging-protocol
# lock discipline, declared-dependence access modes, determinism of the
# experiment tables, the Options/Retune Validate funnel, audit.Metrics
# attribution, and the interprocedural checks (lock-order cycles,
# condvar wait shape, goroutine lifecycles, tier-chain addressing,
# fast-encoder coverage, snapshot copying). Exits nonzero on any
# finding.
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

# fuzz gives the native trace-codec fuzz targets a short bounded run
# (seeded from the committed X11 capture); CI runs this on every push,
# longer local runs just raise FUZZTIME.
FUZZTIME ?= 30s
fuzz:
	$(GO) test ./internal/trace/ -run '^$$' -fuzz FuzzDecodeEvent -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace/ -run '^$$' -fuzz FuzzEncodeParity -fuzztime $(FUZZTIME)

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

bench:
	$(GO) test -bench=. -benchmem ./internal/exp/

# snapshots regenerates every committed result of the experiment
# registry (internal/exp/registry.go): the full-scale default sweep
# writes results_full.txt and the virtual-time BENCH_*.json snapshots,
# then X12, which measures host wall-clock and so stays outside the
# sweep, writes BENCH_engine.json. Expect host-to-host variance in
# BENCH_engine.json's timings; its ENGINE_FIELDS are stable.
snapshots:
	$(GO) run ./cmd/hmrepro -bench-dir . > results_full.txt
	$(GO) run ./cmd/hmrepro -only x12 -bench-dir . > /dev/null

# ENGINE_FIELDS projects BENCH_engine.json onto its deterministic
# fields: the event counts of each engine row, the serve row's shape,
# and the cluster leg's identity bit and virtual results. The
# wall-clock fields vary host to host and stay unchecked.
ENGINE_FIELDS = {engine: [.engine[] | {tasks, events_scheduled, events_cancelled, events_reused}], serve: (.serve | {sessions, tenants, tasks, windows}), cluster: (.cluster | {nodes, byte_identical, virtual_makespan_s, fabric_messages, windows})}

# bench-check guards the committed results against drift: it runs the
# same two commands as `snapshots` into a temp dir and fails when the
# full sweep's stdout differs from results_full.txt, when any committed
# BENCH_*.json differs from its fresh copy, or when a snapshot exists on
# one side only (a registry entry that lost its committed file, or a
# committed file no entry writes). BENCH_engine.json is wall-clock by
# design, so only its ENGINE_FIELDS projection is compared (needs jq).
# It runs the full-scale figures, so it is the slow, thorough gate (CI
# runs the small-scale sweep separately).
bench-check:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; rc=0; \
	$(GO) run ./cmd/hmrepro -bench-dir $$tmp > $$tmp/results_full.txt || { echo "bench-check: the full sweep failed"; rc=1; }; \
	$(GO) run ./cmd/hmrepro -only x12 -bench-dir $$tmp > /dev/null || { echo "bench-check: the x12 run failed"; rc=1; }; \
	cmp -s results_full.txt $$tmp/results_full.txt || { echo "bench-check: results_full.txt drifted from a fresh full sweep"; rc=1; }; \
	for f in BENCH_*.json; do \
		[ -e "$$tmp/$$f" ] || { echo "bench-check: $$f is committed but no registry entry writes it"; rc=1; }; \
	done; \
	for fresh in $$tmp/BENCH_*.json; do \
		f=$${fresh##*/}; \
		if [ ! -e "$$f" ]; then echo "bench-check: $$f is written by the registry but not committed"; rc=1; \
		elif [ "$$f" = BENCH_engine.json ]; then \
			jq -S '$(ENGINE_FIELDS)' "$$f" > $$tmp/engine.want && \
			jq -S '$(ENGINE_FIELDS)' "$$fresh" > $$tmp/engine.got && \
			cmp -s $$tmp/engine.want $$tmp/engine.got || { echo "bench-check: $$f deterministic fields drifted from a fresh run"; rc=1; }; \
		elif ! cmp -s "$$f" "$$fresh"; then echo "bench-check: $$f drifted from a fresh run"; rc=1; fi; \
	done; \
	[ $$rc -eq 0 ] && echo "bench-check: results_full.txt and the committed snapshots match fresh runs"; \
	exit $$rc
