GO ?= go
# Pinned staticcheck release; CI installs exactly this version so the
# gate does not drift with upstream.
STATICCHECK_VERSION ?= 2024.1.1

.PHONY: ci vet build test race audit lint hmlint staticcheck lint-fix-check fuzz bench bench-adapt bench-evict bench-trace bench-engine bench-serve bench-tiers bench-tune bench-check bench-test

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

# bench-adapt regenerates the committed adaptive-controller benchmark
# snapshot from the full-scale X9 sweep (adaptive vs the fixed grid).
bench-adapt:
	$(GO) run ./cmd/hmrepro -adapt -bench-adapt BENCH_adapt.json

# bench-evict regenerates the committed eviction-policy benchmark
# snapshot from the full-scale X10 comparison (DeclOrder vs LRU vs
# Lookahead, plus the adaptive mid-run working-set shift).
bench-evict:
	$(GO) run ./cmd/hmrepro -evict -bench-evict BENCH_evict.json

# bench-trace regenerates the committed trace/replay benchmark snapshot
# from the full-scale X11 validation: replay fidelity on the Fig 8
# overflow capture, capture overhead vs an untraced run, and what-if
# policy deltas vs real runs.
bench-trace:
	$(GO) run ./cmd/hmrepro -replay -bench-trace BENCH_trace.json

# bench-engine regenerates the committed engine hot-path snapshot from
# X12: scheduler throughput at 10k/100k/1M tasks (vs the recorded
# pre-overhaul baseline) and the serial-vs-parallel cluster substrate
# check. Wall-clock numbers — expect host-to-host variance; the
# byte_identical bit and the speedup order of magnitude are the stable
# signals.
bench-engine:
	$(GO) run ./cmd/hmrepro -engine -bench-engine BENCH_engine.json

# bench-serve regenerates the committed multi-tenant service snapshot
# from the full-scale X13 figure: session makespan percentiles + Jain's
# fairness index under three Poisson arrival rates, and the
# budget-isolation run (small tenant vs staging hogs, fair lanes
# on/off). Fully virtual-time: two consecutive runs are byte-identical,
# and a failed isolation gate exits nonzero.
bench-serve:
	$(GO) run ./cmd/hmrepro -serve -bench-serve BENCH_serve.json

# bench-tiers regenerates the committed memory-chain depth snapshot
# from the full-scale X14 sweep: the Fig 8 stencil and Fig 9 matmul
# overflow points on 2-/3-/4-tier chains (+NVM, +remote pool) under
# the DeclOrder and Lookahead victim policies. Fully virtual-time: two
# consecutive runs are byte-identical, and a failed widening-advantage
# gate exits nonzero.
bench-tiers:
	$(GO) run ./cmd/hmrepro -tiers -bench-tiers BENCH_tiers.json

# bench-tune regenerates the committed closed-loop tuning snapshot from
# the full-scale X15 figure: the offline autotuner's verdict over a
# capture of the X10 shift workload, and warm-started vs cold
# time-to-settle on every X9 operating point. Fully virtual-time: two
# consecutive runs are byte-identical, and a failed gate (warm start
# not strictly faster somewhere, or a non-lookahead verdict) exits
# nonzero.
bench-tune:
	$(GO) run ./cmd/hmrepro -tune -bench-tune BENCH_tune.json

# ENGINE_FIELDS projects BENCH_engine.json onto its deterministic
# fields: the event counts of each engine row, the serve row's shape,
# and the cluster leg's identity bit and virtual results. The
# wall-clock fields vary host to host and stay unchecked.
ENGINE_FIELDS = {engine: [.engine[] | {tasks, events_scheduled, events_cancelled, events_reused}], serve: (.serve | {sessions, tenants, tasks, windows}), cluster: (.cluster | {nodes, byte_identical, virtual_makespan_s, fabric_messages, windows})}

# bench-check guards the committed deterministic snapshots against
# drift: regenerate each into a temp file and fail on any byte
# difference from the committed copy. BENCH_engine.json is wall-clock
# by design, so only its ENGINE_FIELDS projection is compared (needs
# jq). Runs the full-scale figures, so it is the slow, thorough gate
# (CI runs the small-scale sweep separately).
bench-check:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/hmrepro -adapt -bench-adapt $$tmp/BENCH_adapt.json >/dev/null; \
	$(GO) run ./cmd/hmrepro -evict -bench-evict $$tmp/BENCH_evict.json >/dev/null; \
	$(GO) run ./cmd/hmrepro -replay -bench-trace $$tmp/BENCH_trace.json >/dev/null; \
	$(GO) run ./cmd/hmrepro -serve -bench-serve $$tmp/BENCH_serve.json >/dev/null; \
	$(GO) run ./cmd/hmrepro -tiers -bench-tiers $$tmp/BENCH_tiers.json >/dev/null; \
	$(GO) run ./cmd/hmrepro -tune -bench-tune $$tmp/BENCH_tune.json >/dev/null; \
	$(GO) run ./cmd/hmrepro -engine -bench-engine $$tmp/BENCH_engine.json >/dev/null; \
	rc=0; \
	for f in BENCH_adapt.json BENCH_evict.json BENCH_trace.json BENCH_serve.json BENCH_tiers.json BENCH_tune.json; do \
		if ! cmp -s "$$f" "$$tmp/$$f"; then echo "bench-check: $$f drifted from a fresh run"; rc=1; fi; \
	done; \
	jq -S '$(ENGINE_FIELDS)' BENCH_engine.json > $$tmp/engine.want && \
	jq -S '$(ENGINE_FIELDS)' $$tmp/BENCH_engine.json > $$tmp/engine.got && \
	cmp -s $$tmp/engine.want $$tmp/engine.got || { echo "bench-check: BENCH_engine.json deterministic fields drifted from a fresh run"; rc=1; }; \
	[ $$rc -eq 0 ] && echo "bench-check: committed snapshots match fresh runs"; \
	exit $$rc
