# Tier-1 verification plus the extra checks CI runs. Go only; no
# external tools required (staticcheck is fetched through the module
# proxy when reachable and skipped otherwise).

GO ?= go
GOFMT ?= gofmt
STATICCHECK_VERSION ?= 2023.1.7
STATICCHECK := $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)

.PHONY: ci verify fmt vet staticcheck lint lint-fixtures inline-check escape-check race bench bench-smoke bench-tenants bench-heat bench-check bench-diff examples clean

# Everything CI gates on.
ci: verify fmt vet staticcheck lint inline-check escape-check race bench-smoke bench-tenants bench-heat bench-check examples

# Tier-1: the whole tree must build and every test must pass.
verify:
	$(GO) build ./...
	$(GO) test ./...

# Every tracked Go file must be gofmt-clean; the listed files need
# `gofmt -w`.
fmt:
	@out=$$($(GOFMT) -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then \
		echo "fmt: gofmt -w these files:" >&2; \
		echo "$$out" >&2; \
		exit 1; \
	fi

# vet's copylocks analyzer is the tree's lock-copy check.
vet:
	$(GO) vet ./...

# Pinned staticcheck, probed first so an offline machine (no module
# proxy) degrades to a warning instead of a hard failure; when the probe
# succeeds, findings fail the build as usual.
staticcheck:
	@if $(STATICCHECK) -version >/dev/null 2>&1; then \
		$(STATICCHECK) ./...; \
	else \
		echo "staticcheck: module proxy unreachable, skipping (pin: $(STATICCHECK_VERSION))"; \
	fi

# In-tree static analysis (internal/lint via cmd/colloidlint): six
# typed checks enforcing the determinism and convention contracts — no
# wall clocks, global math/rand, env reads or order-dependent map
# iteration (float folds included) on simulation paths, stats.RNG-only
# seed flow, "<pkg>: " diagnostic prefixes, obs name grammar, no RNG
# capture or captured writes in goroutines, no stale suppressions.
# Stdlib-only, so unlike staticcheck it runs even with no module proxy.
# colloidlint exits 1 on findings and 2 when the tree does not parse or
# type-check; the binary is built first because `go run` turns every
# nonzero status into 1. The target exits with colloidlint's own
# status, so the failure survives `make -k`/`make ci` composition
# instead of scrolling past.
lint:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/colloidlint" ./cmd/colloidlint || exit 2; \
	"$$dir/colloidlint" ./...; status=$$?; \
	case $$status in \
	0) ;; \
	1) echo "lint: findings above; fix them or add a reasoned //colloid:allow <check> <reason>" >&2 ;; \
	*) echo "lint: colloidlint could not load the tree; fix the error above (no findings were checked)" >&2 ;; \
	esac; \
	exit $$status

# Fast iteration loop for check development: only the lint engine's own
# tests (fixture golden file, injected-violation probes, driver flags).
lint-fixtures:
	$(GO) test ./internal/lint/ ./cmd/colloidlint/

# The small functions on the per-sample path must stay inlinable: the
# generator step and its float draw, the sampler's bucket and scan, a
# page's range check and tier read, and HeMem's bin index. Each is a
# file and a function the compiler's -m report must call `can inline`;
# an edit that puts a call back on every draw fails here, not in a noisy
# end-to-end run. Float64 sits 5 under the inlining budget of 80, and
# Tier, with check inlined into it, 1 under.
INLINE_FUNCS := \
	'internal/stats/rng.go:(*RNG).Uint64' \
	'internal/stats/rng.go:(*RNG).Float64' \
	'internal/access/access.go:(*Sampler).bucket' \
	'internal/access/access.go:(*Sampler).scan' \
	'internal/pages/pages.go:(*AddressSpace).check' \
	'internal/pages/pages.go:(*AddressSpace).Tier' \
	'internal/hemem/hemem.go:(*System).binIndex'

inline-check:
	@out=$$($(GO) build -gcflags=-m ./internal/stats/ ./internal/access/ ./internal/pages/ ./internal/hemem/ 2>&1) || { \
		echo "$$out" >&2; exit 1; \
	}; \
	out=$$(echo "$$out" | sed -E 's/:[0-9]+:[0-9]+: /: /'); \
	fail=0; \
	for want in $(INLINE_FUNCS); do \
		file=$${want%%:*}; fn=$${want#*:}; \
		echo "$$out" | grep -qxF "$$file: can inline $$fn" || { \
			echo "inline-check: $$fn in $$file no longer inlines" >&2; fail=1; \
		}; \
	done; \
	exit $$fail

# The packages a quantum runs through must make no closure that
# escapes: a func literal handed to a callee that keeps it (shard.Run,
# a tracker's AppendHot or ForEachHottest) allocates on every call. Bind such
# callbacks once as method values, with their inputs in fields, as the
# trackers bind their passes. Fails on any line of the compiler's -m
# report that says "func literal escapes to heap", printed as file:line.
ESCAPE_PKGS := ./internal/access/ ./internal/cha/ ./internal/core/ ./internal/heat/ \
	./internal/hemem/ ./internal/memtis/ ./internal/migrate/ ./internal/tpp/

escape-check:
	@out=$$($(GO) build -gcflags=-m $(ESCAPE_PKGS) 2>&1) || { \
		echo "$$out" >&2; exit 1; \
	}; \
	bad=$$(echo "$$out" | grep 'func literal escapes to heap' | sed -E 's/^([^:]+:[0-9]+):[0-9]+: .*/\1/' | sort -u); \
	if [ -n "$$bad" ]; then \
		echo "escape-check: func literals escape to the heap; bind them once as method values:" >&2; \
		echo "$$bad" >&2; \
		exit 1; \
	fi

# Race-detector pass over the parallel experiment runner, the engine,
# the scenario/fault-injection subsystem, the migration engine, the
# address space, (since the sharded per-quantum pipeline) the access
# sampler/tracker and the shard harness, the multi-tenant cluster
# engine, the region-granularity heat tracker, and the root sharded
# golden tests. -short skips the long shape tests but not the runner's
# parallel-vs-serial determinism tests or the sharded-step path.
race:
	$(GO) test -race -short ./internal/experiments/ ./internal/sim/ ./internal/scenario/ ./internal/migrate/ ./internal/pages/ ./internal/access/ ./internal/shard/ ./internal/tenant/ ./internal/heat/
	$(GO) test -race -short -run 'TestGoldenPlacementTraces|TestGoldenTenantTraces' .

# Headline figure metrics as benchmarks.
bench:
	$(GO) test -bench=. -benchmem

# One-iteration smoke of the instrumentation-overhead benchmark: proves
# the obs plumbing still runs end to end without paying for a full
# benchstat-quality measurement. Also one iteration of the sampler
# benchmark (Sample against SampleN, ns per draw), of HeMem's Colloid
# walk (ns and allocs per walk, which must stay 0; perfbench has no
# per-walk row), of one quantum of HeMem's PEBS sampling on a
# paper-gups-sized space (ns per sample: draw, touch and classify),
# of a GUPS hot-set shift on 2^20 pages with the sampler rebuild it
# forces (ns and allocs per shift; the rebuild allocates nothing, so
# the one allocation is the shift's permutation prefix), of HeMem's
# cooling rebuild of its lists on the same warmed paper-gups-sized
# space (ns per page and allocs per rebuild, which must stay 0) and of
# the region tracker's kmigrated query pair on a warmed 2^20-page
# region/64 tracker (one BytesByCount into a 257-bucket histogram plus
# one capped AppendHot: ns and allocs per pair, which must stay 0), so
# they keep compiling and running.
bench-smoke:
	$(GO) test -run '^$$' -bench=ObsOverhead -benchtime=1x .
	$(GO) test -run '^$$' -bench='^BenchmarkSampler$$' -benchtime=1x ./internal/access/
	$(GO) test -run '^$$' -bench='^BenchmarkColloidWalk$$' -benchtime=1x -benchmem ./internal/hemem/
	$(GO) test -run '^$$' -bench='^BenchmarkSamplePEBS$$' -benchtime=1x -benchmem ./internal/hemem/
	$(GO) test -run '^$$' -bench='^BenchmarkCoolingRebuild$$' -benchtime=1x -benchmem ./internal/hemem/
	$(GO) test -run '^$$' -bench='^BenchmarkShiftHotSet$$' -benchtime=1x -benchmem ./internal/workloads/
	$(GO) test -run '^$$' -bench='^BenchmarkRegionBulkQueries$$' -benchtime=1x -benchmem ./internal/heat/

# One-iteration smoke of the multi-tenant cluster: the quick tenants
# experiment (8 tenants, both arbitration policies, heat modes exact +
# qos — the latter runs region/64 and region/1024 trackers, so the
# coarse-tracking seam is exercised — plus the 10^6-page scale arm)
# through the standard runner. For real numbers run
# `go run ./cmd/colloidsim -exp tenants` (100 tenants x 10^5 pages,
# full heat axis, 10^8-page scale arm).
bench-tenants:
	$(GO) test -run '^$$' -bench='^BenchmarkTenants$$' -benchtime=1x .

# One-iteration smoke of the heat-tracking family: the quick fidelity
# ablation (exact vs region granularities 1/4/64/1024 plus a chained
# forecaster) and the region-tracker scale arm through the standard
# runner. For real numbers run `go run ./cmd/colloidsim -exp heat`
# (2^24-page scale arm).
bench-heat:
	$(GO) test -run '^$$' -bench='^BenchmarkHeat$$' -benchtime=1x .

# The repository benchmark (perfbench/) is its own module, so `verify`
# and `vet` never compile it; vet and test it here so an engine change
# that breaks one of its call sites fails CI, not the next benchmark
# run.
bench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Compare perfbench outputs of the parent commit and a change, paired by
# the workload and seed in each file's header (cmd/benchdiff): medians,
# quartiles, wins and a verdict per end-to-end metric against the bounds
# in BENCHMARK.json, plus check-digest equality. Fails on a metric worse
# than its bound, a digest difference or an incorrect run. Example:
#   make bench-diff PARENT='runs/parent-*.txt' CHANGE='runs/change-*.txt'
bench-diff:
	$(GO) run ./cmd/benchdiff -parent '$(PARENT)' -change '$(CHANGE)' -bench BENCHMARK.json

# Build and run every example program; a non-zero exit fails. No test
# runs them, and they build each tiering system from its zero Config,
# so a fixed parameter that goes missing shows up here.
examples:
	@for pkg in $$($(GO) list ./examples/...); do \
		echo "examples: $$pkg"; \
		$(GO) run "$$pkg" >/dev/null || { echo "examples: $$pkg failed" >&2; exit 1; }; \
	done

clean:
	rm -f BENCH_*.json
