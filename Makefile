# Build/test/benchmark entry points. The E8 set is the native-engine
# benchmark suite of DESIGN.md's per-experiment index: commit-pipeline
# ablation (clock strategies × timestamp extension), contention sweeps,
# and the transactional-container regressions.

GO ?= go

# PR names the committed perf-baseline label: bench-baseline writes
# BENCH_$(PR).json and bench-diff/bench-gate read it. Override per PR
# line (make bench-baseline PR=PR9) instead of hand-editing the recipes.
PR ?= PR7
BASELINE = BENCH_$(PR).json

# -cpu 4 pins the GOMAXPROCS≥4 regime the contention benchmarks target;
# -count 8 gives benchdiff's min-vs-min gate a usable per-cell minimum —
# on a shared host the per-run distribution is heavy-tailed upward (true
# spreads of 40%+ were measured on cells whose 5-run range looked like
# 15%), and the minimum of too few samples lands in the tail often enough
# to fail one arbitrary cell per gate run; 0.2s per benchmark keeps the
# full sweep under ten minutes. The set covers E8 (commit
# pipeline, containers), the native E9 scenarios (ordered-index scans,
# reservations), the native E10 read-mostly serving scenario plus the
# read-only fast-path acceptance pair (BenchmarkROFastPath), the native
# E11 long-scan/HTAP scenario (stm vs stm/mvstm), the native E12
# hostile-tenant scenario (baseline/unmetered/metered cells), and the
# native STAMP-shaped trio — E13 graph routing (write-set promotion),
# E14 clustering (contended point RMWs), E15 pipeline (stm.Queue
# blocking handoff); benchdiff ignores names absent from an older
# baseline.
E8_BENCH = BenchmarkE8|BenchmarkE9Native|BenchmarkE10Native|BenchmarkE11Native|BenchmarkE12Hostile|BenchmarkE13GraphRouting|BenchmarkE14Clustering|BenchmarkE15Pipeline|BenchmarkROFastPath|BenchmarkVarContended|BenchmarkContentionSweep|BenchmarkMapDisjointPut|BenchmarkMapMixed|BenchmarkOrderedMap
# -benchmem records B/op and allocs/op in every baseline — the input the
# bench-gate zero-allocation assertion reads.
E8_FLAGS = -run '^$$' -bench '$(E8_BENCH)' -benchtime 0.2s -count 8 -cpu 4 -benchmem -timeout 30m

# ZEROALLOC names the steady-state cells that must never allocate: the
# single-writer mvstm snapshot cells of the E11 HTAP scan (pooled version
# chains) and both read-only fast-path cells. bench-gate fails if any of
# them reports a nonzero allocs/op. The writers=4 mvstm cells are
# deliberately excluded: at -cpu 4 they run five pinned goroutines on four
# Ps, so one is always descheduled mid-pin, freezing the epoch floor for a
# scheduler quantum while the running writers retire chains — the retired
# lists overflow and drop to the GC by design (see "Pooled version chains"
# in DESIGN.md; buffering past a quantum just trades the misses for GC
# pressure).
ZEROALLOC = E11NativeScan/.*writers=1/engine=mvstm|BenchmarkROFastPath

.PHONY: test race server-test bench-e8 bench-baseline bench-diff bench-gate bench-scaling fuzz-smoke overhead-smoke docs-check

test:
	$(GO) build ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

# server-test is the serving-tier gate the CI server job runs: the
# internal/server integration suite (including the Prometheus exposition
# golden test), the observability packages, and the tmserve/tmstat wiring
# under -race, then a tmload smoke sweep against in-process servers and
# one iteration of the backend microbenchmark cells.
server-test:
	$(GO) test -race -count=1 ./internal/server ./internal/loghist ./internal/telemetry \
	  ./cmd/tmserve ./cmd/tmload ./cmd/tmstat
	$(GO) run ./cmd/tmload -smoke
	$(GO) run ./cmd/tmload -smoke -engine mvstm
	$(GO) test -run '^$$' -bench 'BenchmarkBackend' -benchtime=1x -benchmem ./internal/server

# bench-e8 runs the E8 suite once and leaves the raw output in
# bench_e8.txt (also the input format benchdiff accepts as -new).
bench-e8:
	$(GO) test $(E8_FLAGS) . ./stm | tee bench_e8.txt

# bench-baseline records the committed perf baseline for this PR line:
# re-runs the E8 suite and regenerates BENCH_$(PR).json. Commit the
# result so later PRs have a trajectory to compare against.
bench-baseline:
	$(GO) test $(E8_FLAGS) . ./stm | tee bench_e8.txt
	$(GO) run ./cmd/benchjson -in bench_e8.txt -label $(PR) \
	  -command "go test $(E8_FLAGS) . ./stm" -out $(BASELINE)

# bench-diff compares a fresh E8 run against the committed baseline;
# report-only (never fails on a regression).
bench-diff:
	$(GO) test $(E8_FLAGS) . ./stm > bench_new.txt
	$(GO) run ./cmd/benchdiff -baseline $(BASELINE) -new bench_new.txt

# bench-gate is the enforcing variant: passing -threshold makes benchdiff
# exit non-zero when an ns/op regression survives its noise calibrations
# (min-vs-min comparison, suite-median era-shift normalization, per-cell
# spread tolerance — see cmd/benchdiff), and -zeroalloc fails the run if
# any steady-state cell allocates in every -count run. The 25% threshold
# is calibrated to the measured same-source residual ceiling on a shared
# host: repeated baseline-vs-gate pairs of IDENTICAL code left ~20%
# residuals on some cell nearly every run, so gating below that only
# measures the neighbors. Run it on hardware comparable to the committed
# baseline; the CI job deliberately stays report-only because shared
# runners make wall-clock deltas noise (the allocation assertion, by
# contrast, is hardware-free).
bench-gate:
	$(GO) test $(E8_FLAGS) . ./stm > bench_new.txt
	$(GO) run ./cmd/benchdiff -baseline $(BASELINE) -new bench_new.txt \
	  -threshold 0.25 -zeroalloc '$(ZEROALLOC)'

# bench-scaling is the high-core commit-pipeline scaling row: the
# contended clock-strategy sweep and the E11 HTAP scan at -cpu 16 and 32,
# where the GV7 block allocator's fetch-add amortization separates from
# GV4's per-commit CAS. Report-only; compare the -16/-32 rows by eye or
# feed scaling.txt to benchstat.
bench-scaling:
	$(GO) test -run '^$$' -bench 'BenchmarkVarContended|BenchmarkE11NativeScan' \
	  -benchtime 0.2s -count 3 -cpu 16,32 -benchmem -timeout 30m . ./stm | tee scaling.txt

# fuzz-smoke runs each fuzz target briefly against the differential models
# (the same invocations as the CI fuzz job): the containers against plain
# maps, the mvstm engine against a model map with a pinned-snapshot
# reader racing writers and the GC, the metering layer against the
# unmetered engine (a refusal must change nothing, a commit everything),
# and the contention sketch against a sequential frequency model (the
# space-saving overestimate bound must hold on arbitrary id streams).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzMap$$' -fuzztime 10s ./stm
	$(GO) test -run '^$$' -fuzz '^FuzzOrderedMap$$' -fuzztime 10s ./stm
	$(GO) test -run '^$$' -fuzz '^FuzzMVStm$$' -fuzztime 10s ./stm/mvstm
	$(GO) test -run '^$$' -fuzz '^FuzzBudget$$' -fuzztime 10s ./stm
	$(GO) test -run '^$$' -fuzz '^FuzzSketch$$' -fuzztime 10s ./internal/telemetry

# overhead-smoke is the telemetry A/B gate mirroring the PR 6 metering
# discipline: the uncontended transaction round-trip with telemetry off
# vs with a sketch installed and a sparse latency-sampling period, must
# differ by under 3% (interleaved min-of-N, see stm/overhead_test.go).
# Env-gated so `go test ./...` stays deterministic on loaded machines;
# run it on quiet hardware when touching the engines' begin/commit paths.
overhead-smoke:
	TM_OVERHEAD_SMOKE=1 $(GO) test -run '^TestTelemetryOffOverhead$$' -count=1 -v ./stm

# docs-check keeps the documentation executable: formatting, vet, and
# every Example function in the repository (the README quickstart mirrors
# ExampleAtomically, so a rotted example fails CI here).
docs-check:
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
	  echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	$(GO) vet ./...
	$(GO) test -run Example ./...
