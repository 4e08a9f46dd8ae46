GO ?= go

# Per-target budget for the fuzz smoke; thirteen targets keep the whole pass
# around 65 seconds.
FUZZ_TIME ?= 5s

# Minimum total statement coverage; CI fails below this. Raise it when
# coverage durably improves, never lower it to make a PR pass.
COVER_BASELINE ?= 78.5

.PHONY: build vet test race faults check debug-assert bench bench-json bench-smoke bench-gate serve-smoke collect-smoke fuzz-smoke cover stat-suite stat-smoke perfbench-check experiments-check loc

build:
	$(GO) build ./...

# go vet, then fail when any Go file (the nested perfbench module included)
# is not gofmt-clean, naming the files.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; \
	fi

test:
	$(GO) test ./...

# The full suite under the race detector; includes the fault-injection
# suite (internal/faults, internal/atomicio, internal/csvio robustness
# tests, internal/core pipeline tests, CLI exit-code tests).
race:
	$(GO) test -race ./...

# Just the fault-injection and robustness suite, race-enabled.
faults:
	$(GO) test -race \
		./internal/faults/ ./internal/atomicio/ ./internal/csvio/ ./internal/core/ \
		./internal/collect/ ./cmd/privateclean/

# End-to-end smoke of the query service: privatize a sample, start
# `privateclean serve`, POST a query, scrape /metrics, SIGTERM cleanly.
serve-smoke:
	sh tools/serve-smoke.sh

# Crash smoke of the LDP collector: ship reports, kill -9 mid-stream,
# restart in the same directory, re-ship, assert byte-identical statistics.
collect-smoke:
	sh tools/collect-smoke.sh

# Brief native-fuzz pass over every target, starting from the committed
# seed corpora in testdata/fuzz. Catches shallow panics and round-trip
# regressions; long fuzzing campaigns stay manual (-fuzztime 10m).
fuzz-smoke:
	$(GO) test ./internal/query/ -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/query/ -run '^$$' -fuzz '^FuzzCompilePredicate$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/query/ -run '^$$' -fuzz '^FuzzQueryAcrossSources$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/csvio/ -run '^$$' -fuzz '^FuzzRead$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/csvio/ -run '^$$' -fuzz '^FuzzReadPolicies$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/csvio/ -run '^$$' -fuzz '^FuzzMetaJSON$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/csvio/ -run '^$$' -fuzz '^FuzzProvenanceJSON$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/colstore/ -run '^$$' -fuzz '^FuzzColstoreRead$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/privacy/ -run '^$$' -fuzz '^FuzzMechanismMeta$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/estimator/ -run '^$$' -fuzz '^FuzzResidentCacheIdentity$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/estimator/ -run '^$$' -fuzz '^FuzzSelectionValueSet$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/collect/ -run '^$$' -fuzz '^FuzzBatchCodec$$' -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/collect/ -run '^$$' -fuzz '^FuzzFoldMatchesReference$$' -fuzztime $(FUZZ_TIME)

# The benchmark harness is a nested module, so `go test ./...` never builds
# it: vet and unit-test it, then run query-resident and ingest for two
# seconds each and require the last output line to report a correct run
# with no failed operations.
perfbench-check:
	$(GO) -C perfbench vet ./...
	$(GO) -C perfbench test ./...
	@for w in query-resident ingest; do \
		line=$$(sh perfbench/run.sh --workload $$w --seed 1 --seconds 2 --trace 0 | tail -n 1); \
		echo "$$w: $$line"; \
		case "$$line" in \
		*'"correct":true,'*'"failed":0,'*) ;; \
		*) echo "perfbench-check: $$w did not report a correct run with zero failed operations"; exit 1 ;; \
		esac; \
	done

# Regenerate every table and figure (seed 1, 100 trials per point, about
# half a minute) and diff the output against the committed
# experiments_output.txt, skipping only the wall-clock [perf] block.
experiments-check:
	GO=$(GO) sh tools/experiments-check.sh

# The code-size measure ROADMAP tracks: non-test Go lines outside the
# benchmark harness (perfbench/) and the build tools (tools/).
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './perfbench/*' ! -path './tools/*' -exec cat {} + | wc -l

# Full-suite statement coverage, gated against COVER_BASELINE.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1
	@total=$$($(GO) tool cover -func=coverage.out | tail -1 | sed 's/[^0-9.]*\([0-9.]*\)%$$/\1/'); \
	ok=$$(awk -v t="$$total" -v b="$(COVER_BASELINE)" 'BEGIN { print (t+0 >= b+0) ? 1 : 0 }'); \
	if [ "$$ok" != 1 ]; then \
		echo "coverage $$total% is below the $(COVER_BASELINE)% baseline"; exit 1; \
	fi

# Re-run the packages that read cached dictionary encodings with the
# pcdebug build tag, which turns every cache hit into a full staleness
# assertion (see internal/relation/debug_on.go), and the collector, whose
# every fold from retained columns then re-reads and decodes its WAL
# segment and panics on any difference (internal/collect/debug_on.go).
debug-assert:
	$(GO) test -tags pcdebug ./internal/relation/ ./internal/cleaning/ ./internal/estimator/ ./internal/colstore/ ./internal/collect/

# The statistical regression suites across the mechanism matrix: chi-square
# goodness-of-fit on each mechanism's sampling distribution, and Monte-Carlo
# unbiasedness + CI coverage of the estimators under GRR, k-RR, and binary
# RR. Already part of `race` (they are ordinary tests), but this names the
# mechanism-matrix slice for a quick pre-merge run after touching
# internal/privacy or internal/estimator math.
stat-suite:
	$(GO) test ./internal/privacy/ -run 'ChiSquare|FlipRate|Statistical' -count=1
	$(GO) test ./internal/estimator/ -run 'Statistical|Coverage' -count=1

# Reduced-depth statistical smoke for the pre-commit path: the same rows and
# pinned seeds, capped at 8 Monte-Carlo trials per row via PC_STAT_TRIALS
# (the statcheck harness skips coverage-band assertions below full depth, so
# this checks unbiasedness and power only). Runs in seconds; the full-depth
# matrix runs in CI as stat-suite and inside `make test`/`make race`.
stat-smoke:
	PC_STAT_TRIALS=8 $(GO) test ./internal/privacy/ -run 'ChiSquare|FlipRate|Statistical' -count=1
	PC_STAT_TRIALS=8 $(GO) test ./internal/estimator/ -run 'Statistical|Coverage' -count=1

# What CI runs. The race pass already covers the statistical matrix at full
# depth; stat-smoke here keeps a fast named slice for pre-commit loops.
check: build vet race fuzz-smoke stat-smoke debug-assert

bench:
	$(GO) test -bench=. -benchmem

# Machine-readable pipeline benchmarks: the figure reproductions, the
# end-to-end privatize job, and the CSV-vs-.pcol load/query pairs, as JSON
# (raw benchstat-compatible lines included).
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkFigure|BenchmarkPrivatizeJob|BenchmarkLoadCSV|BenchmarkLoadColstore|BenchmarkQueryCSV$$|BenchmarkQueryColstore' -benchmem . \
		| $(GO) run ./tools/benchjson > BENCH_pipeline.json

# Quick regression check against the committed baseline: a short-mode run of
# the privatize benchmarks diffed report-only (never fails the build; shared
# runners are too noisy for a hard gate — eyeball the Δ columns).
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkPrivatize' -benchmem -benchtime 10x -short . \
		| $(GO) run ./tools/benchjson \
		| $(GO) run ./tools/benchdiff -baseline BENCH_pipeline.json -current - -ignore-missing

# Hard benchmark gate: re-run the Figure-2 pipeline benchmarks at full
# benchtime, three times each, and fail when the best of the three
# regresses ns/op by more than 10% against the committed
# BENCH_pipeline.json (benchdiff keeps the minimum per benchmark, so one
# descheduled run cannot fail the build). Figure 2 is the hot query loop
# (privatize + estimate sweep), so it is the one gated hard; the noisier
# end-to-end jobs stay report-only in bench-smoke.
bench-gate:
	$(GO) test -run '^$$' -bench 'BenchmarkFigure2' -benchmem -count 3 . \
		| $(GO) run ./tools/benchjson \
		| $(GO) run ./tools/benchdiff -baseline BENCH_pipeline.json -current - -ignore-missing -max-regress 0.10
