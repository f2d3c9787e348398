# Pre-merge gate and common development targets.  `make check` is the full
# gate: vet, build, race-enabled tests, a one-iteration pass over every
# benchmark (catches bit-rot in benchmark code without paying for timing),
# and the aptlint self-smoke over all of testdata/.

GO ?= go

.PHONY: check vet build test determinism race race-engine race-pool race-serve race-cluster race-guards serve-smoke cluster-smoke obs-check wire-fuzz fuzzfarm-smoke bench-build bench-pairs bench bench-json bench-dfa bench-intern bench-incr bench-fuzzfarm lintsmoke allocs figure7 loc clean

check: vet build bench-build race bench lintsmoke serve-smoke cluster-smoke race-cluster obs-check fuzzfarm-smoke determinism

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Schedule independence: verdicts and cache contents must not depend on
# goroutine scheduling.  Run the engine-vs-sequential differential, the
# swap-symmetry tests, the missing-axiom-set test (whose set-less queries
# may open any chunk), the two cache-contents tests (walk.{c,q} and
# swap.{c,q} from testdata/determinism in order, reversed, and at four
# workers must leave equal DFA-cache and proof-memo dumps) and the
# history test (a prover's proof of a goal equals a fresh prover's,
# whatever it searched before) at several GOMAXPROCS values.
determinism:
	$(GO) test -cpu 1,2,8 -count 20 -run 'TestDifferentialAgainstSequential|TestSharedCacheContentsScheduleIndependent|TestMemoContentsScheduleIndependent|Swap|TestNilAxiomsAnsweredMaybe|TestProofIndependentOfHistory' \
		./internal/engine ./internal/scenario ./internal/automata ./internal/core ./internal/prover

# Focused race coverage for the batched query engine and everything it
# leans on (worker pool, shared DFA cache).
race-engine:
	$(GO) test -race ./internal/engine ./internal/parallel ./internal/automata

# The pool's concurrency tests synchronize through explicit channels (no
# sleeps), so hammering them under the race detector is cheap and
# deterministic.
race-pool:
	$(GO) test -race -count=50 ./internal/parallel

# Soak the long-lived query server under the race detector: 8 concurrent
# clients, mixed deadlines, several axiom sets over capped caches, then a
# drain overlapping a fresh request wave; scrapes of both metrics
# endpoints racing cold batches over many axiom sets (the registry's gauge
# functions must run outside its lock); and 8 goroutines sending the same
# program-mode request, then the same raw-mode requests alongside a
# program-mode one, through the pool's request table at once.
race-serve:
	$(GO) test -race -count=3 -run 'TestSoak|TestDrain|TestAdmission|TestScrapeDuringColdBuilds|TestRawTableConcurrent|TestProgramTableConcurrent' ./internal/serve ./internal/exec

# Soak the routing tier's trickiest interleavings under the race detector:
# hedge accounting (no double-counted completions, losers canceled) and
# drain racing a hedged request.  The tests synchronize through channel
# handshakes, so 50 iterations stay cheap and deterministic.
race-cluster:
	$(GO) test -race -count=50 -run 'Hedge|AllBackendsDraining' ./internal/route

# Cluster smoke: two backend daemons plus a router daemon in one process,
# a batch routed end to end, one SIGTERM draining all three with exit 0 —
# plus the scenario farm's verdict parity through a live router.
cluster-smoke:
	$(GO) test -run 'TestClusterSmokeAndDrain' -v ./cmd/aptserved
	$(GO) test -run 'TestFarmServeParityThroughRouter' ./internal/scenario

# Soundness oracle for the path-sensitivity layer: every guard-upgraded
# verdict claims two accesses lie on mutually exclusive paths; the oracle
# enumerates every conforming concrete heap up to a bound and runs the
# program under every boolean input, asserting no execution reaches both
# accesses — plus adversarial variants that must NOT upgrade.  Also
# analyses sharing one (evicting) DFA cache from 8 goroutines, each of
# which must match its private-cache result.
race-guards:
	$(GO) test -race -run 'TestGuardUpgradeOracle|TestOracleCorpus|TestEnumerateGraphs|TestEnumerateConforming|TestClone|TestForEachRun|TestSweep|TestConflict|TestChecker|TestAnalyzeSharedCacheMatchesPrivate|TestGuardPredicatesPerWalk' ./internal/lint ./internal/heap ./internal/heap/oracle ./internal/analysis

# End-to-end daemon smoke: boot aptserved on a loopback port, round-trip
# /healthz + /v1/batch + both metrics endpoints, SIGQUIT-dump the flight
# recorder, then SIGTERM-drain it.
serve-smoke:
	$(GO) test -run 'TestServerSmokeAndDrain' -v ./cmd/aptserved

# Observability gate: the Prometheus exposition golden + validator, the
# counters-never-go-backwards scrape test, the traceparent/span-tree tests,
# aptdep's and aptlint's trace-schema tests (aptdep sequentially and with
# -batch, aptlint one-shot and incremental: one streamed tree whose only
# root spans are its pipeline phases), a 50-iteration race soak of the lock-free
# flight recorder and of admission's Retry-After completion count, the allocation guards —
# zero allocations for disabled tracing and a nil Set handed down a layer, warm hits and a
# Retry-After estimate, two for a cold
# language decision, at most seven to decode the raw-mode golden request,
# none to resolve a raw-mode or a program-mode request through a warm
# request table, none to append a response into a reused buffer, and at
# most the counts measured at the change that made them to serve a warm
# program-mode and a warm raw-mode request —
# (which -race would skew, hence the separate non-race invocation), the count-once test (one drive moves
# every registry counter the engine, caches and admission book), and the
# one-span-model test (a streaming and a retaining trace of one batch,
# each handed to it in a telemetry.Set, hold the same spans with the same
# parents, and an engine streaming on its own Set puts every proof and
# query event under an engine.worker).
obs-check:
	$(GO) test -run 'TestWritePrometheus|TestValidatePrometheus|TestGaugeFunc|TestTraceparent|TestRequestTrace|TestStreamingTrace|TestMetricsPrometheus|TestMetricsCountersNeverGoBackwards|TestAccessLog' \
		./internal/telemetry ./internal/serve
	$(GO) test -run 'TestTraceJSONSchema' ./cmd/aptdep ./cmd/aptlint
	$(GO) test -race -count=50 -run 'TestFlightRecorder|TestConcurrentFinishCountsExact' ./internal/telemetry ./internal/admit
	$(GO) test -run 'TestDisabledObservabilityAllocations|TestWarmHitAllocationBudget|TestCutsAllocationBudget|TestColdDecisionAllocations|TestCompileAllocations|TestSummaryAllocations|TestFrontEndAllocations|TestDecodeRequestAllocations|TestRetryAfterAllocations|TestRawResolveAllocations|TestProgramResolveAllocations|TestWriteResponseAllocations|TestWarmRequestAllocations' \
		./internal/telemetry ./internal/engine ./internal/prover ./internal/automata ./internal/analysis ./internal/wire ./internal/admit ./internal/exec ./internal/serve
	$(GO) test -race -run 'TestDegradedCountersSplitByReason|TestCountOnce|TestOneSpanModel' ./internal/engine

# Differential fuzzing of the /v1/batch codec: every input decodes through
# internal/wire's decoder and through encoding/json into method-less copies
# of the types, and both must fail or both yield equal values; every
# generated response encodes through AppendResponse to encoding/json's
# bytes (HTML escaping off), trailing newline included.
wire-fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRequest$$' -fuzztime 20s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeResponse$$' -fuzztime 20s ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzEncodeResponse$$' -fuzztime 20s ./internal/wire

# Fixed-seed differential fuzzing smoke: generate scenario programs over all
# five structure families, check every No verdict against the concrete and
# enumerated-heap oracles (a No with a conflicting access pair on a
# conforming heap is a soundness divergence; Maybe and Yes are not checked),
# and replay the committed regression corpus.  Any divergence, or a program
# that fails to execute, is a failure, and so is a seed-1 report that differs
# from testdata/fuzz/smoke_report.json in anything but its timings.
fuzzfarm-smoke:
	$(GO) run ./cmd/aptfuzz -seed 1 -n 50
	$(GO) test -count=1 -run 'TestFarmSmoke$$' ./internal/scenario
	$(GO) run ./cmd/aptfuzz -repro testdata/fuzz/regressions

bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Interleaved base/change pairs of the repository benchmark: BASE's committed
# files against the working tree, PAIRS runs each at RUN_SECONDS, alternating
# which side runs first; prints each side's quartiles per end-to-end metric
# and whether the nine-in-ten gain rule holds.  For a gain claim:
#   make bench-pairs BASE=HEAD~1 WORKLOAD=compile-cold PAIRS=10 RUN_SECONDS=10
BASE ?= HEAD
WORKLOAD ?= compile-cold
PAIRS ?= 10
RUN_SECONDS ?= 10
SEED ?= 1
bench-pairs:
	bash scripts/benchpairs.sh $(BASE) $(WORKLOAD) $(PAIRS) $(RUN_SECONDS) $(SEED)

# The end-to-end benchmark (perfbench/) is a nested module, so the root's
# vet and build never reach it.  Vet and build it against this tree's
# packages, offline, so an API change it depends on fails here first.
bench-build:
	cd perfbench && GOWORK=off GOPROXY=off $(GO) vet ./... && GOWORK=off GOPROXY=off $(GO) build -o /dev/null .

# Engine-vs-sequential benchmark report (ns/op, cache hit rates, speedup at
# 1/4/8 workers) written to BENCH_engine.json; the acceptance thresholds
# (≥2× at 8 workers, >50% shared-cache hit rate) are asserted by the test.
bench-json:
	BENCH_ENGINE_JSON=$(CURDIR)/BENCH_engine.json $(GO) test -run TestWriteBenchEngineJSON -v ./internal/engine

# DFA backend report: the flat-table backend vs the frozen map/string
# backend over the same expression suite, written to BENCH_dfa.json.  The
# acceptance guards (equal verdicts, minimal tables byte-identical to the
# Thompson reference's, table no slower per decision) are asserted by the
# tests.
bench-dfa:
	$(GO) test -run 'TestTableBackendMatchesLegacy|TestCompileMatchesThompson' ./internal/automata
	BENCH_DFA_JSON=$(CURDIR)/BENCH_dfa.json $(GO) test -run TestWriteBenchDFAJSON -v ./internal/automata

# Warm-hit cost of the interned-key caches (shared DFA cache, its decision
# memo, the proof memo, canonical goal keys) written to BENCH_intern.json
# with the frozen string-keyed baseline alongside.  The regression guards
# are asserted by the test: ops-memo/proof-memo/goal-key warm hits must be
# allocation-free and every path must beat its baseline.
bench-intern:
	BENCH_INTERN_JSON=$(CURDIR)/BENCH_intern.json $(GO) test -run TestWriteBenchInternJSON -v ./internal/engine

# Incremental re-analysis report: cold run over a 65-declaration unit vs
# re-analysis after a one-line edit, plus the Maybe-to-definite conversion
# rate on the seeded lint corpus, written to BENCH_incr.json.  The
# acceptance thresholds (>=10x speedup, conversion rate >= baseline) are
# asserted by the test.
bench-incr:
	BENCH_INCR_JSON=$(CURDIR)/BENCH_incr.json $(GO) test -run TestWriteBenchIncrJSON -v ./internal/lint

# Seeded scenario-farm throughput and soundness report: 1500 generated
# programs (>10k dependence queries) across all five families, every No
# verdict cross-checked against both oracles, written to BENCH_fuzzfarm.json.
# A non-zero divergence count fails the target (aptfuzz exits 1).
bench-fuzzfarm:
	$(GO) run ./cmd/aptfuzz -seed 1 -n 1500 -report $(CURDIR)/BENCH_fuzzfarm.json

# Lint every program in testdata/ with aptlint and diff the diagnostics
# against the committed golden.  Regenerate after intentional changes with:
#   go test ./cmd/aptlint -run TestSelfSmoke -update
lintsmoke:
	@$(GO) build -o $(CURDIR)/.aptlint.smoke ./cmd/aptlint
	@{ for f in testdata/*.c testdata/lint/*.c; do \
		echo "== $$f"; \
		$(CURDIR)/.aptlint.smoke $$f; \
		echo "exit=$$?"; \
	done; } | diff -u testdata/lint/selfsmoke.golden - \
		&& echo "lintsmoke: OK" ; rc=$$?; rm -f $(CURDIR)/.aptlint.smoke; exit $$rc

# The 0-allocation guarantee for disabled telemetry, with real numbers.
allocs:
	$(GO) test -run='^$$' -bench=BenchmarkTelemetryDisabled -benchmem ./internal/telemetry

figure7:
	$(GO) run ./cmd/sparsebench

# Go line counts as ROADMAP and CHANGES.md quote them: every *.go file in
# the tree, perfbench included, split into non-test and test files.  Build
# outputs (.bench_build/) are not the tree.
LOC_FIND = find . -name '*.go' -not -path './.git/*' -not -path './.bench_build/*'
loc:
	@$(LOC_FIND) -not -name '*_test.go' -print0 | xargs -0 cat | wc -l | awk '{print "non-test Go lines:", $$1}'
	@$(LOC_FIND) -name '*_test.go' -print0 | xargs -0 cat | wc -l | awk '{print "test Go lines:", $$1}'

clean:
	$(GO) clean ./...
