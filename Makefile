# Build, vet, lint and test pipeline — the same targets CI runs
# (.github/workflows/ci.yml), so `make ci` reproduces a CI run locally.
# Run `make help` for a target summary.

GO ?= go

# Packages with real concurrency (goroutine ranks, parameter-server shards,
# the trainer that drives them) get a dedicated
# race-detector tier. -short keeps the long end-to-end learning runs out of
# the ~10-20x race slowdown; unit-level coverage stays on. internal/grad
# rides along so its bit-exact codec tests also hold under race codegen.
RACE_PKGS = ./internal/mpi/ ./internal/simnet/ ./internal/ps/ ./internal/core/ ./internal/tensor/ ./internal/testkit/ ./internal/grad/

# Packages with kernel micro-benchmarks (ns/op, allocs/op, triples/sec);
# the top-level package adds the end-to-end paper-table benchmarks.
BENCH_PKGS = ./internal/grad/ ./internal/mpi/ ./internal/model/ ./internal/opt/ ./internal/pool/ ./internal/tensor/ ./internal/serve/ ./internal/partition/ ./internal/core/ ./internal/binpack/

.PHONY: all build vet fmt-check lint test race purego wire32 bench bench-smoke faults partition serve \
	loadbench transport verify-stats reproduce soak fuzz-smoke coverage coverage-update ci help

all: build

## build: compile every package and command
build:
	$(GO) build ./...

## vet: run go vet over the repo
vet:
	$(GO) vet ./...

## fmt-check: fail if any file is not gofmt-clean
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# kgelint is this repo's own analyzer suite (cmd/kgelint, internal/lint):
# five per-node matchers (seeded randomness, divergent collectives, float
# equality, dropped errors, collective error handling) and the stale
# //kgelint:ignore audit. The training step's allocation budget is pinned
# by tests instead (TestTrainStepAllocs, TestCollectiveSteadyStateAllocs).
# Zero unsuppressed findings is the merge bar.
## lint: run the kgelint analyzer suite (zero findings = pass)
lint:
	$(GO) run ./cmd/kgelint ./...

## test: run the full test suite
test:
	$(GO) test ./...

## race: race-detector pass over the concurrent packages
race:
	$(GO) test -race -short -count=1 $(RACE_PKGS)

# Portable-path tier. On amd64 the kernels of internal/tensor (optimizer row
# updates, the ComplEx gradient, Add/Scale/Axpy/AxpyMul, the TransE 1-vs-N
# block, gathered ComplEx triple scoring, gathered row norms Nrm2Rows, and
# the 1-bit codec's SignMaskAbsMax and AddSigned) run in AVX2 assembly; the
# purego build tag selects the Go loops
# everywhere, so this target runs the whole suite, every golden, the
# checkpoint CRC pins and the chan-vs-TCP identity on the loops the
# assembly must match. The last line builds the Go oracle at GOAMD64=v3,
# where the compiler may use any AVX2-era instruction, and reruns the
# differential tests against the assembly: it proves the oracle stays
# FMA-free at every amd64 level. internal/grad rides along because its
# reference codec is the oracle of the codec kernels, and internal/xrand
# because BernoulliMask's branch-free bit tests must hold under BMI codegen.
## purego: full tests + kgeverify on the portable Go loops (no assembly)
purego:
	$(GO) vet -tags purego ./internal/tensor/
	$(GO) test -tags purego -count=1 ./...
	$(GO) run -tags purego ./cmd/kgeverify
	GOAMD64=v3 $(GO) test -count=1 ./internal/tensor/ ./internal/opt/ ./internal/model/ ./internal/grad/ ./internal/xrand/

# Wire-decoder tier off the build host's word size and byte order. The
# parsers of peer bytes (grad's gradient frames, the TCP data and handshake
# frames) size allocations from counts a peer sent, and an int that is 32
# bits wide overflows where a 64-bit one does not, so their tests and
# committed fuzz corpora run again as 386. The TCP codec moves F32 and I32
# sections as byte views only on a little-endian host; vetting the packages
# for s390x, a big-endian target, keeps the portable per-element path
# compiling. Both need only the local toolchain.
## wire32: grad + transport tests as GOARCH=386, vet as big-endian s390x
wire32:
	GOARCH=386 $(GO) test -short -count=1 ./internal/grad/ ./internal/transport/...
	GOARCH=s390x $(GO) vet ./internal/grad/ ./internal/transport/...

# Fault-injection suite under the race detector: scheduled rank crashes,
# recv-watchdog timeouts, shrink-and-continue recovery, checkpoint
# corruption. The failure paths close abort channels and release blocked
# ranks concurrently, so they get their own race-checked tier.
## faults: fault-injection suite under the race detector
faults:
	$(GO) test -race -short -count=1 -run 'Fault|Shrink|Recover|Checkpoint|Panic|RecvTimeout' \
		./internal/mpi/ ./internal/simnet/ ./internal/core/ ./internal/model/

# Partitioned-training tier under the race detector: the joint
# entity+relation partitioner's invariants and the sharded-table trainer
# (row-exchange pull/push, shard-aware checkpoints, crash + re-partition
# recovery). The row exchange runs one goroutine per rank against shared
# mpi state, so it gets a dedicated race-checked tier without -short.
## partition: partitioner + sharded-table trainer under -race
partition:
	$(GO) test -race -count=1 ./internal/partition/
	$(GO) test -race -count=1 -run 'Partitioned' ./internal/core/

# Transport tier under the race detector: the backend-agnostic conformance
# suite run twenty times over both fabrics (in-process channels and real
# TCP sockets — its failure-verdict test asserts that one dead rank stays
# one dead rank on every endpoint, and the way that broke was a race one
# pass in ten), the TCP endpoint's frame/handshake/fault-injection tests, the
# process-world collectives, the multi-process re-exec smoke tests (three
# real OS processes over localhost; trajectory identity and SIGKILL
# shrink-and-continue), and the kgeverify -tcp gate proving the TCP fabric
# is trajectory-identical to simnet at zero tolerance. The re-exec tests
# are testing.Short()-aware, so `make race` (-short) skips them and this
# tier is where they run; that includes the SIGKILL test whose victim is
# rank 0, the first generation's leader. The last four lines repeat, without
# -race so twenty repetitions fit the timeout, the shrink tests (a re-mesh
# led by the lowest survivor, rank 0's death included), the shutdown
# tests whose failure mode is a rare hang (a barrier token dropped behind a
# clean bye), the trajectory identity test, and the process-world tests of a
# death between two collectives and of each collective's frame count, whose
# failure mode is a rare ordering race (a survivor one collective ahead, a
# frame still in a write loop), and the trainer's death inside the Barrier
# before a checkpoint (survivors split across the snapshot).
## transport: transport conformance + multi-process suite under -race
transport:
	$(GO) test -race -count=20 ./internal/transport/conformance/
	$(GO) test -race -count=1 ./internal/transport/chantransport/ ./internal/transport/tcptransport/
	$(GO) test -race -count=1 -run 'TestProcess' ./internal/mpi/ ./internal/core/
	$(GO) run ./cmd/kgeverify -tcp -no-goldens -no-props
	$(GO) test -count=20 -timeout 120s -run 'TestShrink' ./internal/transport/tcptransport/
	$(GO) test -count=20 -timeout 120s -run 'TestCloseAfterBarrierReleasesEveryRank' ./internal/transport/tcptransport/
	$(GO) test -count=20 -timeout 120s -run 'TestProcessDeathBetweenCollectives|TestProcessCollectiveFrameCount' ./internal/mpi/
	$(GO) test -count=20 -timeout 120s -run 'TestProcessDeathInsideCheckpointBarrier' ./internal/core/
	$(GO) test -count=20 -timeout 120s -run 'TestVerifyTCPTrajectoryIdentical' ./internal/testkit/

# Serving suite under the race detector: the kgeserve subsystem mixes
# concurrent HTTP handlers, the predict micro-batcher, the sharded LRU
# cache, the packed binarized index and atomic hot checkpoint reload —
# including tests that hammer exact and approx predicts while the live
# store (and its packed index, as one generation) is swapped. The 1-vs-N
# block kernels under the exact sweep (internal/model, bit-equal to
# ScoreRows) and the link-prediction evaluation that fans triples out over
# GOMAXPROCS workers on the same kernels (internal/eval) ride along.
## serve: serving, binarized-index, block-scorer and eval suites under -race
serve:
	$(GO) test -race -count=1 ./internal/serve/ ./internal/binpack/ ./internal/model/ ./internal/eval/

# Serving load smoke: kgeload self-hosts a clustered-checkpoint server,
# measures recall@10 of mode=approx against the exact ranking, then drives
# paced concurrent traffic through both modes. The floor asserts the
# two-stage pipeline's fidelity contract and that both modes answer under
# load. There is no speed floor: approx-vs-exact p50 is printed, but at
# smoke scale it is a property of the runner (the exact sweep spreads over
# every core, the approx query runs on one; at 8000 entities exact is the
# faster of the two on two cores). End-to-end speed is kgeperf's job
# (bench/, workloads serve_exact and serve_approx at 50k entities).
## loadbench: kgeload smoke with a recall floor
loadbench:
	$(GO) run ./cmd/kgeload -entities 8000 -dim 32 -clusters 256 \
		-qps 200 -duration 2s -fidelity 60 -min-recall 0.95

# Kernel micro-benchmarks as plain `go test -bench` text (ns/op, allocs/op,
# custom units). Diagnostic only: performance claims come from paired
# `kgeperf -compare` runs (bench/README.md).
## bench: run the kernel micro-benchmarks (go test -bench text)
bench:
	$(GO) test -bench=. -benchmem -run '^$$' $(BENCH_PKGS)

# One-iteration pass over every benchmark in the repo: proves each still
# compiles and runs without measuring anything. CI runs this tier.
## bench-smoke: compile-and-run check of all benchmarks (-benchtime=1x)
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -benchmem -run '^$$' ./...

# Statistical verification (internal/testkit via cmd/kgeverify): golden-run
# convergence regression over every strategy combination, diffed against the
# committed reference with first-diverging-epoch diagnosis, plus the CLT-
# bounded property checks (quantizer unbiasedness, selection keep rates, RP invariants,
# DRS switch permanence, SS ordering). Deterministic: same build, same
# verdict. See TESTING.md for how to read failures and update goldens.
## verify-stats: golden-run regression + statistical property checks
verify-stats:
	$(GO) run ./cmd/kgeverify

# Reproduction gate: regenerate every published table with kgebench -exp all
# (about 3 min on two cores) and diff it against the committed
# results_full.txt, ignoring only the "(<id> regenerated in <t>s wall time)"
# lines. It pins every table end to end, where the goldens pin 8-epoch runs.
# amd64 only: Go fuses multiply-adds on arm64, so bits may differ there.
# Nightly CI runs it next to the soak, not per push.
## reproduce: regenerate results_full.txt, fail on any diff but wall-time lines
reproduce:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/kgebench -exp all > "$$tmp/got.txt"; \
	grep -v 'regenerated in .*s wall time)$$' results_full.txt > "$$tmp/want.trim"; \
	grep -v 'regenerated in .*s wall time)$$' "$$tmp/got.txt" > "$$tmp/got.trim"; \
	diff -u "$$tmp/want.trim" "$$tmp/got.trim"; \
	echo "reproduce: results_full.txt reproduced (wall-time lines aside)"

# Chaos soak under the race detector: randomized-but-seeded
# train -> crash -> shrink -> recover -> checkpoint -> serve-reload cycles
# asserting MRR within tolerance of a fault-free baseline, a gap-free epoch
# ledger, bit-exact checkpoint round-trips, and correct serving before and
# after hot reload. Nightly CI runs this; it is minutes, not seconds.
## soak: chaos soak (train/crash/recover/serve loops) under -race
soak:
	$(GO) run -race ./cmd/kgeverify -soak -seed 1 -iters 5 -v

# Ten seconds of coverage-guided fuzzing per Fuzz* target (tier-1 runs only
# their seed corpora). The targets are listed per package by `go test -list`,
# so a new fuzzer is fuzzed without being added here; -fuzz must match
# exactly one target per run, so each gets its own run. Nightly CI runs this
# next to the soak; promote any crasher it writes under testdata/fuzz/ into
# the committed corpus.
## fuzz-smoke: fuzz every Fuzz* target for 10s
fuzz-smoke:
	@set -e; n=0; \
	for pkg in $$($(GO) list -f '{{if or .TestGoFiles .XTestGoFiles}}{{.ImportPath}}{{end}}' ./...); do \
		list=$$($(GO) test -list '^Fuzz' $$pkg); \
		for fz in $$(echo "$$list" | grep '^Fuzz' || true); do \
			echo "fuzz-smoke: $$fz $$pkg"; \
			$(GO) test -run '^$$' -fuzz="^$$fz"'$$' -fuzztime=10s $$pkg; \
			n=$$((n+1)); \
		done; \
	done; \
	if [ $$n -eq 0 ]; then echo "fuzz-smoke: no Fuzz* targets found"; exit 1; fi; \
	echo "fuzz-smoke: $$n targets fuzzed"

# Per-package coverage, compared against the checked-in baseline
# (COVERAGE_BASELINE.txt). A package may drop at most COVERAGE_TOL points
# before the target fails; refresh the baseline deliberately with
# `make coverage-update` when coverage legitimately moves.
COVERAGE_TOL ?= 3.0

## coverage: per-package coverage summary vs COVERAGE_BASELINE.txt
coverage:
	$(GO) test -count=1 -cover ./... \
		| awk '/coverage:/ { pkg = ($$1=="ok") ? $$2 : $$1; pct=""; for (i=1;i<=NF;i++) if ($$i=="coverage:") pct=$$(i+1); if (pct !~ /%$$/) next; gsub(/%/,"",pct); printf "%-40s %s\n", pkg, pct }' \
		| sort > coverage.txt
	@cat coverage.txt
	@awk -v tol=$(COVERAGE_TOL) \
		'NR==FNR { base[$$1]=$$2; next } \
		 ($$1 in base) && $$2+0 < base[$$1]-tol { printf "coverage regression: %s at %.1f%%, baseline %.1f%% (tolerance %.1f pts)\n", $$1, $$2, base[$$1], tol; bad=1 } \
		 END { exit bad }' COVERAGE_BASELINE.txt coverage.txt
	@echo "coverage: OK within $(COVERAGE_TOL) points of COVERAGE_BASELINE.txt"

## coverage-update: refresh COVERAGE_BASELINE.txt from a fresh coverage run
coverage-update: coverage
	cp coverage.txt COVERAGE_BASELINE.txt

## ci: everything CI runs (build vet fmt-check lint test race purego wire32 faults partition serve loadbench transport verify-stats coverage bench-smoke)
ci: build vet fmt-check lint test race purego wire32 faults partition serve loadbench transport verify-stats coverage bench-smoke

## help: list targets
help:
	@grep -E '^## ' $(MAKEFILE_LIST) | sed 's/^## /  /' | sort
