GO ?= go
PRESSIOVET := bin/pressiovet

.PHONY: build test tier1 loc check lint fmt-check docs-check serial-check cross-build arch-check examples-check benchmark-check serve-check fuzz-batch fuzz-record fuzz-spatial fuzz-slice fuzz-khan crash-check cluster-check remote-check scenario-check stress bench bench-baseline bench-check clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# tier1 is the ROADMAP's tier-1 verify on one CPU and on the default: the
# concurrency tests must be green on both, so neither a 1-CPU-only green
# nor a multicore-only one can recur. -count=1 so neither run is
# answered from the test cache.
tier1:
	$(GO) build ./...
	GOMAXPROCS=1 $(GO) test -count=1 ./...
	$(GO) test -count=1 ./...

# loc prints the non-test Go line count every simplicity PR quotes —
# hand-written source only: no tests, no vendored analysis framework
# (internal/xtools), no benchmark module or its build output — and the
# split for the packages those PRs work in. Its last line counts the
# vendored internal/xtools apart.
LOC_FIND = find $(1) -name '*.go' -not -name '*_test.go' -not -path './internal/xtools/*' -not -path './benchmark/*' -not -path './.bench_build/*' | xargs cat | wc -l
loc:
	@printf 'non-test Go lines: %d\n' $$($(call LOC_FIND,.))
	@for d in internal/serve internal/cluster internal/store internal/vfs internal/bench internal/core internal/metrics internal/pressio internal/lint internal/dataset internal/predictors internal/compressor internal/compressor/sz3 internal/huffman internal/stats internal/hurricane; do \
		printf '  %-24s %d\n' $$d $$($(call LOC_FIND,./$$d)); done
	@printf 'vendored internal/xtools: %d\n' $$(find internal/xtools -name '*.go' | xargs cat | wc -l)

# check is the full verification gate: formatting, the docs naming only
# what exists (docs-check), standard vet (with the
# extra unreachable/copylocks/lostcancel passes spelled out so a vet
# default change can't silently drop them), the pressiovet suite, tier-1
# at one CPU and at the default (tier-1 includes FuzzDecode's seed corpus
# in internal/huffman — Encode's streams and hand-corrupted tables, each
# decoded without a panic or an oversized reservation and round-tripped —
# and FuzzFieldMatchesReference's in internal/hurricane — field, step,
# corpus seed and small grids, each bit-equal to the per-sample reference —
# and FuzzCodesLorenzo's in internal/compressor/sz3 — shape, bound, bin
# budget and raw value bits, the row stage's codes, over the values and
# over them rounded to float32, equal to Quantizer.Code over LorenzoTerms — and FuzzCodeModelCount's in internal/predictors —
# code runs of every span up to the bin budget and outlier share, the
# code model's entropy and histogram equal to a dense window's and its
# scratch left zero — and FuzzReadObservation's in internal/core — this
# build's checkpoint records cut at every length, the hand reader equal
# to encoding/gob wherever it does not decline — and
# FuzzSpatialMatchesReference's in internal/stats — float32 and float64
# bits with NaN, infinities, zero runs and denormals at rank 1-3, every
# spatial feature, variogram lag, summary field and histogram bit-equal
# to the float64 reference — FuzzForestSlice's in internal/mlkit —
# random forests read as a step function of one feature, bit-equal to
# Predict — and FuzzKhanSampleWalk's in internal/predictors — a sorted
# residual sample's walk, bit-equal to the plain khan estimate; to fuzz
# past the seeds:
# go test -run '^$$' -fuzz FuzzDecode -fuzztime 1m ./internal/huffman
# go test -run '^$$' -fuzz FuzzFieldMatchesReference -fuzztime 1m ./internal/hurricane
# go test -run '^$$' -fuzz FuzzCodesLorenzo -fuzztime 1m ./internal/compressor/sz3
# go test -run '^$$' -fuzz FuzzCodeModelCount -fuzztime 1m ./internal/predictors
# go test -run '^$$' -fuzz FuzzReadObservation -fuzztime 1m ./internal/core
# go test -run '^$$' -fuzz FuzzSpatialMatchesReference -fuzztime 1m ./internal/stats
# go test -run '^$$' -fuzz FuzzForestSlice -fuzztime 1m ./internal/mlkit
# go test -run '^$$' -fuzz FuzzKhanSampleWalk -fuzztime 1m ./internal/predictors),
# the examples and predict-bench's -table1 and -corpus modes run to
# completion, the benchmark harness's self-test (benchmark-check), and
# the complete test suite under the race detector. The race run stays
# `-race -short`: -race is what actually exercises the sync.Pool and
# queue invariants the linters guard statically, and -short keeps the
# gate fast enough to run on every change by skipping the long queue
# stress test and the model-fitting serve tests (run `make stress` and
# `make serve-check` to include them). predictors and serve then run
# twice more under it (-count=2): their pool-dependent allocation tests
# must hold (or skip) when a second pass finds the pools a first one
# left. cluster runs twice too: its barrier and catch-up timing ride on
# the fetch loops, whose schedule -race stretches. dataset runs twice
# because every resident cell of its tiered cache is a mapping: a cell
# used after its last Release, eviction or Close is a fault in every
# configuration, not only with a spill dir. The predict pool's slot
# tests (saturation, abandoned and deadline singles, shedding, drain,
# observations) then run three times more under -race: a batch or an
# observation computes on its handler's goroutine while it holds a slot,
# so the slot accounting is shared by every request goroutine. Last come the four
# multi-process harnesses, also under -race: kill-restart recovery, the replicated cluster's kill tests,
# predict-bench's remote drill, and the seeded scenarios (SLOs and
# prediction accounting under load; no performance number is gated here — the only
# performance gate is bench-check, opt-in behind BENCH=1).
check: fmt-check docs-check serial-check
	$(GO) vet ./...
	$(GO) vet -unreachable -copylocks -lostcancel ./...
	$(MAKE) cross-build
	$(MAKE) arch-check
	$(MAKE) lint
	$(MAKE) tier1
	$(MAKE) examples-check
	$(MAKE) benchmark-check
	$(GO) test -race -short ./...
	$(GO) test -race -short -count=2 ./internal/predictors ./internal/serve ./internal/cluster ./internal/dataset
	$(GO) test -race -count=3 -run 'Saturation|Abandoned|Deadline|Shed|Drain|Observe' ./internal/serve
	$(MAKE) crash-check
	$(MAKE) cluster-check
	$(MAKE) remote-check
	$(MAKE) scenario-check
ifdef BENCH
	$(MAKE) bench-check
endif

# lint runs the pressiovet analyzers (DESIGN.md §11) over the whole tree
# as a `go vet -vettool`: go vet loads and caches the packages and hands
# cmd/pressiovet one unit at a time. Idempotent: rebuilds the tool from
# source each run; exits non-zero on any finding.
lint:
	$(GO) build -o $(PRESSIOVET) ./cmd/pressiovet
	$(GO) vet -vettool=$(abspath $(PRESSIOVET)) ./...

# examples-check runs each examples/* main to completion. `go build
# ./...` compiles them and nothing else executes them, yet they are the
# code that drives core.Session end to end (quickstart, autotuning, ...).
# Then predict-bench's two modes that no test runs: -table1, and -corpus
# twice into one directory, the second run required to reuse the first's
# corpus after verifying its manifest. All finish in seconds; any
# non-zero exit fails the target.
examples-check:
	@for d in examples/*/; do echo "go run ./$$d"; $(GO) run ./$$d > /dev/null || exit 1; done
	$(GO) build -o bin/predict-bench ./cmd/predict-bench
	bin/predict-bench -table1 > /dev/null
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	corpus="bin/predict-bench -corpus $$tmp -fields P -steps 2 -dims 4x4x4" && \
	$$corpus && out=$$($$corpus) && echo "$$out" && \
	case "$$out" in reusing*"(manifest verified)") ;; *) echo "second -corpus run did not reuse the corpus"; exit 1;; esac

# benchmark-check vets and self-tests the benchmark harness (toy sizes,
# seconds). It is a module of its own, so `go build ./...` and `go test
# ./...` never compile it, yet it builds against internal/serve and reads
# predictd's /statz JSON: a change to either is caught here, not by the
# next benchmark run.
benchmark-check:
	cd benchmark && $(GO) vet . && $(GO) test .

# docs-check fails when README.md, DESIGN.md or EXPERIMENTS.md names a
# cmd/<name> directory, a `go run`/`go build`/`go test` package path or a
# back-quoted `make <target>` that does not exist, or README.md or
# DESIGN.md an internal/<path> that does not (EXPERIMENTS.md, a ledger,
# may name deleted packages). The test first runs the checker over a
# fixture naming a deleted command and package (its negative control),
# then over the three docs.
docs-check:
	$(GO) test -count=1 -run TestDocsNameWhatExists .

# serial-check fails when a non-test file of a kernel package — the
# compressors, the entropy coder, the fused summary, the bit streams —
# starts a goroutine. Kernels run on their caller's goroutine and
# concurrency belongs to the task layer (DESIGN.md §10); fan-out inside a
# kernel comes back only by revisiting that decision.
KERNEL_DIRS = internal/compressor internal/huffman internal/stats internal/bitstream
serial-check:
	@out=$$(grep -rnE --include='*.go' --exclude='*_test.go' '^[[:space:]]*go[[:space:]]+[[:alnum:]_(]' $(KERNEL_DIRS)); \
	if [ -n "$$out" ]; then echo "goroutines started in kernel packages:"; echo "$$out"; exit 1; fi

# cross-build compiles the tree for a platform without the linux mmap
# path, and internal/dataset (tests included, via vet) for one without
# unix file semantics either, so the non-linux half of the platform split
# (mmap_other.go: copying reload, no file identity, every reload hashed)
# cannot rot unseen. Then the whole tree, tests included, for a 32-bit
# int (386), where a constant past 1<<31 that fits a 64-bit int fails to
# compile. All cross-compile offline from the local toolchain.
cross-build:
	GOOS=darwin GOARCH=arm64 $(GO) build ./...
	GOOS=darwin GOARCH=arm64 $(GO) vet ./internal/dataset/
	GOOS=windows $(GO) build ./internal/dataset/
	GOOS=windows $(GO) vet ./internal/dataset/
	GOARCH=386 $(GO) vet ./...

# arch-check builds and runs the whole test suite for linux/386, which a
# 64-bit linux host runs natively: a 32-bit int at run time, not only at
# compile time (cross-build's vet), and a 32-bit address space, where the
# tiered cache's resident spilled cells are all mappings. The multi-process
# harnesses build predictd with -race only where the detector supports the
# target (scenario.BuildPredictd), so there they run without it. The
# amd64-only golden files skip.
arch-check:
	GOARCH=386 $(GO) test ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# serve-check gates the serving subsystem: vet + the full internal/serve
# suite (end-to-end fit/predict/invalidate, concurrent singles, backpressure,
# loadgen soak, and FuzzDecodeBatch's seed corpus — every body in the batch
# decoder's differential table, scanner against encoding/json, through a
# fresh scratch and through one reused as the pool reuses it) and the
# daemon build, all under the race detector. Past the seeds, `make
# fuzz-batch` fuzzes the scanner's column loops for 30 s (CI runs it in
# the fuzz matrix job). It gates no speed; serve_hot's in-process loopback
# twin (a real 127.0.0.1 server, two keep-alive clients, items/s) is,
# with a profile:
# go test -run '^$$' -bench ServeHotLoopback -cpuprofile /tmp/hot.prof ./internal/serve
serve-check:
	$(GO) vet ./internal/serve/ ./cmd/predictd/
	$(GO) build -o /dev/null ./cmd/predictd/
	$(GO) test -race ./internal/serve/

# fuzz-batch runs FuzzDecodeBatch past its seed corpus: random bodies
# through the batch scanner's fields and steps loops, each held to
# encoding/json's decode and the encoding/json-only handler's reply.
fuzz-batch:
	$(GO) test -run '^$$' -fuzz FuzzDecodeBatch -fuzztime 30s ./internal/serve

# fuzz-record runs FuzzReadObservation past its seed corpus (this build's
# checkpoint records, odd floats, a negative step and nil maps, each cut
# at every length): random bytes, bare and behind this build's type
# definitions, through core.ObservationReader's hand path, which must
# decline them or read what a fresh gob.Decoder reads (CI runs it in
# the fuzz matrix job). It gates no speed; table2's p50_ms has an in-process
# twin (one resume of a filled 52-cell store), with a profile:
# go test -run '^$$' -bench CollectResume -cpuprofile /tmp/resume.prof ./internal/bench
fuzz-record:
	$(GO) test -run '^$$' -fuzz FuzzReadObservation -fuzztime 30s ./internal/core

# fuzz-spatial runs FuzzSpatialMatchesReference past its seed corpus:
# random float32 or float64 bits at rank 1-3, through the typed summary,
# lag-1, slab and variogram sweeps, each bit-equal to the float64
# reference (CI runs it in the fuzz matrix job). It gates no speed; the
# chain it pins has a kernel row, with a profile:
# go test -run '^$$' -bench KernelRahmanAgnosticChain -cpuprofile /tmp/chain.prof .
fuzz-spatial:
	$(GO) test -run '^$$' -fuzz FuzzSpatialMatchesReference -fuzztime 30s ./internal/stats

# fuzz-slice runs FuzzForestSlice past its seed corpus: random forests
# (repeated, signed-zero, NaN and infinite thresholds) read as a step
# function of one feature, each lookup bit-equal to RandomForest.Predict
# at every break, either side of it and the special values (CI runs it
# in the fuzz matrix job). It gates no speed; the slice has kernel rows:
# go test -run '^$$' -bench KernelForest -benchmem .
fuzz-slice:
	$(GO) test -run '^$$' -fuzz FuzzForestSlice -fuzztime 30s ./internal/mlkit

# fuzz-khan runs FuzzKhanSampleWalk past its seed corpus: random float32
# runs (raw bits, or small steps with NaN, ±Inf, -0 and subnormals mixed
# in) at any bound, those where every code is an outlier included, each
# khan_surrogate SZ estimate counted from the sorted residual sample
# bit-equal to the plain estimate of the same runs (CI runs it in the
# fuzz matrix job). It gates no speed; the walk has a kernel row and
# per-bound timings against the plain estimate:
# go test -run '^$$' -bench KhanWalk ./internal/predictors
fuzz-khan:
	$(GO) test -run '^$$' -fuzz FuzzKhanSampleWalk -fuzztime 30s ./internal/predictors

# crash-check runs the kill-restart recovery harness (DESIGN.md §12)
# under the race detector: every cataloged crash point, the torn compact
# rename, the fixed-seed randomized sweep, and the journal-loss negative
# control. Plans are seeded, so a failure reproduces from the log alone.
crash-check:
	$(GO) test -race -run 'TestKillRestart|TestCrashDuringCompactRename|TestCrashHarnessCatchesJournalLoss' ./internal/serve/ -v

# cluster-check runs the multi-process replicated-cluster harness
# (DESIGN.md §13) under the race detector: a real 3-node predictd cluster
# plus router as separate OS processes, with the partition owner killed
# at seeded fault points and at randomized offsets. Asserts no acked fit
# is lost, no divergent model publish, and graceful router degradation.
cluster-check:
	$(GO) test -race -run TestCluster ./internal/cluster/ -v

# remote-check runs predict-bench's remote path across real processes
# (DESIGN.md §7) under the race detector: a checkpointed collection
# through a router over three predictd nodes, one node SIGKILLed while it
# holds a buffer's pin, the driver interrupted, and the resumed run
# finishing on the survivors — bit-identical to a local collection.
remote-check:
	$(GO) test -race -run TestRemoteDrill ./internal/bench/ -v

# scenario-check runs the seeded correctness-under-load harness (DESIGN.md
# §14) under the race detector: the committed smoke and batch scenarios
# each deploy a real 2-node -race-built predictd cluster + router, replay
# their seeded traffic mix open-loop, and must meet their SLOs and account
# for every answered prediction in exactly one /statz bucket. It gates no
# throughput or latency number: the daemons run under the detector, and
# how fast the system is, is `bash benchmark/run.sh`'s question.
scenario-check:
	$(GO) test -race -run TestScenario ./internal/scenario/ -v

stress:
	$(GO) test -race -run TestStress ./internal/queue/ -v

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# bench-baseline re-measures the kernel microbenchmarks and rewrites the
# committed BENCH_kernels.json. Run it only on a quiet machine after a
# deliberate performance change, and commit the result.
bench-baseline:
	$(GO) run ./cmd/benchgate -baseline

# bench-check re-runs the kernel benchmarks and fails if ns/op or
# allocs/op regressed more than 10% against BENCH_kernels.json (allocs/op
# on any machine: no kernel's allocations depend on its core count). It is
# wired into `make check` behind BENCH=1 (benchmarks need a
# quiet machine, so the default check stays deterministic).
bench-check:
	$(GO) run ./cmd/benchgate -check

clean:
	$(GO) clean ./...
