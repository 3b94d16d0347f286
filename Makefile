# Local and CI entry points — .github/workflows/ci.yml invokes exactly
# these targets so a green local run means a green CI run. The benchmark
# baseline workflow (bench-json / bench-gate / bench-baseline) is described
# in docs/ci.md.

GO ?= go

# The benchmark subset tracked by the regression gate: the broker hot-path
# pipelines, the multi-consumer ablation, the multi-scheduler agent
# ablation (the RTS dispatch path), the run-control event-stream
# overhead (events-off must stay the no-subscriber fast path; events-on
# within ~10% of it), the synchronizer round-trip shapes (batched frames
# must stay O(1) per stage), the batched Fig 6 harness with binary task
# bodies (the pooled codec's end-to-end throughput) and the daemon
# multi-run comparison (K concurrent
# entkd-hosted runs vs K sequential in-process runs — the shared pilot
# pool must keep amortizing setup) and the remote round-trip ablation
# (the networked control plane's batched-frame tax over unix/TCP against
# the in-process path), the autotune overhead contract (controller-on
# steady state within 3% of controller-off; docs/autotune.md) and the
# autotune ablation (bursty workload: static worst/best vs the live
# controller). Stable, fast, and the numbers this
# repo's PRs argue about. benchdiff also gates allocs/op at 10%, and on CI the alloc gate
# is a hard failure while ns/op stays warn-only (see docs/ci.md).
BENCH_GATE := ^(BenchmarkBroker|BenchmarkAblationBrokerConsumers|BenchmarkAblationSchedulers|BenchmarkEventStreamOverhead|BenchmarkSyncTransition|BenchmarkFig6Codec|BenchmarkRecovery|BenchmarkDaemonMultiRun|BenchmarkRemoteRoundTrip|BenchmarkAutotuneOverhead|BenchmarkAblationAutotune)

.PHONY: build test bench lint bench-json bench-gate bench-baseline check-artifacts daemon-smoke remote-smoke entkbench-smoke

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# One pass over every benchmark so they cannot bit-rot; real measurements
# use `go test -bench=<pattern> -benchmem -benchtime=...` directly.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Run the gated benchmark subset long enough for stable numbers and write
# them as BENCH_CURRENT.json (benchmark -> ns/op, B/op, allocs/op). Two counts;
# benchdiff keeps the best run of each, damping scheduler noise.
bench-json:
	$(GO) test -run '^$$' -bench '$(BENCH_GATE)' -benchmem -benchtime 300ms -count 2 . | tee bench.out
	$(GO) run ./cmd/benchdiff -parse bench.out -out BENCH_CURRENT.json

# Compare fresh numbers against the checked-in baseline; exits nonzero on a
# >25% ns/op regression. CI runs the same comparison with -warn (shared
# runners are too noisy for a hard gate).
bench-gate: bench-json
	$(GO) run ./cmd/benchdiff -baseline BENCH_BASELINE.json -current BENCH_CURRENT.json

# Re-record the baseline after an intentional performance change.
bench-baseline: bench-json
	cp BENCH_CURRENT.json BENCH_BASELINE.json

lint:
	@fmt_out=$$(gofmt -l .); \
	if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; \
	fi
	$(GO) vet ./...

# Fail if any gitignored build artifact (bench.out, *.test, ...) is tracked
# in the index — they belong to local runs, never to the repository.
check-artifacts:
	@tracked=$$(git ls-files -i -c --exclude-standard); \
	if [ -n "$$tracked" ]; then \
		echo "gitignored artifacts are tracked:"; echo "$$tracked"; exit 1; \
	fi

# End-to-end entkd smoke: start the daemon, submit the shipped example app
# over the unix socket, wait for DONE, shut down and assert no leaked lease.
daemon-smoke:
	./scripts/daemon-smoke.sh

# End-to-end networked-control-plane smoke: start two entk-agent processes
# on localhost TCP, drive the example app through both from one manager,
# assert every task DONE with zero stranded frames.
remote-smoke:
	./scripts/remote-smoke.sh

# The end-to-end benchmark (entkbench/) is a module of its own, so the root
# `go test ./...` never builds it. Vet and test it, then run one short chain
# measurement and fail unless its last line (the result object) reports
# correct outputs.
entkbench-smoke:
	cd entkbench && $(GO) vet ./... && $(GO) test ./...
	@out=$$(bash entkbench/run.sh --workload chain --seed 1 --seconds 1 --trace 0) || { echo "$$out"; exit 1; }; \
	last=$$(echo "$$out" | tail -n 1); echo "$$last"; \
	case "$$last" in *'"correct":true'*) ;; *) echo "entkbench-smoke: result is not correct"; exit 1;; esac
