# Harmony build/test entry points. CI (.github/workflows/ci.yml) runs the
# same targets humans do, so `make ci` locally reproduces the pipeline.

GO ?= go

.PHONY: build test test-race fuzz-smoke repair-test storage-test admin-smoke bench bench-micro bench-smoke benchmark-test benchmark-smoke chaos-smoke sim-repeat sim-diff lint api-check api-baseline ci

build:
	$(GO) build ./...

# Tier-1 verify: the whole suite under virtual time.
test:
	$(GO) test ./...

test-race:
	$(GO) test -race -timeout 30m ./...

# Fuzz smoke: 20 s of coverage-guided fuzzing of the wire decoders
# (FuzzDecode: Decode and DecodeShared never panic and agree, and every
# frame they accept re-encodes to exactly Size bytes and to a fixed point).
# The seed corpus, one frame per sample message, already runs in `make
# test`; a failing input is saved under internal/wire/testdata/fuzz.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 20s ./internal/wire

# Focused anti-entropy verification: the repair package (Merkle trees,
# session protocol, scheduler) plus the cluster-level repair integration
# tests, all under the race detector.
repair-test:
	$(GO) test -race -timeout 15m ./internal/repair/
	$(GO) test -race -timeout 15m -run 'Repair|Hint|Churn' ./internal/cluster/ ./internal/bench/

# Focused durability verification under the race detector: the whole
# storage package (crash-recovery property tests with and without stalled
# fsync rounds, group-commit batching, the ticket/watermark contract,
# data-dir locking/manifest, the in-memory engine against its reference
# model), then the node's side of the same contract (acks after their
# round and in order, reads served during a round, Stop with acks queued),
# recovery from a data dir followed by repair, a TCP cluster reopened from
# its members' data dirs, the runtime's never-blocking self-post the ack
# drain leans on, and the one version order across in-memory and durable
# engines, reopen from hints, newest() and the SESSION cover check.
storage-test:
	$(GO) test -race -timeout 15m ./internal/storage/
	$(GO) test -race -timeout 15m -run 'Durable|CommitLog|PostSelf|SelfSend|VersionOrder' ./internal/cluster/ ./internal/integration/ ./internal/sim/ ./internal/transport/

# Live observability smoke: boot a real server with -admin-addr and curl
# /metrics, /status, /trace, /debug/vars and a 1s CPU profile, failing on
# any non-200 or empty body (scripts/admin_smoke.sh).
admin-smoke:
	bash scripts/admin_smoke.sh

# Full figure regeneration through the testing.B harness (minutes).
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x -timeout 60m .

# Tracked micro-benchmark baseline over the hot paths (engine Apply/Get/
# Scan for both the in-memory and persistent bitcask engines, crash
# recovery, wire Encode/Decode/Size, Merkle write-path maintenance,
# end-to-end cluster ops/sec). Results land in out/micro.json (a CI artifact); when a
# previous baseline exists it is preserved as out/micro.prev.json and a
# benchstat-style delta is printed.
bench-micro:
	@mkdir -p out
	@if [ -f out/micro.json ]; then cp out/micro.json out/micro.prev.json; fi
	$(GO) run ./cmd/bench-micro -json out/micro.json -prev out/micro.prev.json

# Cheap CI smoke: micro-benchmarks across internal packages plus one
# end-to-end scenario sweep, a single iteration each, the tracked
# bench-micro baseline (with delta vs the previous run), the hotcold
# per-group-vs-global comparison, the regroup migrating-hotspot comparison
# (learned online regrouping vs build-time-pinned groups), the simulated
# churn failure/recovery comparison (anti-entropy repair vs hints-only),
# and two live-cluster smokes (3 real server processes over loopback TCP):
# hotcold, and the churn kill -9 schedule whose third arm restarts the
# victim from its bitcask data dir (out/churn.json carries the live
# repair / hints-only / persistent-restart comparison). Each step writes
# JSON results (uploaded as CI artifacts).
bench-smoke: bench-micro
	$(GO) test -run '^$$' -bench . -benchtime 1x $$($(GO) list ./internal/... | grep -v bench/micro)
	$(GO) test -run '^$$' -bench 'BenchmarkScenarioStressProfiles|BenchmarkWorkloadAEventual' -benchtime 1x .
	$(GO) run ./cmd/harmony-bench -experiment hotcold -scenario grid5000 -ops 8000 -quiet -json out/hotcold.json
	$(GO) run ./cmd/harmony-bench -experiment regroup -ops 8000 -quiet -json out/regroup.json
	$(GO) run ./cmd/harmony-bench -experiment churn -quiet -json out/churn-sim.json
	$(GO) run ./cmd/harmony-bench -backend live -experiment hotcold -procs 3 -live-measure 3s -live-keys 1500 -json out/live.json
	$(GO) run ./cmd/harmony-bench -backend live -experiment churn -procs 3 -live-outage 1500ms -live-postwatch 4s -live-keys 900 -json out/churn.json

# The repo benchmark (BENCHMARK.json, benchmark/) is its own Go module that
# `go build ./... && go test ./...` at the root does not see, so a change to a
# name it imports from internal/ breaks it silently. benchmark-test vets it
# and runs its self-tests (< 1 s, no cluster); benchmark-smoke builds it the
# way the driver does and runs five seconds of the simulated workload, whose
# exit code covers every correctness check the run makes (error_frac, key
# mismatches, stale fraction under the tolerance), then five seconds of the
# durable live workload (three real server processes on -data-dir), whose
# exit code is the SIGKILL crash check — every sampled key at least its last
# acknowledged version from each member alone — plus error_frac and the
# quorum checker.
benchmark-test:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

benchmark-smoke:
	bash benchmark/run.sh --workload sim-ycsb-a --seed 1 --seconds 5 --trace 1
	bash benchmark/run.sh --workload live-write-durable --seed 1 --seconds 5 --trace 0

# Chaos smoke: the fault plane's own tests under the race detector (the dense
# link table against its reference model over random update histories, the
# bus and the live injector on top of it), then the network-partition
# experiment on both backends, each run self-checking its contract (majority availability >= 80% of pre-cut,
# minority CL=ONE still served while quorum work there refuses fail-fast
# inside the op deadline, post-heal re-convergence of every staleness
# group). The sim variant runs the 6-node RF=5 cluster under virtual time;
# the live variant spawns 3 real server processes, installs the cut at
# runtime through each member's admin /faults endpoint, lets gossip do the
# detection, and heals the same way. Any contract violation exits nonzero
# AFTER out/partition*.json are written, so a failed run still uploads an
# inspectable artifact.
chaos-smoke:
	@mkdir -p out
	$(GO) test -race ./internal/faults/ ./internal/transport/
	$(GO) run ./cmd/harmony-bench -experiment partition -quiet -json out/partition-sim.json
	$(GO) run ./cmd/harmony-bench -backend live -experiment partition -procs 3 -live-outage 5s -live-postwatch 6s -live-keys 1500 -json out/partition.json

# Simulated results repeat per seed: write the JSON of hotcold, churn,
# partition, regroup, lag and fig6 over all six scenarios twice at one seed
# (scripts/sim_outputs.sh, ~40 s each) and require the two directories to be
# identical.
sim-repeat:
	@rm -rf out/sim-repeat
	bash scripts/sim_outputs.sh out/sim-repeat/a
	bash scripts/sim_outputs.sh out/sim-repeat/b
	diff -r out/sim-repeat/a out/sim-repeat/b

# Simulated results unchanged against a commit: extract REV (git archive)
# into a temp dir, run the working tree's scripts/sim_outputs.sh there and on
# the working tree, and fail on any difference; silent when they match. Both
# trees run the same script, so an output this change adds is compared too.
# Usage: make sim-diff REV=<commit>. Not part of ci: a change may move the
# simulator's outputs on purpose.
sim-diff:
	@test -n "$(REV)" || { echo 'usage: make sim-diff REV=<commit>' >&2; exit 2; }
	@git rev-parse -q --verify "$(REV)^{commit}" >/dev/null || { echo "sim-diff: unknown commit $(REV)" >&2; exit 2; }
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	mkdir "$$tmp/src" && git archive "$(REV)" | tar -x -C "$$tmp/src" && \
	{ (cd "$$tmp/src" && bash "$(CURDIR)/scripts/sim_outputs.sh" "$$tmp/rev") >"$$tmp/log" 2>&1 && \
	  bash scripts/sim_outputs.sh "$$tmp/tree" >>"$$tmp/log" 2>&1 || { cat "$$tmp/log" >&2; exit 1; }; } && \
	diff -r "$$tmp/rev" "$$tmp/tree"

lint:
	test -z "$$(gofmt -l .)" || { gofmt -l .; echo 'gofmt: files above need formatting'; exit 1; }
	$(GO) vet ./...

# API stability gate: go vet plus a diff of the exported-symbol snapshot
# (cmd/apicheck) against the committed baseline. An intended API change is
# landed by regenerating the baseline (make api-baseline) in the same commit,
# so every exported-surface change is an explicit, reviewable diff.
api-check:
	$(GO) vet ./...
	@mkdir -p out
	$(GO) run ./cmd/apicheck > out/api.txt
	@diff -u api/exported.txt out/api.txt || { echo 'api-check: exported API differs from api/exported.txt; if intended, run make api-baseline'; exit 1; }

api-baseline:
	$(GO) run ./cmd/apicheck > api/exported.txt

ci: lint build api-check test-race fuzz-smoke sim-repeat benchmark-test benchmark-smoke admin-smoke bench-smoke chaos-smoke
