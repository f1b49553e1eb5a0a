# Development entry points. `make check` is the tier-1 gate. Host-time
# performance lives in benchmark/ — `bash benchmark/run.sh` measures,
# `make ledger-smoke` checks, `make profile W=<workload>` says where the time
# and the allocations go.

GO ?= go

.PHONY: check build test race vet artifact sweep fleet rollout overload sharded verified paper quick cover fuzz trace apicheck chaos ledger-smoke profile

check: vet build race apicheck

# Vet, and fail when any file is not gofmt-clean (gofmt -l lists it).
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The cluster artifact: the fleet benchmark (1,000 machines × one million
# jobs, serial and parallel, a machine failure mid-run), the canary rollout
# (clean, and a faulty build that halts and rolls back, plus the pinned r1:
# replay) and the traffic-plane overload scenario (plus the pinned t1:
# LeakShed replay), as verdicts, counts and fingerprints in
# BENCH_cluster.json. No host time goes in, so the file is a function of the
# code: a change that moves a fingerprint commits the regenerated file, and
# CI regenerates it and fails on any diff. About 25 s.
artifact:
	$(GO) run ./cmd/enokibench -artifact BENCH_cluster.json

# Single-kernel vs sharded simulation throughput at 80 and 1,000 CPUs: a
# host-time table, printed and never committed.
sweep:
	$(GO) run ./cmd/enokibench -cluster

# Correctness smoke of the performance ledger (benchmark/): all six
# workloads at smoke size, about seven seconds. It exits non-zero when any
# workload's output check fails (fail_ratio), two runs of one input disagree
# (sim_nondet) or a named metric goes missing — so the workloads every
# performance claim is measured on are checked on every PR. The numbers it
# prints are not a measurement; `go run ./benchmark run` is.
ledger-smoke:
	$(GO) run ./benchmark run -size smoke -seconds 1

# Where one ledger workload spends its time and its allocations: an 8 s run
# with CPU and heap profiles written beside the result under OUT (kept out of
# the checkout), then the cumulative CPU table and the heap by bytes and by
# object count. `go tool pprof -list <func> $(OUT)/benchmark $(OUT)/$(W).cpu.pprof`
# goes line by line from there.
W ?= traffic_overload
OUT ?= /tmp/enoki-profile
profile:
	mkdir -p $(OUT)
	$(GO) build -o $(OUT)/benchmark ./benchmark
	$(OUT)/benchmark run -workload $(W) -seconds 8 -cpuprofile $(OUT) -memprofile $(OUT) -out $(OUT)/$(W).json
	$(GO) tool pprof -top -cum -nodecount 50 $(OUT)/benchmark $(OUT)/$(W).cpu.pprof
	$(GO) tool pprof -top -sample_index=alloc_space -nodecount 20 $(OUT)/benchmark $(OUT)/$(W).mem.pprof
	$(GO) tool pprof -top -sample_index=alloc_objects -nodecount 20 $(OUT)/benchmark $(OUT)/$(W).mem.pprof

# Fleet gate mirroring the CI job: the whole cluster control plane under the
# race detector — placement, migration, failover, Close lifecycle, no
# goroutine left behind by a dropped parallel cluster
# (TestFleetDroppedUnclosedLeaksNothing), the job path's allocation ratchet
# (TestClusterJobAllocs) and the quiet-run oracle over 24 seeded drives
# (TestFleetQuietMatchesLockstep) — plus the fleet executor's serial-vs-
# fork-join identity, the hub that breaks its silence promise
# (TestFleetLyingHubPanics), the machine-kill chaos replay, and the
# scaled-down fleet benchmark's pinned fingerprints and stats.
fleet:
	$(GO) test -race -count=1 ./internal/cluster
	$(GO) test -race -run 'TestFleet|FuzzParseSpec' -count=1 ./internal/sim ./internal/chaos ./internal/bench

# Rollout gate mirroring the CI job: the canary-upgrade state machine under
# the race detector — serial-vs-parallel identity of clean and halted
# campaigns, machine death mid-wave, the r1: chaos-replay conformance suite
# with ddmin minimization, the spec-parser fuzz corpus, and the public
# Cluster.Rollout API.
rollout:
	$(GO) test -race -run 'TestRollout|TestClusterRollout|TestSpecErrors|FuzzParseSpec' -count=1 ./internal/cluster ./internal/chaos ./internal/bench .

# Overload gate mirroring the CI job: the admission/brownout control plane
# under the race detector — per-class shedding, bounded retry backoff,
# brownout hysteresis, and the 0 allocs/op Admit ratchet — the traffic
# plane's flash-crowd, churn, antagonist, module-kill and pinned-drive tests,
# the request path's allocation ratchet (TestTrafficRequestAllocs: a
# module-served request allocates nothing once warm, under 0.25 per request
# in the short run) and its task-record recycling-on-vs-off identity, the
# three hazard tests of enokic's per-task record reuse, the 30-run t1:
# traffic chaos campaign with the LeakShed find→shrink→replay loop, the
# cluster Offer front door, the public DriveTraffic/WithAdmission API, and
# the artifact's overload section.
overload:
	$(GO) test -race -count=1 ./internal/overload ./internal/workload/traffic
	$(GO) test -race -run 'TestRecycledRecordRejectsFormerTenantsToken|TestRecycledRecordRestartsGeneration|TestDepartedRecordNotRecycled' -count=1 ./internal/enokic
	$(GO) test -race -run 'TestTraffic|TestParseTrafficSpec|TestGenerateTraffic|TestRunTraffic|TestSpecErrors|FuzzParseSpec' -count=1 ./internal/chaos
	$(GO) test -race -run 'TestDriveTraffic|TestWithBrownout|TestClusterOfferAdmission|TestTrafficFleetDriver' -count=1 .
	$(GO) test -race -run 'TestOffer|TestSubmitBypassesAdmission' -count=1 ./internal/cluster
	$(GO) test -race -run 'TestRunOverloadSmoke' -count=1 ./internal/bench

# Sharded-executor gate mirroring the CI job: pinned record logs and counters
# and conformance for every scheduler class under the race detector, plus the
# ratchets of what the executor stands on: the sharded steady state
# at 0 allocs/op, a cold engine's timer wheel, a burst slot that drains in
# linear time, one allocation per kernel task from spawn to exit and none per
# transient one, the saturated tick at 0 allocs per simulated ms, a kernel
# with CFS built at one allocation count whatever its CPUs — and the
# kernel's idle set: saturated and partly idle runs pinned across commits, and
# the NOHZ target and CFS placement matched against the old machine scans.
# Every System is a ShardedKernel, so the front door is gated here too: a
# one-shard System runs byte-identically to a bare kernel rig for every
# class, its clock follows its kernel, and it costs a fixed handful of
# allocations to build.
sharded:
	$(GO) test -race -run 'TestSharded|TestEngineColdWheelAllocs|TestSlotDrainRefillLinear' -count=1 ./internal/sim ./internal/schedtest/conformance ./internal/chaos
	$(GO) test -race -run 'TestRemoteWake|TestScheduleOpShardedZeroAlloc|TestSpawnExitAllocs|TestTransientSpawnExitAllocs|TestSaturatedTickZeroAlloc|TestSaturatedKernelPinned|TestNearestIdleMatchesScan|TestSelectRQMatchesScan|TestMachineBuildAllocs' -count=1 ./internal/kernel
	$(GO) test -race -run 'TestSystemMatchesKernelRig|TestSystemClockFollowsKernel|TestSystemBuildAllocs|TestSystemSharded' -count=1 .

# Verified-tier gate mirroring the CI job: the bytecode verifier, interpreter
# and fault road under the race detector; the verified class through the
# 7-class conformance suite on Machine80 (including its pinned sharded record
# logs); the verified chaos smoke; the three-tier Attach API; and both
# arms of the crossing ablation at 0 allocs/op — the interpreted pick and
# the module crossing — with what the module arm stands on: the ring deque,
# the never-reused token chunks, the class-data slot's ownership rules, and
# the record logs of every module class pinned to the pre-change bytes.
verified:
	$(GO) test -race -count=1 ./internal/vpol
	$(GO) test -race -run 'TestVerified|TestRecordLogsPinned' -count=1 ./internal/schedtest/conformance ./internal/chaos
	$(GO) test -race -run 'TestCampaignVerifiedTierSmoke|TestAttach' -count=1 ./internal/chaos .
	$(GO) test -race -run 'TestScheduleOp(Verified|Module)FIFOZeroAlloc|TestRTQueueZeroAlloc' -count=1 ./internal/kernel
	$(GO) test -race -run 'TestDeque|TestTokenArena|TestMessageReset' -count=1 ./internal/core
	$(GO) test -race -run 'TestRetainedTokens|TestClassDataSlot|TestUpgradeToTransfersQueuedRing' -count=1 ./internal/enokic

# Paper-reproduction gate mirroring the CI step: every quick-scale
# virtual-time cell of the paper's experiments (Tables 3-6, Figs 2a-c, Fig 3,
# the live upgrade, the simulated record/replay times) pinned to its FNV hash
# under the race detector, with what their host-time speed stands on: the
# ghOSt message path (a wakeup post plus an agent round, per-CPU and SOL) and
# a schbench round at 0 allocs, and CFS's per-domain waiting counts checked
# after every event of random topology-aware and flat runs and matched, as a
# pull choice, against the full peer walk. The busy-poll cells are held to
# their event counts (Table 4's 40-worker Arachne cell, Table 3's same-core
# SOL pipe cell), the SOL agent's round count is pinned, and poll segments
# are checked against a poll-by-poll reference.
paper:
	$(GO) test -race -run 'TestPaperCellsPinned|TestBusyPollEventRatchets' -count=1 ./internal/experiments
	$(GO) test -race -run 'TestAgentRoundZeroAlloc|TestSOLPipeAgentRoundsPinned|TestSchbenchRoundZeroAlloc|TestQuickIdleSetMachine80|TestQuickCFSWaitCountsFlat|TestPullFromMatchesScan|TestPollSegmentsMatchPerPoll' -count=1 ./internal/ghost ./internal/workload ./internal/kernel

# Public-API compatibility gate for package enoki: apidiff when installed,
# textual surface diff against api/enoki.txt otherwise. Refresh the baseline
# after deliberate API changes with `scripts/apicheck.sh -update`.
apicheck:
	./scripts/apicheck.sh

# Fast full-suite pass of every table/figure, fanned out across all cores.
quick:
	$(GO) run ./cmd/enokibench -quick -parallel $$($(GO) env GOMAXPROCS 2>/dev/null || nproc)

# Coverage report mirroring the CI ratchet job.
cover:
	$(GO) test -count=1 -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# Short local fuzz pass over the untrusted-input decoders (CI runs the same
# targets for 30s each).
FUZZTIME ?= 30s
fuzz:
	$(GO) test -fuzz=FuzzLoad -fuzztime=$(FUZZTIME) ./internal/record
	$(GO) test -fuzz=FuzzBuffer -fuzztime=$(FUZZTIME) ./internal/ringbuf
	$(GO) test -fuzz=FuzzVerify -fuzztime=$(FUZZTIME) ./internal/vpol
	$(GO) test -fuzz=FuzzAssemble -fuzztime=$(FUZZTIME) ./internal/vpol
	$(GO) test -fuzz=FuzzParseSpec -fuzztime=$(FUZZTIME) ./internal/chaos

# Seeded chaos campaign under the race detector: fault schedules round-robin
# across every scheduler class, judged by the invariant oracle; any failure
# is minimized and printed as a one-line `enoki-chaos -replay` reproducer
# (the exit code fails the build). The second step is the allocation ratchet
# proving the disarmed fault hooks add nothing to the schedule hot path.
CHAOS_RUNS ?= 70
CHAOS_SEED ?= 0xe120c1
chaos:
	$(GO) run -race ./cmd/enoki-chaos -runs $(CHAOS_RUNS) -seed $(CHAOS_SEED)
	$(GO) test -race -run TestScheduleOpChaosIdleZeroAlloc -count=1 ./internal/kernel

# Render the fixed-seed demo timeline to trace.json for Perfetto.
trace:
	$(GO) run ./cmd/enoki-trace -demo -sched wfq -o trace.json
