package kernel_test

import (
	"runtime"
	"testing"
	"time"

	"enoki/internal/bench"
	"enoki/internal/core"
	"enoki/internal/enokic"
	"enoki/internal/kernel"
	"enoki/internal/sched/fifo"
	"enoki/internal/sched/shinjuku"
	"enoki/internal/sim"
)

// TestScheduleOpTracedZeroAlloc is the allocation ratchet for the
// observability layer at the kernel level: a full block→wake→schedule round
// trip with the tracer ring and per-class histograms live must stay at 0
// allocs/op, same as the untraced path. Run as a test (not only a
// benchmark) so `go test ./...` catches a regression without anyone
// remembering to read benchmark output.
func TestScheduleOpTracedZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed; skipped in -short")
	}
	r := testing.Benchmark(bench.ScheduleOpTraced)
	if allocs := r.AllocsPerOp(); allocs != 0 {
		t.Errorf("traced ScheduleOp: %d allocs/op, want 0", allocs)
	}
}

// TestScheduleOpChaosIdleZeroAlloc is the allocation ratchet for the chaos
// engine's kernel fault hooks: with the injector installed but every fault
// window disarmed — how a chaos run spends almost all of its virtual time —
// the window checks on the kick and resched-timer paths must add nothing to
// the schedule round trip.
func TestScheduleOpChaosIdleZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed; skipped in -short")
	}
	r := testing.Benchmark(bench.ScheduleOpChaosIdle)
	if allocs := r.AllocsPerOp(); allocs != 0 {
		t.Errorf("ScheduleOp with disarmed fault hooks: %d allocs/op, want 0", allocs)
	}
}

// TestScheduleOpShardedZeroAlloc is the allocation ratchet for the sharded
// executor: the ScheduleOp ping-pong on every shard of a two-node machine,
// driven through the epoch-merge protocol, must stay at 0 allocs/op once the
// free lists and timer-wheel slots are warm. This pins the whole sharded
// stack — epoch loop, message outboxes, per-shard wheels — not just one
// kernel's hot path.
func TestScheduleOpShardedZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed; skipped in -short")
	}
	r := testing.Benchmark(bench.ScheduleOpSharded)
	if allocs := r.AllocsPerOp(); allocs != 0 {
		t.Errorf("sharded ScheduleOp: %d allocs/op, want 0", allocs)
	}
}

// TestScheduleOpVerifiedFIFOZeroAlloc is the allocation ratchet for the
// verified-bytecode fast lane: the ScheduleOp ping-pong with both tasks
// scheduled by the interpreted FIFO program — enqueue hook, pick-path
// interpretation, queue pops — must stay at 0 allocs/op. This is the tier's
// core promise: module-free crossing with kernel-native allocation behavior.
func TestScheduleOpVerifiedFIFOZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed; skipped in -short")
	}
	r := testing.Benchmark(bench.ScheduleOpVerifiedFIFO)
	if allocs := r.AllocsPerOp(); allocs != 0 {
		t.Errorf("verified-tier ScheduleOp: %d allocs/op, want 0", allocs)
	}
}

// TestScheduleOpModuleFIFOZeroAlloc is the allocation ratchet for the module
// tier: the same ping-pong with both tasks scheduled by the FIFO Go module,
// every hook a message crossing through enokic and core. The per-task record
// is read from the class-data slot, messages are pooled, the module's run
// queue is a ring, and proof tokens come 256 to an allocation — so a round
// trip rounds to 0 allocs/op, where it was 2.
func TestScheduleOpModuleFIFOZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed; skipped in -short")
	}
	r := testing.Benchmark(bench.ScheduleOpModuleFIFO)
	if allocs := r.AllocsPerOp(); allocs != 0 {
		t.Errorf("module-tier ScheduleOp: %d allocs/op, want 0", allocs)
	}
}

// TestWakeBurstZeroAlloc is the allocation ratchet for the batched
// cross-CPU message path: a 16-wake burst on the two-socket Machine80 —
// per-target IPI coalescing, cross-socket delivery, idle exits — must
// allocate nothing in steady state.
func TestWakeBurstZeroAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed; skipped in -short")
	}
	r := testing.Benchmark(bench.WakeBurst)
	if allocs := r.AllocsPerOp(); allocs != 0 {
		t.Errorf("batched WakeBurst: %d allocs/op, want 0", allocs)
	}
}

// threeSegments is a task body kept in a caller-owned record, like the
// cluster agent's: two compute segments with a sleep between them, a third,
// then exit — and it counts its own death through kernel.Exiter, so the
// task needs no BehaviorFunc or observer closure.
type threeSegments struct {
	step   int
	exited *int
}

func (b *threeSegments) Next(*kernel.Kernel, *kernel.Task) kernel.Action {
	b.step++
	switch b.step {
	case 1:
		return kernel.Action{Run: 50 * time.Microsecond, Op: kernel.OpSleep, SleepFor: 100 * time.Microsecond}
	case 2:
		return kernel.Action{Run: 50 * time.Microsecond, Op: kernel.OpYield}
	case 3:
		return kernel.Action{Run: 50 * time.Microsecond, Op: kernel.OpContinue}
	}
	return kernel.Action{Op: kernel.OpExit}
}

func (b *threeSegments) Exited(*kernel.Task) { *b.exited++ }

// TestSpawnExitAllocs is the task-lifecycle allocation ratchet, counted the
// way the benchmark ledger counts (runtime.MemStats.Mallocs over the run
// region): under builtin CFS a task's whole life — spawn, three segments
// with a sleep, exit — costs the Task record and nothing else, because its
// completion event, CFS entity and run-queue node are embedded in it and it
// handles its own timers. The hundredth allowed is the pid table and the
// event free list growing as the kernel ages.
func TestSpawnExitAllocs(t *testing.T) {
	const warm, tasks = 600, 2000
	eng := sim.New()
	k := kernel.New(eng, kernel.Machine8(), kernel.DefaultCosts())
	k.RegisterClass(0, kernel.NewCFS(k))
	exited := 0
	recs := make([]threeSegments, warm+tasks)
	life := func(b *threeSegments) {
		b.exited = &exited
		k.Spawn("t", 0, b)
		k.RunUntilIdle()
	}
	for i := range recs[:warm] {
		life(&recs[i])
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range recs[warm:] {
		life(&recs[warm+i])
	}
	runtime.ReadMemStats(&after)
	if exited != warm+tasks || k.NumTasks() != 0 {
		t.Fatalf("%d of %d tasks exited, %d still live", exited, warm+tasks, k.NumTasks())
	}
	per := float64(after.Mallocs-before.Mallocs) / tasks
	t.Logf("%.4f allocs/task", per)
	if per > 1.01 {
		t.Fatalf("spawn→exit costs %.3f allocs/task, want <= 1 (+0.01 for table growth)", per)
	}
}

// TestTransientSpawnExitAllocs is TestSpawnExitAllocs for SpawnTransient,
// counted the same way: with the free lists warm a task's whole life
// allocates nothing. Under builtin CFS the record is the last tenant's and
// the pid table slides instead of growing; under a Go module enokic's
// per-task record and the module's own (Shinjuku keeps one; FIFO keeps
// none) are the last tenant's too. What is left is the task's share of a
// 256-token arena chunk per enqueue, since tokens are never reused.
func TestTransientSpawnExitAllocs(t *testing.T) {
	const warm, tasks = 600, 2000
	fifoModule := func(env core.Env) core.Scheduler { return fifo.New(env, 1) }
	shinjukuModule := func(env core.Env) core.Scheduler { return shinjuku.New(env, 1, 0) }
	for _, tc := range []struct {
		name   string
		policy int
		module func(core.Env) core.Scheduler
		max    float64
	}{
		{"builtin-cfs", 0, fifoModule, 0.001},
		{"module-fifo", 1, fifoModule, 0.05},
		{"module-shinjuku", 1, shinjukuModule, 0.05},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.New()
			k := kernel.New(eng, kernel.Machine8(), kernel.DefaultCosts())
			enokic.Load(k, 1, enokic.DefaultConfig(), tc.module)
			k.RegisterClass(0, kernel.NewCFS(k))
			exited := 0
			recs := make([]threeSegments, warm+tasks)
			life := func(b *threeSegments) {
				b.exited = &exited
				k.SpawnTransient("t", tc.policy, b)
				k.RunUntilIdle()
			}
			for i := range recs[:warm] {
				life(&recs[i])
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := range recs[warm:] {
				life(&recs[warm+i])
			}
			runtime.ReadMemStats(&after)
			if exited != warm+tasks || k.NumTasks() != 0 {
				t.Fatalf("%d of %d tasks exited, %d still live", exited, warm+tasks, k.NumTasks())
			}
			per := float64(after.Mallocs-before.Mallocs) / tasks
			t.Logf("%.4f allocs/task", per)
			if per > tc.max {
				t.Fatalf("transient spawn→exit costs %.4f allocs/task, want <= %v", per, tc.max)
			}
		})
	}
}

// TestMachineBuildAllocs is the construction ratchet: a kernel and its CFS
// class cost a fixed number of allocations whatever the CPU count, because
// the CPUs, the run queues with their trees, the per-CPU arrays and the peer
// lists are each one slab. Machine8 and Machine80 must cost the same.
func TestMachineBuildAllocs(t *testing.T) {
	build := func(m kernel.Machine) float64 {
		return testing.AllocsPerRun(20, func() {
			k := kernel.New(sim.New(), m, kernel.DefaultCosts())
			k.RegisterClass(0, kernel.NewCFS(k))
		})
	}
	small, big := build(kernel.Machine8()), build(kernel.Machine80())
	t.Logf("Machine8 %.0f allocs, Machine80 %.0f", small, big)
	if small != big {
		t.Fatalf("building a kernel with CFS costs %.0f allocations on Machine8 and %.0f on Machine80: construction grows with the CPU count", small, big)
	}
}
