// Package bench holds the hot-path micro-benchmarks in plain functions, run
// as ordinary `go test -bench` benchmarks through thin delegates in each
// package's _test.go and through testing.Benchmark by the zero-allocation
// ratchet tests, and the cluster, fleet, rollout and overload artifact
// sections `enokibench` writes.
//
// These benchmarks pin the zero-allocation invariant of the simulation hot
// path (DESIGN.md "Performance model"): the steady-state schedule loop —
// event firing, tick/preemption re-arming, message dispatch — must not
// allocate, so experiment throughput is bounded by work, not by the
// collector.
package bench

import (
	"testing"
	"time"

	"enoki/internal/chaos"
	"enoki/internal/core"
	"enoki/internal/kernel"
	"enoki/internal/metrics"
	"enoki/internal/sim"
	"enoki/internal/trace"
)

// --- kernel ---

// ScheduleOp measures one full block→wake→schedule round trip per
// iteration: two pinned tasks ping-pong on one CPU.
func ScheduleOp(b *testing.B) { scheduleOp(b, false, false) }

// ScheduleOpTraced is ScheduleOp with the full observability layer live —
// tracer ring plus per-class/per-CPU histograms — guarding the PR 1
// invariant: enabling tracing must keep the hot path at 0 allocs/op.
func ScheduleOpTraced(b *testing.B) { scheduleOp(b, true, false) }

// ScheduleOpChaosIdle is ScheduleOp with the chaos engine's kernel fault
// injector installed but every fault window disarmed — the steady state of a
// chaos run between events. The injector's window checks ride the kick and
// resched-timer paths of every schedule operation; they must add zero
// allocations (pinned by TestScheduleOpChaosIdleZeroAlloc).
func ScheduleOpChaosIdle(b *testing.B) { scheduleOp(b, false, true) }

func scheduleOp(b *testing.B, traced, chaosIdle bool) {
	eng := sim.New()
	k := kernel.New(eng, kernel.Machine8(), kernel.DefaultCosts())
	k.RegisterClass(0, kernel.NewCFS(k))
	if traced {
		k.SetTracer(trace.New(1 << 16))
		k.SetMetrics(metrics.NewSet(k.NumCPUs()))
	}
	if chaosIdle {
		k.SetFaultInjector(chaos.DisarmedInjector(func() int64 { return int64(k.Now()) }, 1))
	}
	var a, c *kernel.Task
	count := 0
	mk := func(peer **kernel.Task, starts bool) kernel.Behavior {
		started := false
		wake := make([]*kernel.Task, 1)
		return kernel.BehaviorFunc(func(k *kernel.Kernel, t *kernel.Task) kernel.Action {
			wake[0] = *peer
			if starts && !started {
				started = true
				return kernel.Action{Run: 100 * time.Nanosecond, Wake: wake, Op: kernel.OpBlock}
			}
			count++
			return kernel.Action{Run: 100 * time.Nanosecond, Wake: wake, Op: kernel.OpBlock}
		})
	}
	a = k.Spawn("a", 0, mk(&c, true), kernel.WithAffinity(kernel.SingleCPU(0)))
	c = k.Spawn("b", 0, mk(&a, false), kernel.WithAffinity(kernel.SingleCPU(0)))
	b.ReportAllocs()
	b.ResetTimer()
	target := 0
	for i := 0; i < b.N; i++ {
		target++
		for count < target {
			if !eng.Step() {
				b.Fatal("engine drained")
			}
		}
	}
}

// WakeBurst measures the batched cross-CPU wake path on the two-socket
// Machine80: a producer on CPU 0 wakes 16 consumers — pinned in pairs on
// one core of each LLC group across both sockets — in a single Action.Wake
// burst, so the 16 wakes coalesce into at most 8 IPIs (one per distinct
// target), half of them crossing the socket boundary. Each consumer runs a
// short segment and blocks again; the producer sleeps long enough for the
// whole burst to drain, then fires the next one. One iteration is one full
// burst cycle. The batched wake/IPI path must stay at 0 allocs/op (pinned
// by TestWakeBurstZeroAlloc).
func WakeBurst(b *testing.B) {
	eng := sim.New()
	m := kernel.Machine80()
	k := kernel.New(eng, m, kernel.CostsFor(m))
	k.RegisterClass(0, kernel.NewCFS(k))

	// One core per LLC group: 4 in socket 0, 4 in socket 1; two consumers
	// pinned per core so per-target coalescing has work to do.
	targets := []int{5, 15, 25, 35, 45, 55, 65, 75}
	var consumers []*kernel.Task
	for _, cpu := range targets {
		for j := 0; j < 2; j++ {
			consumers = append(consumers, k.Spawn("consumer", 0, kernel.BehaviorFunc(
				func(*kernel.Kernel, *kernel.Task) kernel.Action {
					return kernel.Action{Run: 200 * time.Nanosecond, Op: kernel.OpBlock}
				}), kernel.WithAffinity(kernel.SingleCPU(cpu))))
		}
	}
	bursts := 0
	k.Spawn("producer", 0, kernel.BehaviorFunc(
		func(*kernel.Kernel, *kernel.Task) kernel.Action {
			bursts++
			return kernel.Action{Run: 100 * time.Nanosecond, Wake: consumers,
				Op: kernel.OpSleep, SleepFor: 30 * time.Microsecond}
		}), kernel.WithAffinity(kernel.SingleCPU(0)))

	// Warm up: one full cycle fills the event free list and first-wake state.
	for bursts < 2 {
		if !eng.Step() {
			b.Fatal("engine drained")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	target := bursts
	for i := 0; i < b.N; i++ {
		target++
		for bursts < target {
			if !eng.Step() {
				b.Fatal("engine drained")
			}
		}
	}
	if k.IPIsCoalesced == 0 {
		b.Fatal("burst coalesced no IPIs")
	}
}

// SpawnExit measures task creation and teardown.
func SpawnExit(b *testing.B) {
	eng := sim.New()
	k := kernel.New(eng, kernel.Machine8(), kernel.DefaultCosts())
	k.RegisterClass(0, kernel.NewCFS(k))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Spawn("s", 0, kernel.BehaviorFunc(func(*kernel.Kernel, *kernel.Task) kernel.Action {
			return kernel.Action{Run: time.Microsecond, Op: kernel.OpExit}
		}))
		k.RunFor(100 * time.Microsecond)
	}
	if k.NumTasks() != 0 {
		b.Fatal("tasks leaked")
	}
}

// TickPath measures the steady-state tick + preemption machinery with 16
// CPU-bound tasks on 8 cores. Zero allocations once warmed up.
func TickPath(b *testing.B) {
	eng := sim.New()
	k := kernel.New(eng, kernel.Machine8(), kernel.DefaultCosts())
	k.RegisterClass(0, kernel.NewCFS(k))
	for i := 0; i < 16; i++ {
		k.Spawn("t", 0, kernel.BehaviorFunc(func(*kernel.Kernel, *kernel.Task) kernel.Action {
			return kernel.Action{Run: 10 * time.Millisecond, Op: kernel.OpContinue}
		}))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.RunFor(time.Millisecond) // ≥8 ticks + preemptions per iteration
	}
}

// --- core ---

// nopSched is the cheapest possible module, isolating Dispatch's own cost.
type nopSched struct{ core.BaseScheduler }

func (nopSched) GetPolicy() int { return 1 }
func (nopSched) PickNextTask(cpu int, curr *core.Schedulable, rt time.Duration) *core.Schedulable {
	return nil
}
func (nopSched) TaskNew(pid int, rt time.Duration, r bool, allowed []int, s *core.Schedulable) {}
func (nopSched) TaskWakeup(pid int, rt time.Duration, d bool, l, w int, s *core.Schedulable)   {}
func (nopSched) TaskPreempt(pid int, rt time.Duration, cpu int, preempted bool, s *core.Schedulable) {
}
func (nopSched) TaskYield(pid int, rt time.Duration, cpu int, s *core.Schedulable)    {}
func (nopSched) TaskDeparted(pid, cpu int) *core.Schedulable                          { return nil }
func (nopSched) SelectTaskRQ(pid, prev int, wakeup bool) int                          { return prev }
func (nopSched) MigrateTaskRQ(pid, newCPU int, s *core.Schedulable) *core.Schedulable { return s }

// Dispatch measures libEnoki's processing function: the per-message parse +
// call + reply write that happens on every framework crossing.
func Dispatch(b *testing.B) {
	s := nopSched{}
	m := &core.Message{Kind: core.MsgPickNextTask, CPU: 3}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.RetSched = nil
		core.Dispatch(s, m)
	}
}

// DispatchWakeup includes a token materialisation (the replay path): the
// Schedulable is built in the message's inline scratch slot, so the hot
// path stays allocation-free.
func DispatchWakeup(b *testing.B) {
	s := nopSched{}
	m := &core.Message{Kind: core.MsgTaskWakeup, PID: 7,
		Sched: &core.SchedulableRef{PID: 7, CPU: 2, Gen: 9}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.Dispatch(s, m)
	}
}

// DispatchAllMessages returns one pre-built message per dispatchable Kind,
// exactly what a replay drain feeds through Dispatch. Shared with the
// zero-allocation pin test in internal/core.
func DispatchAllMessages() []*core.Message {
	ref := &core.SchedulableRef{PID: 7, CPU: 2, Gen: 9}
	allowed := []int{0, 1, 2}
	return []*core.Message{
		{Kind: core.MsgPickNextTask, CPU: 3},
		{Kind: core.MsgPntErr, CPU: 3, PID: 7, ErrCode: int(core.PickStale), Sched: ref},
		{Kind: core.MsgTaskDead, PID: 7},
		{Kind: core.MsgTaskBlocked, PID: 7, CPU: 3},
		{Kind: core.MsgTaskWakeup, PID: 7, LastCPU: 1, WakeCPU: 2, Sched: ref},
		{Kind: core.MsgTaskNew, PID: 7, Runnable: true, Allowed: allowed, Sched: ref},
		{Kind: core.MsgTaskPreempt, PID: 7, CPU: 3, Sched: ref},
		{Kind: core.MsgTaskYield, PID: 7, CPU: 3, Sched: ref},
		{Kind: core.MsgTaskDeparted, PID: 7, CPU: 3},
		{Kind: core.MsgTaskAffinityChanged, PID: 7, Allowed: allowed},
		{Kind: core.MsgTaskPrioChanged, PID: 7, Prio: 4},
		{Kind: core.MsgTaskTick, CPU: 3, Queued: true, PID: 7},
		{Kind: core.MsgSelectTaskRQ, PID: 7, PrevCPU: 1, Wakeup: true},
		{Kind: core.MsgMigrateTaskRQ, PID: 7, NewCPU: 4, Sched: ref},
		{Kind: core.MsgBalance, CPU: 3},
		{Kind: core.MsgBalanceErr, CPU: 3, BalancePID: 7, Sched: ref},
		{Kind: core.MsgEnterQueue, QueueID: 1, Count: 2},
		{Kind: core.MsgParseHint},
	}
}

// DispatchAll drives every dispatchable message Kind through Dispatch each
// iteration — the full trait surface a record log can carry.
func DispatchAll(b *testing.B) {
	s := nopSched{}
	msgs := DispatchAllMessages()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range msgs {
			m.RetSched = nil
			core.Dispatch(s, m)
		}
	}
}

// DispatchTraced drives the same message set through the panic-contained +
// traced crossing (SafeDispatchTraced with a live tracer sink) — the most
// instrumented form a crossing can take, still zero allocations.
func DispatchTraced(b *testing.B) {
	s := nopSched{}
	msgs := DispatchAllMessages()
	tr := trace.New(1 << 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range msgs {
			m.RetSched = nil
			if f := core.SafeDispatchTraced(s, m, tr); f != nil {
				b.Fatalf("unexpected fault: %v", f)
			}
		}
	}
}
