// Crossing-cost ablation: the same FIFO policy attached at the module tier
// (full enokic message crossing) and at the verified tier (bytecode
// interpreted in the kernel pick path), driven through the identical
// ping-pong workload. The ns/op gap is the measured cost of the framework
// crossing the verified fast lane skips.
package bench

import (
	"testing"
	"time"

	"enoki/internal/core"
	"enoki/internal/enokic"
	"enoki/internal/kernel"
	"enoki/internal/sched/fifo"
	"enoki/internal/sim"
	"enoki/internal/vpol"
)

// pingPong runs the ScheduleOp workload — two tasks pinned to CPU 0, each
// waking the other and blocking — with the tasks spawned into policy.
func pingPong(b *testing.B, eng *sim.Engine, k *kernel.Kernel, policy int) {
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
	a = k.Spawn("a", policy, mk(&c, true), kernel.WithAffinity(kernel.SingleCPU(0)))
	c = k.Spawn("b", policy, mk(&a, false), kernel.WithAffinity(kernel.SingleCPU(0)))
	// Warm up past first-wake state and free-list fills before measuring.
	for count < 64 {
		if !eng.Step() {
			b.Fatal("engine drained")
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	target := count
	for i := 0; i < b.N; i++ {
		target++
		for count < target {
			if !eng.Step() {
				b.Fatal("engine drained")
			}
		}
	}
}

// ScheduleOpModuleFIFO is the module-tier arm of the crossing ablation: the
// ping-pong round trip scheduled by the FIFO policy as a full Enoki module,
// every hook a message build + dispatch + reply copy-back.
func ScheduleOpModuleFIFO(b *testing.B) {
	eng := sim.New()
	k := kernel.New(eng, kernel.Machine8(), kernel.DefaultCosts())
	const policy = 1
	enokic.Load(k, policy, enokic.DefaultConfig(), func(env core.Env) core.Scheduler {
		return fifo.New(env, policy)
	})
	k.RegisterClass(0, kernel.NewCFS(k))
	pingPong(b, eng, k, policy)
}

// ScheduleOpVerifiedFIFO is the verified-tier arm: the same FIFO policy as
// bytecode, interpreted directly in the pick path with no crossing. Must
// stay at 0 allocs/op (pinned by TestScheduleOpVerifiedFIFOZeroAlloc).
func ScheduleOpVerifiedFIFO(b *testing.B) {
	eng := sim.New()
	k := kernel.New(eng, kernel.Machine8(), kernel.DefaultCosts())
	const policy = 1
	if _, err := vpol.Load(k, policy, vpol.FIFOProgram(), vpol.DefaultConfig()); err != nil {
		b.Fatalf("vpol load: %v", err)
	}
	k.RegisterClass(0, kernel.NewCFS(k))
	pingPong(b, eng, k, policy)
}
