// Package workload implements the benchmark workload models of §5: the
// perf-bench-sched-pipe ping-pong, schbench message/worker trees, the
// parallel-application profiles behind Table 5 and Appendix A.1, the
// dispersive RocksDB load of Fig 2, the batch applications it co-locates,
// and the mutilate-driven memcached model of Fig 3.
//
// Each model encodes the scheduling footprint of its application — blocking
// pattern, fan-out, compute bursts, service-time distribution — which is
// what the paper's results depend on (DESIGN.md §1 documents the
// substitution).
package workload

import (
	"time"

	"enoki/internal/arachne"
	"enoki/internal/kernel"
)

// PipeConfig describes a perf bench sched pipe run: two tasks send
// `Messages` messages back and forth, each sender sleeping until the other
// responds.
type PipeConfig struct {
	Policy   int
	Messages int
	// SameCore forces both tasks onto CPU 0 (the paper's one-core
	// configuration); otherwise tasks sit on CPUs 0 and 1.
	SameCore bool
	// WorkPerMsg is the userspace work to build/consume one message.
	WorkPerMsg time.Duration
}

// PipeResult reports the benchmark outcome.
type PipeResult struct {
	// PerWakeup is the mean latency per message wakeup, the unit of
	// Table 3.
	PerWakeup time.Duration
	Total     time.Duration
	Messages  int
}

// RunPipe executes the pipe benchmark on kernel k and returns per-wakeup
// latency. It runs the simulation; the kernel should be otherwise idle.
func RunPipe(k *kernel.Kernel, cfg PipeConfig) PipeResult {
	if cfg.WorkPerMsg == 0 {
		cfg.WorkPerMsg = 300 * time.Nanosecond
	}
	var a, b *kernel.Task
	count := 0
	var finished time.Duration
	done := false
	mk := func(peer **kernel.Task, starts bool) kernel.Behavior {
		started := false
		var wake []*kernel.Task // {peer}, built on the first run (both are spawned by then)
		return kernel.BehaviorFunc(func(k *kernel.Kernel, t *kernel.Task) kernel.Action {
			if wake == nil {
				wake = []*kernel.Task{*peer}
			}
			if starts && !started {
				started = true
				return kernel.Action{Run: cfg.WorkPerMsg, Wake: wake, Op: kernel.OpBlock}
			}
			count++
			if count >= 2*cfg.Messages {
				if !done {
					done = true
					finished = time.Duration(k.Now())
				}
				return kernel.Action{Op: kernel.OpExit}
			}
			return kernel.Action{Run: cfg.WorkPerMsg, Wake: wake, Op: kernel.OpBlock}
		})
	}
	maskA := kernel.SingleCPU(0)
	maskB := kernel.SingleCPU(0)
	if !cfg.SameCore {
		maskB = kernel.SingleCPU(1)
	}
	a = k.Spawn("pipe-a", cfg.Policy, mk(&b, true), kernel.WithAffinity(maskA))
	b = k.Spawn("pipe-b", cfg.Policy, mk(&a, false), kernel.WithAffinity(maskB))
	// Generous deadline: the slowest scheduler needs ~10µs per wakeup.
	k.RunFor(time.Duration(cfg.Messages)*50*time.Microsecond + time.Second)
	if count < 2*cfg.Messages {
		// A stalled scheduler is a real finding: surface it as an
		// absurd latency rather than hiding it.
		return PipeResult{PerWakeup: time.Hour, Messages: count}
	}
	return PipeResult{
		PerWakeup: finished / time.Duration(2*cfg.Messages),
		Total:     finished,
		Messages:  2 * cfg.Messages,
	}
}

// RunArachnePipe runs the ping-pong as Arachne user threads: each message
// is a user-level continuation submitted to the runtime, so the kernel is
// not on the message path at all (Table 3's Arachne row).
func RunArachnePipe(k *kernel.Kernel, rt *arachne.Runtime, messages int, twoCores bool) PipeResult {
	// Let the runtime settle (grants, activations spun up).
	k.RunFor(2 * time.Millisecond)
	start := k.Now()
	count := 0
	var finished time.Duration
	var ping, pong func()
	msgWork := 50 * time.Nanosecond
	ping = func() {
		count++
		if count >= 2*messages {
			finished = k.Now().Sub(start)
			return
		}
		rt.Submit(arachne.UserThread{Service: msgWork, Done: pong})
	}
	pong = func() {
		count++
		if count >= 2*messages {
			finished = k.Now().Sub(start)
			return
		}
		rt.Submit(arachne.UserThread{Service: msgWork, Done: ping})
	}
	rt.Submit(arachne.UserThread{Service: msgWork, Done: ping})
	k.RunFor(time.Duration(messages)*10*time.Microsecond + time.Second)
	if count < 2*messages {
		return PipeResult{PerWakeup: time.Hour, Messages: count}
	}
	_ = twoCores // the grant size decides cores; kept for call-site clarity
	return PipeResult{
		PerWakeup: finished / time.Duration(2*messages),
		Total:     finished,
		Messages:  2 * messages,
	}
}
