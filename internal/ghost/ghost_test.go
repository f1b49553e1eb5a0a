package ghost

import (
	"testing"
	"time"

	"enoki/internal/kernel"
	"enoki/internal/sim"
)

const (
	policyCFS   = 0
	policyGhost = 20
)

func rig(mode Mode, policy AgentPolicy) (*kernel.Kernel, *Ghost) {
	eng := sim.New()
	k := kernel.New(eng, kernel.Machine8(), kernel.DefaultCosts())
	g := New(k, mode, policy, 7, DefaultCosts())
	k.RegisterClass(policyGhost, g)
	k.RegisterClass(policyCFS, kernel.NewCFS(k))
	g.Start(policyGhost)
	return k, g
}

func spin(total, chunk time.Duration) kernel.Behavior {
	remaining := total
	return kernel.BehaviorFunc(func(k *kernel.Kernel, t *kernel.Task) kernel.Action {
		if remaining <= 0 {
			return kernel.Action{Op: kernel.OpExit}
		}
		c := chunk
		if c > remaining {
			c = remaining
		}
		remaining -= c
		return kernel.Action{Run: c, Op: kernel.OpContinue}
	})
}

func TestPerCPUFIFOCompletesWork(t *testing.T) {
	k, g := rig(ModePerCPU, NewFIFOPolicy())
	done := 0
	for i := 0; i < 4; i++ {
		k.Spawn("w", policyGhost, spin(3*time.Millisecond, 500*time.Microsecond),
			kernel.WithExitObserver(func() { done++ }))
	}
	k.RunFor(200 * time.Millisecond)
	if done != 4 {
		t.Fatalf("completed %d/4 under ghOSt per-CPU FIFO", done)
	}
	if g.AgentActivations() == 0 {
		t.Fatal("agents never ran")
	}
}

func TestSOLCompletesWork(t *testing.T) {
	k, g := rig(ModeSOL, NewSOLPolicy())
	done := 0
	for i := 0; i < 4; i++ {
		k.Spawn("w", policyGhost, spin(3*time.Millisecond, 500*time.Microsecond),
			kernel.WithAffinity(kernel.AllCPUs(7)), // keep off the agent core
			kernel.WithExitObserver(func() { done++ }))
	}
	k.RunFor(200 * time.Millisecond)
	if done != 4 {
		t.Fatalf("completed %d/4 under ghOSt SOL", done)
	}
	if g.AgentActivations() == 0 {
		t.Fatal("global agent never ran")
	}
}

func TestGhostPipeSlowerThanDirect(t *testing.T) {
	// The asynchronous agent round-trip must add latency versus a
	// synchronous in-kernel scheduler (Table 3's central comparison).
	pipe := func(build func(k *kernel.Kernel) int) time.Duration {
		eng := sim.New()
		k := kernel.New(eng, kernel.Machine8(), kernel.DefaultCosts())
		policy := build(k)
		const rounds = 300
		var a, b *kernel.Task
		count := 0
		var finished time.Duration
		mk := func(peer **kernel.Task, starts bool) kernel.Behavior {
			started := false
			return kernel.BehaviorFunc(func(k *kernel.Kernel, t *kernel.Task) kernel.Action {
				if starts && !started {
					started = true
					return kernel.Action{Run: 300 * time.Nanosecond, Wake: []*kernel.Task{*peer}, Op: kernel.OpBlock}
				}
				count++
				if count >= 2*rounds {
					finished = time.Duration(k.Now())
					return kernel.Action{Op: kernel.OpExit}
				}
				return kernel.Action{Run: 300 * time.Nanosecond, Wake: []*kernel.Task{*peer}, Op: kernel.OpBlock}
			})
		}
		a = k.Spawn("a", policy, mk(&b, true), kernel.WithAffinity(kernel.SingleCPU(0)))
		b = k.Spawn("b", policy, mk(&a, false), kernel.WithAffinity(kernel.SingleCPU(0)))
		k.RunFor(10 * time.Second)
		if count < 2*rounds {
			t.Fatalf("pipe stalled at %d", count)
		}
		return finished / (2 * rounds)
	}
	cfsLat := pipe(func(k *kernel.Kernel) int {
		k.RegisterClass(policyCFS, kernel.NewCFS(k))
		return policyCFS
	})
	ghostLat := pipe(func(k *kernel.Kernel) int {
		g := New(k, ModePerCPU, NewFIFOPolicy(), 7, DefaultCosts())
		k.RegisterClass(policyGhost, g)
		k.RegisterClass(policyCFS, kernel.NewCFS(k))
		g.Start(policyGhost)
		return policyGhost
	})
	if ghostLat < cfsLat+2*time.Microsecond {
		t.Fatalf("ghOSt per-CPU FIFO latency %v vs CFS %v: agent cost missing", ghostLat, cfsLat)
	}
	if ghostLat > cfsLat+15*time.Microsecond {
		t.Fatalf("ghOSt latency %v implausibly high (CFS %v)", ghostLat, cfsLat)
	}
}

func TestShinjukuPolicyPreemptsLongTasks(t *testing.T) {
	// One long task and a stream of short tasks on a single worker core:
	// with a 10µs quantum the short tasks must not wait for the long one
	// to finish.
	eng := sim.New()
	k := kernel.New(eng, kernel.Machine8(), kernel.DefaultCosts())
	g := New(k, ModeSOL, NewShinjukuPolicy(10*time.Microsecond), 7, DefaultCosts())
	k.RegisterClass(policyGhost, g)
	k.RegisterClass(policyCFS, kernel.NewCFS(k))
	g.Start(policyGhost)

	workerMask := kernel.SingleCPU(0)
	k.Spawn("long", policyGhost, spin(50*time.Millisecond, 50*time.Millisecond),
		kernel.WithAffinity(workerMask))
	k.RunFor(2 * time.Millisecond)

	var shortDone []time.Duration
	start := k.Now()
	for i := 0; i < 3; i++ {
		k.Spawn("short", policyGhost, spin(5*time.Microsecond, 5*time.Microsecond),
			kernel.WithAffinity(workerMask),
			kernel.WithExitObserver(func() {
				shortDone = append(shortDone, k.Now().Sub(start))
			}))
	}
	k.RunFor(20 * time.Millisecond)
	if len(shortDone) != 3 {
		t.Fatalf("short tasks finished: %d/3", len(shortDone))
	}
	for _, d := range shortDone {
		if d > 5*time.Millisecond {
			t.Fatalf("short task waited %v behind a long task; preemption broken", d)
		}
	}
}

func TestStaleCommitsDetected(t *testing.T) {
	// Kill tasks racily so some commits go stale; the class must survive.
	k, _ := rig(ModeSOL, NewSOLPolicy())
	for i := 0; i < 20; i++ {
		k.Spawn("flash", policyGhost, spin(30*time.Microsecond, 30*time.Microsecond),
			kernel.WithAffinity(kernel.AllCPUs(7)))
	}
	k.RunFor(100 * time.Millisecond)
	if k.NumTasks() != 1 { // only the agent remains
		t.Fatalf("tasks leaked: %d", k.NumTasks())
	}
}

func TestAgentSharesCoreInPerCPUMode(t *testing.T) {
	// In per-CPU mode the agent consumes cycles on the workload's core.
	k, g := rig(ModePerCPU, NewFIFOPolicy())
	k.Spawn("sleeper", policyGhost, kernel.BehaviorFunc(
		func(k *kernel.Kernel, t *kernel.Task) kernel.Action {
			return kernel.Action{Run: 10 * time.Microsecond, Op: kernel.OpSleep, SleepFor: 90 * time.Microsecond}
		}), kernel.WithAffinity(kernel.SingleCPU(0)))
	k.RunFor(100 * time.Millisecond)
	agent := g.agents[0]
	if agent.SumExec() == 0 {
		t.Fatal("per-CPU agent consumed no cycles despite scheduling activity")
	}
}

// TestAgentRoundZeroAlloc is the message path's allocation ratchet: once
// warm, a workload wakeup posted to its agent, the agent's drain of its
// buffer, the policy round and the commit allocate nothing, in both agent
// arrangements.
func TestAgentRoundZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mode   Mode
		policy AgentPolicy
	}{
		{"percpu", ModePerCPU, NewFIFOPolicy()},
		{"sol", ModeSOL, NewSOLPolicy()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k, g := rig(tc.mode, tc.policy)
			sleeper := k.Spawn("sleeper", policyGhost, kernel.BehaviorFunc(
				func(k *kernel.Kernel, t *kernel.Task) kernel.Action {
					return kernel.Action{Run: 10 * time.Microsecond, Op: kernel.OpSleep, SleepFor: 90 * time.Microsecond}
				}), kernel.WithAffinity(kernel.SingleCPU(0)))
			k.RunFor(10 * time.Millisecond)
			rounds, ran := g.AgentActivations(), sleeper.SumExec()
			// Each 100 µs period holds one wakeup, one block and the agent
			// rounds they cause.
			if avg := testing.AllocsPerRun(100, func() { k.RunFor(100 * time.Microsecond) }); avg != 0 {
				t.Errorf("%.2f allocs per wakeup round, want 0", avg)
			}
			if g.AgentActivations() == rounds || sleeper.SumExec() == ran {
				t.Fatal("the measured window ran no agent round or no workload")
			}
		})
	}
}
