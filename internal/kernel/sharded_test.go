package kernel

import (
	"testing"
	"time"

	"enoki/internal/ktime"
)

// TestRemoteWake pins the cross-shard wake path at the kernel level: a task
// blocked on shard 1 is woken from shard 0's execution context, the wake
// lands no earlier than one lookahead after the send, and the cross-wake
// counter records the submission.
func TestRemoteWake(t *testing.T) {
	m := MachineNUMA("2node", 2, 1, 4)
	sk := NewShardedKernel(m, CostsFor(m), m.NumNodes, 0)
	for i := 0; i < sk.NumShards(); i++ {
		k := sk.ShardKernel(i)
		k.RegisterClass(testPolicyCFS, NewCFS(k))
	}

	k1 := sk.ShardKernel(1)
	var wokeAt ktime.Time
	calls := 0
	task := k1.Spawn("sleeper", testPolicyCFS, BehaviorFunc(func(k *Kernel, _ *Task) Action {
		calls++
		if calls == 1 {
			return Action{Run: 5 * time.Microsecond, Op: OpBlock}
		}
		wokeAt = k.Now()
		return Action{Op: OpExit}
	}))

	var sentAt ktime.Time
	sk.ShardKernel(0).Engine().Post(50*time.Microsecond, func() {
		sentAt = sk.ShardKernel(0).Now()
		sk.RemoteWake(0, 1, task)
	})

	sk.RunFor(time.Millisecond)

	if calls != 2 {
		t.Fatalf("task ran %d segments, want 2 (block, then remote wake)", calls)
	}
	if task.State() != StateDead {
		t.Errorf("task state = %v, want Dead", task.State())
	}
	if got, want := sk.CrossWakes(), uint64(1); got != want {
		t.Errorf("CrossWakes = %d, want %d", got, want)
	}
	la := ktime.Duration(sk.Executor().Lookahead())
	if wokeAt < sentAt.Add(la) {
		t.Errorf("wake ran at %v, before send %v + lookahead %v", wokeAt, sentAt, la)
	}
}

// TestRemoteWakeBatched pins the batch-window bracketing: a burst of remote
// wakes arriving at one instant on one shard drains inside a single IPI
// batch window, coalescing the kicks the same way a local wake burst does.
func TestRemoteWakeBatched(t *testing.T) {
	m := MachineNUMA("2node", 2, 1, 4)
	sk := NewShardedKernel(m, CostsFor(m), m.NumNodes, 0)
	for i := 0; i < sk.NumShards(); i++ {
		k := sk.ShardKernel(i)
		k.RegisterClass(testPolicyCFS, NewCFS(k))
	}

	k1 := sk.ShardKernel(1)
	// Four tasks pinned to one CPU of shard 1 block, leaving it idle; every
	// wake in the burst then wants a kick at that same idle target.
	var tasks []*Task
	for i := 0; i < 4; i++ {
		tasks = append(tasks, k1.Spawn("blocked", testPolicyCFS,
			BehaviorFunc(func(*Kernel, *Task) Action {
				return Action{Run: time.Microsecond, Op: OpBlock}
			}), WithAffinity(SingleCPU(0))))
	}
	sk.RunFor(20 * time.Microsecond) // everyone spawned and blocked

	sk.ShardKernel(0).Engine().Post(10*time.Microsecond, func() {
		for _, tk := range tasks {
			sk.RemoteWake(0, 1, tk)
		}
	})
	before := k1.IPIsCoalesced
	sk.RunFor(100 * time.Microsecond)

	if got := sk.CrossWakes(); got != 4 {
		t.Fatalf("CrossWakes = %d, want 4", got)
	}
	if got, want := k1.IPIsCoalesced-before, uint64(3); got != want {
		t.Errorf("coalesced %d IPIs in the 4-wake burst, want %d (one kick per target)", got, want)
	}
}
