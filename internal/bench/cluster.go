// Cluster-scale throughput measurement for the sharded executor: the same
// saturated machine simulated two ways — one kernel over every CPU (the
// pre-sharding model) and one kernel per NUMA node under the epoch executor
// — at 80 and 1,000 CPUs, in simulated events per wall-clock second. It is
// host time, so `enokibench -cluster` (`make sweep`) prints it and writes
// nothing.
//
// The sharded win is algorithmic, not parallel: every O(machine) pass in the
// single-kernel model — most visibly CFS's periodic balance sweeping every
// remote socket's queues — becomes O(node), and each shard's timer wheel
// holds a node's worth of events instead of the whole machine's.
package bench

import (
	"testing"
	"time"

	"enoki/internal/kernel"
	"enoki/internal/sim"
)

// clusterSpawn loads one kernel with the saturating per-CPU mix used by
// every cluster mode: two pinned spinners per CPU (one running, one queued —
// so each tick sees a backlog) and one pinned sleeper per eight CPUs
// (wake-path traffic).
func clusterSpawn(k *kernel.Kernel, policy int) {
	n := k.NumCPUs()
	for cpu := 0; cpu < n; cpu++ {
		for j := 0; j < 2; j++ {
			k.Spawn("spin", policy, kernel.BehaviorFunc(
				func(*kernel.Kernel, *kernel.Task) kernel.Action {
					return kernel.Action{Run: 10 * time.Millisecond, Op: kernel.OpContinue}
				}), kernel.WithAffinity(kernel.SingleCPU(cpu)))
		}
		if cpu%8 == 0 {
			k.Spawn("sleep", policy, kernel.BehaviorFunc(
				func(*kernel.Kernel, *kernel.Task) kernel.Action {
					return kernel.Action{Run: 100 * time.Microsecond,
						Op: kernel.OpSleep, SleepFor: 400 * time.Microsecond}
				}), kernel.WithAffinity(kernel.SingleCPU(cpu)))
		}
	}
}

// ClusterResult is one (machine, mode) measurement.
type ClusterResult struct {
	CPUs         int
	Mode         string // single | sharded-serial
	Shards       int
	WallMS       float64
	Events       uint64
	CtxSwitches  uint64
	EventsPerSec float64
}

// clusterSingle simulates d of virtual time on one kernel over the whole
// machine.
func clusterSingle(m kernel.Machine, d time.Duration) ClusterResult {
	eng := sim.New()
	k := kernel.New(eng, m, kernel.CostsFor(m))
	k.RegisterClass(0, kernel.NewCFS(k))
	clusterSpawn(k, 0)
	start := time.Now()
	k.RunFor(d)
	wall := time.Since(start)
	return ClusterResult{
		CPUs: m.NumCPUs, Mode: "single", Shards: 1,
		WallMS: float64(wall) / float64(time.Millisecond),
		Events: eng.Fired(), CtxSwitches: k.CtxSwitches,
		EventsPerSec: float64(eng.Fired()) / wall.Seconds(),
	}
}

// clusterSharded simulates the same machine partitioned per NUMA node.
func clusterSharded(m kernel.Machine, d time.Duration) ClusterResult {
	sk := kernel.NewShardedKernel(m, kernel.CostsFor(m), 0)
	for i := 0; i < sk.NumShards(); i++ {
		k := sk.ShardKernel(i)
		k.RegisterClass(0, kernel.NewCFS(k))
		clusterSpawn(k, 0)
	}
	start := time.Now()
	sk.RunFor(d)
	wall := time.Since(start)
	return ClusterResult{
		CPUs: m.NumCPUs, Mode: "sharded-serial", Shards: sk.NumShards(),
		WallMS: float64(wall) / float64(time.Millisecond),
		Events: sk.EventsFired(), CtxSwitches: sk.CtxSwitches(),
		EventsPerSec: float64(sk.EventsFired()) / wall.Seconds(),
	}
}

// RunCluster measures every (machine, mode) cell: a single-kernel and a
// sharded-serial result per machine, in that order. Virtual durations are
// chosen so each cell fires enough events for a stable wall-clock read while
// the whole sweep stays under a minute of host time.
func RunCluster() []ClusterResult {
	var out []ClusterResult
	for _, c := range []struct {
		m kernel.Machine
		d time.Duration
	}{
		{kernel.Machine80(), 200 * time.Millisecond},
		{kernel.Machine1000(), 50 * time.Millisecond},
	} {
		out = append(out, clusterSingle(c.m, c.d), clusterSharded(c.m, c.d))
	}
	return out
}

// ScheduleOpSharded is the sharded-executor allocation ratchet: the
// block→wake→schedule ping-pong of ScheduleOp running on every shard of a
// two-node machine under the epoch-merge executor (serial drive). One
// iteration advances the whole sharded simulation by a fixed slice of
// virtual time; after warmup — free lists filled, every wheel slot's backing
// slice touched — the steady state must allocate nothing (pinned by
// TestScheduleOpShardedZeroAlloc).
func ScheduleOpSharded(b *testing.B) {
	m := kernel.MachineNUMA("bench-2node", 2, 1, 4)
	sk := kernel.NewShardedKernel(m, kernel.CostsFor(m), 0)
	counts := make([]int, sk.NumShards())
	for i := 0; i < sk.NumShards(); i++ {
		i := i
		k := sk.ShardKernel(i)
		k.RegisterClass(0, kernel.NewCFS(k))
		var a, c *kernel.Task
		mk := func(peer **kernel.Task) kernel.Behavior {
			wake := make([]*kernel.Task, 1)
			return kernel.BehaviorFunc(func(*kernel.Kernel, *kernel.Task) kernel.Action {
				wake[0] = *peer
				counts[i]++
				return kernel.Action{Run: 100 * time.Nanosecond, Wake: wake, Op: kernel.OpBlock}
			})
		}
		a = k.Spawn("a", 0, mk(&c), kernel.WithAffinity(kernel.SingleCPU(0)))
		c = k.Spawn("b", 0, mk(&a), kernel.WithAffinity(kernel.SingleCPU(0)))
	}
	// Warm past a full timer-wheel rotation so every slot's slice exists.
	sk.RunFor(5 * time.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.RunFor(20 * time.Microsecond)
	}
	b.StopTimer()
	for i, n := range counts {
		if n == 0 {
			b.Fatalf("shard %d made no progress", i)
		}
	}
}
