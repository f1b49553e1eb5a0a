// Cluster-scale throughput measurement for the sharded executor: the same
// saturated machine simulated three ways — one kernel over every CPU (the
// pre-sharding model), one kernel per NUMA node driven serially, and the
// same sharded machine driven on worker goroutines — at 80 and 1,000 CPUs.
// The artifact (BENCH_cluster.json, `make bench-cluster`) records simulated
// events per wall-clock second for each mode.
//
// The sharded win on a single-core host is algorithmic, not parallel: every
// O(machine) pass in the single-kernel model — most visibly CFS's periodic
// balance sweeping every remote socket's queues — becomes O(node), and each
// shard's timer wheel holds a node's worth of events instead of the whole
// machine's. The
// parallel drive adds goroutine fan-out on top when real cores exist;
// GOMAXPROCS is recorded so the artifact is honest about which effect it
// measured.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
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
	CPUs         int     `json:"cpus"`
	Mode         string  `json:"mode"` // single | sharded-serial | sharded-parallel
	Shards       int     `json:"shards"`
	VirtualMS    float64 `json:"virtual_ms"`
	WallMS       float64 `json:"wall_ms"`
	Events       uint64  `json:"events"`
	CtxSwitches  uint64  `json:"ctx_switches"`
	EventsPerSec float64 `json:"events_per_sec"`
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
		VirtualMS: float64(d) / float64(time.Millisecond),
		WallMS:    float64(wall) / float64(time.Millisecond),
		Events:    eng.Fired(), CtxSwitches: k.CtxSwitches,
		EventsPerSec: float64(eng.Fired()) / wall.Seconds(),
	}
}

// clusterSharded simulates the same machine partitioned per NUMA node.
func clusterSharded(m kernel.Machine, d time.Duration, parallel bool) ClusterResult {
	sk := kernel.NewShardedKernel(m, kernel.CostsFor(m), 0)
	defer sk.Close()
	sk.SetParallel(parallel)
	for i := 0; i < sk.NumShards(); i++ {
		k := sk.ShardKernel(i)
		k.RegisterClass(0, kernel.NewCFS(k))
		clusterSpawn(k, 0)
	}
	mode := "sharded-serial"
	if parallel {
		mode = "sharded-parallel"
	}
	start := time.Now()
	sk.RunFor(d)
	wall := time.Since(start)
	return ClusterResult{
		CPUs: m.NumCPUs, Mode: mode, Shards: sk.NumShards(),
		VirtualMS: float64(d) / float64(time.Millisecond),
		WallMS:    float64(wall) / float64(time.Millisecond),
		Events:    sk.EventsFired(), CtxSwitches: sk.CtxSwitches(),
		EventsPerSec: float64(sk.EventsFired()) / wall.Seconds(),
	}
}

// ClusterOutput is the BENCH_cluster.json document.
type ClusterOutput struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	Note       string `json:"note"`
	// SpeedupAt1000 / SpeedupAt80 are sharded-serial events/sec over the
	// single-kernel events/sec at each scale.
	SpeedupAt80   float64         `json:"speedup_at_80"`
	SpeedupAt1000 float64         `json:"speedup_at_1000"`
	Results       []ClusterResult `json:"results"`
	// Fleet is the cluster-of-machines benchmark section, present when the
	// artifact was produced by `enokibench -fleet` (WriteFleetJSON) or
	// `enokibench -rollout` (WriteRolloutJSON).
	Fleet *FleetResult `json:"fleet,omitempty"`
	// Rollout is the canary-upgrade benchmark section, present when the
	// artifact was produced by `enokibench -rollout` (WriteRolloutJSON).
	Rollout *RolloutBenchResult `json:"rollout,omitempty"`
	// Overload is the internet-scale traffic-plane benchmark section,
	// present when the artifact was produced by `enokibench -overload`
	// (WriteOverloadJSON).
	Overload *OverloadBenchResult `json:"overload,omitempty"`
}

// RunCluster measures every (machine, mode) cell. Virtual durations are
// chosen so each cell fires enough events for a stable wall-clock read while
// the whole sweep stays under a minute of host time.
func RunCluster() *ClusterOutput {
	out := &ClusterOutput{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Note: "speedups are algorithmic (per-node event queues and O(node) scans); " +
			"the parallel drive only adds on multi-core hosts",
	}
	cells := []struct {
		m kernel.Machine
		d time.Duration
	}{
		{kernel.Machine80(), 200 * time.Millisecond},
		{kernel.Machine1000(), 50 * time.Millisecond},
	}
	bySpec := map[string]float64{}
	for _, c := range cells {
		single := clusterSingle(c.m, c.d)
		serial := clusterSharded(c.m, c.d, false)
		par := clusterSharded(c.m, c.d, true)
		out.Results = append(out.Results, single, serial, par)
		bySpec[fmt.Sprintf("%d", c.m.NumCPUs)] = serial.EventsPerSec / single.EventsPerSec
	}
	out.SpeedupAt80 = bySpec["80"]
	out.SpeedupAt1000 = bySpec["1000"]
	return out
}

// WriteClusterJSON runs the cluster sweep and writes the document to path.
func WriteClusterJSON(path string) (*ClusterOutput, error) {
	return writeClusterDoc(path, RunCluster())
}

// writeClusterDoc marshals one BENCH_cluster.json document to path.
func writeClusterDoc(path string, out *ClusterOutput) (*ClusterOutput, error) {
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, fmt.Errorf("bench: writing %s: %w", path, err)
	}
	return out, nil
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
	defer sk.Close()
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
