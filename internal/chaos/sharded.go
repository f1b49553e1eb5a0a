package chaos

import (
	"bytes"
	"fmt"
	"time"

	"enoki/internal/enokic"
	"enoki/internal/kernel"
	"enoki/internal/ktime"
	"enoki/internal/record"
	"enoki/internal/schedtest/conformance"
)

// shardSalt separates the fault-window streams of different shards: every
// shard arms its own windows, drawn from its own sequence, all derived from
// the one campaign seed.
const shardSalt uint64 = 0x94d049bb133111eb

// ShardedResult is one sharded campaign's outcome. Logs holds the raw
// per-shard record bytes; a serial and a parallel run of the same seed must
// match field for field, Logs byte for byte.
type ShardedResult struct {
	Verdict
	Logs          [][]byte
	WorkloadDone  int
	WorkloadTasks int
	PingersDone   int
	Pingers       int
	MsgsDelivered uint64
	EventsFired   uint64
	CtxSwitches   uint64
}

// armShardFaults derives one shard's kernel fault windows from the campaign
// seed — a pure function of (seed, shard), so serial and parallel runs arm
// identical windows. All four kernel planes fire inside the first half of
// the budget: IPI loss (modelled as recovery-bounded delay), IPI delay
// jitter, IPI duplication, and timer skew.
func armShardFaults(seed uint64, shard int, k *kernel.Kernel, budget time.Duration) {
	rng := ktime.NewRand(seed ^ kernelSalt ^ (shardSalt * uint64(shard+1)))
	kf := &kernelFaults{
		clock: func() int64 { return int64(k.Now()) },
		rng:   ktime.NewRand(rng.Uint64()),
	}
	window := func(dur time.Duration) (int64, int64) {
		at := int64(rng.Uint64() % uint64(budget/2))
		return at, at + int64(dur)
	}
	kf.dropFrom, kf.dropUntil = window(2 * time.Millisecond)
	kf.dropMag = int64(3 * time.Millisecond)
	kf.delayFrom, kf.delayUntil = window(2 * time.Millisecond)
	kf.delayMag = int64(50 * time.Microsecond)
	kf.dupFrom, kf.dupUntil = window(time.Millisecond)
	kf.dupMag = int64(30 * time.Microsecond)
	kf.skewFrom, kf.skewUntil = window(2 * time.Millisecond)
	kf.skewMag = int64(20 * time.Microsecond)
	k.SetFaultInjector(kf)
}

// ShardedCampaign runs one seeded kernel-plane campaign for class on the
// two-socket machine partitioned per NUMA node: per-shard seeded workloads,
// cross-shard pinger traffic through the epoch-merge protocol, and per-shard
// fault windows (IPI drop/delay/dup, timer skew) armed from the seed. The
// campaign is deterministic end to end — with parallel false the shards run
// in shard order on one goroutine, with parallel true on worker goroutines,
// and both produce the same ShardedResult, record logs included. That
// identity under armed fault windows is what the sharded chaos test pins.
func ShardedCampaign(seed uint64, class string, budget time.Duration, tasksPerShard int, parallel bool) ShardedResult {
	c, ok := caseByName(class)
	if !ok {
		return ShardedResult{Verdict: Verdict{[]string{fmt.Sprintf("unknown class %q", class)}}}
	}
	m := kernel.Machine80()
	r := conformance.NewShardedRig(c, m, enokic.DefaultConfig())
	defer r.SK.Close()
	r.SK.SetParallel(parallel)

	n := r.SK.NumShards()
	bufs := make([]*bytes.Buffer, n)
	recs := make([]*record.Recorder, n)
	checkers := make([]*conformance.Checker, n)
	dones := make([]func() int, n)
	for i := 0; i < n; i++ {
		sub := r.Shards[i]
		if sub.Adapter != nil {
			bufs[i] = &bytes.Buffer{}
			recs[i] = record.New(sub.K, bufs[i], conformance.PolicyCFS, record.DefaultCosts())
			sub.Adapter.SetRecorder(recs[i])
		}
		armShardFaults(seed, i, sub.K, budget)
		w := conformance.Workload{Seed: seed ^ workloadSalt ^ uint64(i), Tasks: tasksPerShard, Churn: true}
		dones[i] = w.Spawn(sub)
		checkers[i] = conformance.StartChecker(sub, 500*time.Microsecond)
	}
	const pingers, cycles = 2, 10
	pingDone := r.CrossTraffic(pingers, cycles, 300*time.Microsecond)

	r.SK.RunFor(budget)

	res := ShardedResult{
		Logs:          make([][]byte, n),
		WorkloadTasks: n * tasksPerShard,
		Pingers:       n * pingers,
		PingersDone:   pingDone(),
		MsgsDelivered: r.SK.Executor().MsgsDelivered(),
		EventsFired:   r.SK.EventsFired(),
		CtxSwitches:   r.SK.CtxSwitches(),
	}
	for i := 0; i < n; i++ {
		res.WorkloadDone += dones[i]()
		checkers[i].Stop()
		for _, v := range checkers[i].Violations {
			res.Violations = append(res.Violations, fmt.Sprintf("shard %d checker: %v", i, v))
		}
		if recs[i] != nil {
			recs[i].Close()
			res.Logs[i] = bufs[i].Bytes()
			if _, err := record.Load(bytes.NewReader(res.Logs[i])); err != nil {
				res.Violations = append(res.Violations, fmt.Sprintf("shard %d record log not decodable: %v", i, err))
			}
		}
	}
	return res
}
