package conformance

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"time"

	"enoki/internal/enokic"
	"enoki/internal/kernel"
	"enoki/internal/record"
)

// ShardedRig is one conformance machine partitioned per NUMA node: every
// shard carries its own instance of the case's class above its own CFS, all
// driven by one epoch-merge executor.
type ShardedRig struct {
	SK *kernel.ShardedKernel
	// Shards holds one sub-rig per node; Rig.K is the node's sub-kernel, so
	// the single-kernel helpers (StartChecker, Workload) apply per shard
	// unchanged.
	Shards []*Rig
}

// NewShardedRig builds the sharded machine for c on m: one sub-kernel per
// NUMA node, the case's module (when it has one) loaded above CFS on every
// shard.
func NewShardedRig(c Case, m kernel.Machine, cfg enokic.Config) *ShardedRig {
	sk := kernel.NewShardedKernel(m, kernel.CostsFor(m), 0)
	r := &ShardedRig{SK: sk}
	for i := 0; i < sk.NumShards(); i++ {
		r.Shards = append(r.Shards, Mount(c, sk.ShardKernel(i), cfg, nil))
	}
	return r
}

// CrossTraffic wires deterministic cross-shard wake traffic into r: pingers
// per shard that block each cycle and are driven by the neighbouring shard
// through the executor's message protocol (the cross-socket IPI path). Each
// pinger receives exactly `cycles` cross-shard credits; a credit arriving
// while the pinger is blocked wakes it, and one arriving mid-cycle is banked
// and consumed by the block-time recheck (the futex-style "a wake raced the
// block" path), so no credit is ever wasted regardless of how slowly the
// class cycles the task. The returned function reports how many pingers have
// exited.
func (r *ShardedRig) CrossTraffic(pingersPerShard, cycles int, period time.Duration) func() int {
	sk := r.SK
	n := sk.NumShards()
	la := sk.Executor().Lookahead()
	completed := 0
	for i := 0; i < n; i++ {
		i := i
		sub := r.Shards[i]
		k := sub.K
		waker := (i + 1) % n
		wakerEng := sk.ShardKernel(waker).Engine()
		for p := 0; p < pingersPerShard; p++ {
			// pending banks credits that arrived while the task was not
			// blocked. It is owned by shard i: the delivery closure and the
			// recheck both execute in shard i's context.
			pending := 0
			cycle := 0
			recheck := func() bool {
				if pending > 0 {
					pending--
					return true
				}
				return false
			}
			t := k.Spawn(fmt.Sprintf("ping%d.%d", i, p), sub.Policy,
				kernel.BehaviorFunc(func(*kernel.Kernel, *kernel.Task) kernel.Action {
					cycle++
					if cycle > cycles {
						return kernel.Action{Op: kernel.OpExit}
					}
					return kernel.Action{Run: 40 * time.Microsecond, Op: kernel.OpBlock, Recheck: recheck}
				}),
				kernel.WithExitObserver(func() { completed++ }))
			deliver := func() {
				if t.State() == kernel.StateBlocked {
					k.Wake(t)
				} else {
					pending++
				}
			}
			// The waker chain runs on the neighbour shard, submitting one
			// credit per period through the epoch-merge protocol.
			left := cycles
			var fire func()
			fire = func() {
				sk.Executor().Send(waker, i, wakerEng.Now().Add(la), deliver)
				if left--; left > 0 {
					wakerEng.Post(period, fire)
				}
			}
			wakerEng.Post(time.Duration(p+1)*10*time.Microsecond, fire)
		}
	}
	return func() int { return completed }
}

// ShardedRunResult is one RecordShardedRun outcome: the raw per-shard record
// logs (empty slices for module-less cases) and the completion counts the
// pin and conformance tests assert on.
type ShardedRunResult struct {
	Logs          [][]byte
	WorkloadDone  int
	WorkloadTasks int
	PingersDone   int
	Pingers       int
	CrossWakes    uint64
	MsgsDelivered uint64
	EventsFired   uint64
	CtxSwitches   uint64
	Violations    []Violation
}

// LogsHash is the FNV-1a hash of a run's per-shard record logs, each behind
// its length so no byte can move between shards unseen: the form in which
// sharded runs are pinned across commits.
func LogsHash(logs [][]byte) uint64 {
	h := fnv.New64a()
	for _, l := range logs {
		fmt.Fprintf(h, "%d:", len(l))
		h.Write(l)
	}
	return h.Sum64()
}

// RecordShardedRun drives one fully seeded sharded workload for c on m:
// every shard runs a per-shard seeded Workload plus the cross-shard pinger
// traffic, with a record channel per shard (when the case has a module) and
// an invariant checker per shard. Runs of the same arguments produce
// byte-identical Logs, on any commit that leaves the simulation alone.
func RecordShardedRun(c Case, m kernel.Machine, cfg enokic.Config, seed uint64,
	tasksPerShard int, budget time.Duration) ShardedRunResult {
	r := NewShardedRig(c, m, cfg)
	n := r.SK.NumShards()
	bufs := make([]*bytes.Buffer, n)
	recs := make([]*record.Recorder, n)
	checkers := make([]*Checker, n)
	dones := make([]func() int, n)
	for i := 0; i < n; i++ {
		sub := r.Shards[i]
		if sub.Adapter != nil {
			bufs[i] = &bytes.Buffer{}
			recs[i] = record.New(sub.K, bufs[i], PolicyCFS, record.DefaultCosts())
			sub.Adapter.SetRecorder(recs[i])
		}
		w := Workload{Seed: seed + uint64(i)*0x9e37, Tasks: tasksPerShard, Churn: true}
		dones[i] = w.Spawn(sub)
		checkers[i] = StartChecker(sub, 500*time.Microsecond)
	}
	const pingers, cycles = 3, 12
	pingDone := r.CrossTraffic(pingers, cycles, 200*time.Microsecond)

	r.SK.RunFor(budget)

	res := ShardedRunResult{
		Logs:          make([][]byte, n),
		WorkloadTasks: n * tasksPerShard,
		Pingers:       n * pingers,
		PingersDone:   pingDone(),
		CrossWakes:    r.SK.CrossWakes(),
		MsgsDelivered: r.SK.Executor().MsgsDelivered(),
		EventsFired:   r.SK.EventsFired(),
		CtxSwitches:   r.SK.CtxSwitches(),
	}
	for i := 0; i < n; i++ {
		res.WorkloadDone += dones[i]()
		checkers[i].Stop()
		res.Violations = append(res.Violations, checkers[i].Violations...)
		if recs[i] != nil {
			recs[i].Close()
			res.Logs[i] = bufs[i].Bytes()
		}
	}
	return res
}
