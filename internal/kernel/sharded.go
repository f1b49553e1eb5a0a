// ShardedKernel runs a machine under the epoch-merge executor (sim.Sharded),
// either as one shard spanning the whole machine — how every enoki.System
// and every cluster machine of one node runs — or partitioned into one
// sub-kernel per NUMA node, each on its own sim shard: shard i owns node i's
// CPUs, run queues, timers, and scheduler class instances, and advances
// independently between cross-node interactions. The only cross-shard
// traffic is the remote wake —
// physically a cross-socket IPI, which is why the executor lookahead defaults
// to the calibrated cross-node IPI latency: no real interaction is faster, so
// the conservative epoch protocol loses nothing.
//
// The partition is also the performance story on large machines: every
// kernel-side scan that is O(machine) in the single-kernel model — the
// periodic balancer's sweep of remote sockets, affinity clamps — is O(node)
// here, and each shard's event queue holds a node's worth of timers instead
// of the whole machine's. The sharded run is deterministic (see
// sim.Sharded), which the conformance suite pins by hashing per-shard record
// logs across commits.
package kernel

import (
	"fmt"
	"time"

	"enoki/internal/ktime"
	"enoki/internal/sim"
)

// ShardedKernel runs one Kernel per shard under the epoch-merge executor.
type ShardedKernel struct {
	ex         *sim.Sharded
	machine    Machine
	shards     []kshard // every sub-kernel, in one slab
	crossWakes uint64   // remote wakes submitted
}

// kshard is one sub-kernel and the first global CPU id of its shard: shard i
// owns global CPUs [base, base+k.NumCPUs()).
type kshard struct {
	base int
	k    Kernel
}

// NewShardedKernel partitions m into shards sub-kernels. One shard spans the
// whole machine as given, every NUMA node included: the same machine New
// builds on one engine, driven by the executor. m.NumNodes shards put each
// node on its own sub-kernel, with the node's CPUs renumbered from zero; no
// other count is a partition. Every sub-kernel keeps the full machine's cost
// table (they must not be re-calibrated as small machines — they are slices
// of the big one). lookahead is the executor epoch length; zero selects the
// calibrated cross-node IPI latency, the true minimum latency of the only
// cross-shard interaction.
//
// Each node's CPUs must be contiguous in the global numbering (true for
// every MachineNUMA-built topology); anything else panics, because the
// global↔local id mapping would need a table instead of an offset.
func NewShardedKernel(m Machine, costs Costs, shards int, lookahead time.Duration) *ShardedKernel {
	if m.NumNodes < 1 {
		panic("kernel: NewShardedKernel on a machine without nodes")
	}
	if shards != 1 && shards != m.NumNodes {
		panic(fmt.Sprintf("kernel: %d shards on a %d-node machine (one, or one per node)", shards, m.NumNodes))
	}
	if lookahead <= 0 {
		lookahead = costs.IPIDeliver + costs.CrossNodeExtra
	}
	sk := &ShardedKernel{
		ex:      sim.NewSharded(shards, lookahead),
		machine: m,
		shards:  make([]kshard, shards),
	}
	for i := range sk.shards {
		sh, sub := &sk.shards[i], m
		if shards > 1 {
			lo, hi := nodeRange(m, i)
			sh.base, sub = lo, subMachine(m, i, lo, hi)
		}
		sh.k.init(sk.ex.Shard(i), sub, costs)
	}
	// Cross-shard deliveries for one (shard, instant) batch run inside one
	// IPI batch window: a burst of remote wakes flushes one kick per target
	// CPU, exactly like a local wake burst.
	sk.ex.SetBatchHooks((*batchHooks)(sk))
	return sk
}

// batchHooks points the executor's delivery brackets at the target shard's
// IPI batch window.
type batchHooks ShardedKernel

func (h *batchHooks) BeginBatch(i int) { h.shards[i].k.beginBatch() }
func (h *batchHooks) EndBatch(i int)   { h.shards[i].k.flushBatch() }

// nodeRange returns the contiguous global CPU range [lo, hi) of node nd,
// panicking if the node's CPUs are interleaved with another node's.
func nodeRange(m Machine, nd int) (int, int) {
	lo, hi := -1, -1
	for cpu := 0; cpu < m.NumCPUs; cpu++ {
		if m.NodeOf[cpu] != nd {
			continue
		}
		if lo == -1 {
			lo = cpu
		} else if cpu != hi {
			panic(fmt.Sprintf("kernel: node %d CPUs not contiguous (%d after %d)", nd, cpu, hi-1))
		}
		hi = cpu + 1
	}
	if lo == -1 {
		panic(fmt.Sprintf("kernel: node %d has no CPUs", nd))
	}
	return lo, hi
}

// subMachine carves node nd (global CPUs [lo, hi)) out of m as a standalone
// single-node machine with locally renumbered LLC domains.
func subMachine(m Machine, nd, lo, hi int) Machine {
	n := hi - lo
	node := make([]int, n)
	var llc []int
	numLLC := 0
	if m.LLCOf != nil {
		llc = make([]int, n)
		seen := map[int]int{}
		for i := 0; i < n; i++ {
			g := m.LLCOf[lo+i]
			l, ok := seen[g]
			if !ok {
				l = len(seen)
				seen[g] = l
			}
			llc[i] = l
		}
		numLLC = len(seen)
	}
	return Machine{
		Name:    fmt.Sprintf("%s [node %d]", m.Name, nd),
		NumCPUs: n,
		NodeOf:  node, NumNodes: 1,
		LLCOf: llc, NumLLCs: numLLC,
	}
}

// NumShards returns the shard count: one, or the machine's node count.
func (sk *ShardedKernel) NumShards() int { return len(sk.shards) }

// ShardKernel returns shard i's sub-kernel. Classes and modules register per
// shard; tasks spawned through it live on that shard for their lifetime.
func (sk *ShardedKernel) ShardKernel(i int) *Kernel { return &sk.shards[i].k }

// Executor returns the underlying epoch-merge executor.
func (sk *ShardedKernel) Executor() *sim.Sharded { return sk.ex }

// Machine returns the full (unsharded) machine description.
func (sk *ShardedKernel) Machine() Machine { return sk.machine }

// GlobalCPU maps shard i's local CPU id to the machine-wide id.
func (sk *ShardedKernel) GlobalCPU(shard, local int) int { return sk.shards[shard].base + local }

// ShardOfCPU maps a machine-wide CPU id to (shard, local id).
func (sk *ShardedKernel) ShardOfCPU(cpu int) (int, int) {
	if len(sk.shards) == 1 {
		return 0, cpu
	}
	nd := sk.machine.NodeOf[cpu]
	return nd, cpu - sk.shards[nd].base
}

// RemoteWake wakes a task owned by shard `to` from shard `from`'s execution
// context: the cross-socket IPI of the sharded model. The wake lands one
// lookahead later — the calibrated cross-node delivery latency — and drains
// inside the target shard's IPI batch window, so a burst of remote wakes at
// one instant flushes one kick per target CPU. Must be called from shard
// `from`'s context (one of its event closures) or between runs; the task is
// touched only on delivery, inside shard `to`'s context.
func (sk *ShardedKernel) RemoteWake(from, to int, t *Task) {
	sk.crossWakes++
	k := &sk.shards[to].k
	sk.ex.Send(from, to, sk.ex.Shard(from).Now().Add(ktime.Duration(sk.ex.Lookahead())),
		func() { k.Wake(t) })
}

// CrossWakes returns how many remote wakes have been submitted.
func (sk *ShardedKernel) CrossWakes() uint64 { return sk.crossWakes }

// Now returns the executor's global virtual-time floor.
func (sk *ShardedKernel) Now() ktime.Time { return sk.ex.Now() }

// RunFor advances the whole sharded simulation by d.
func (sk *ShardedKernel) RunFor(d time.Duration) {
	sk.ex.RunUntil(sk.ex.Now().Add(ktime.Duration(d)))
}

// RunUntil advances the whole sharded simulation to absolute virtual time t;
// every shard clock finishes at exactly t. With Now and NextEventTime it
// makes a ShardedKernel a sim.FleetNode: one machine of a simulated cluster.
func (sk *ShardedKernel) RunUntil(t ktime.Time) { sk.ex.RunUntil(t) }

// RunEvents runs a one-node machine ahead to h (see sim.Sharded.RunEvents).
func (sk *ShardedKernel) RunEvents(h ktime.Time, log []byte) []byte { return sk.ex.RunEvents(h, log) }

// NextEventTime returns the earliest pending work anywhere in the machine —
// shard events or in-flight cross-shard messages. Call it between runs.
func (sk *ShardedKernel) NextEventTime() (ktime.Time, bool) { return sk.ex.NextEventTime() }

// Inject commits fn for execution on shard `to` of this machine at absolute
// virtual time at, from a fleet-level coordinator between machine epochs
// (see sim.Sharded.Inject). This is how cluster-level commands — job starts,
// stops, control messages — enter a machine deterministically.
func (sk *ShardedKernel) Inject(to int, at ktime.Time, fn func()) { sk.ex.Inject(to, at, fn) }

// AcceptMsg is Inject for a value message (see sim.Sharded.AcceptMsg): it
// makes a ShardedKernel a sim.MsgSink, so a fleet can address job starts and
// stops to a machine without a closure per message. The payload runs on
// shard m.Shard through the executor's SetMsgHandler function.
func (sk *ShardedKernel) AcceptMsg(at ktime.Time, m *sim.Msg) { sk.ex.AcceptMsg(at, m) }

// RunUntilIdle runs until every shard's event queue drains and no message is
// in flight.
func (sk *ShardedKernel) RunUntilIdle() { sk.ex.RunUntilIdle() }

// sum adds f over every shard's kernel.
func (sk *ShardedKernel) sum(f func(k *Kernel) uint64) (n uint64) {
	for i := range sk.shards {
		n += f(&sk.shards[i].k)
	}
	return n
}

// NumTasks sums the live-task counts of every shard.
func (sk *ShardedKernel) NumTasks() int {
	return int(sk.sum(func(k *Kernel) uint64 { return uint64(k.NumTasks()) }))
}

// CtxSwitches sums context switches across shards.
func (sk *ShardedKernel) CtxSwitches() uint64 {
	return sk.sum(func(k *Kernel) uint64 { return k.CtxSwitches })
}

// Wakeups sums task wakeups across shards (remote wakes included: they run
// on the owning shard).
func (sk *ShardedKernel) Wakeups() uint64 {
	return sk.sum(func(k *Kernel) uint64 { return k.Wakeups })
}

// EventsFired sums engine events fired across shards.
func (sk *ShardedKernel) EventsFired() uint64 { return sk.ex.EventsFired() }
