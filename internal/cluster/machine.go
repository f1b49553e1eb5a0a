package cluster

import (
	"fmt"
	"time"

	"enoki/internal/enokic"
	"enoki/internal/kernel"
	"enoki/internal/ktime"
	"enoki/internal/sim"
)

// The job-lifecycle vocabulary: the sim.Msg kinds the control plane and the
// machine agents exchange, one value message per start, stop and report.
// A is always the job id.
const (
	// Control plane → machine (Shard is the job's shard).
	msgStart uint8 = iota + 1 // B cycles left, X run, Y sleep, S task name
	msgStop
	// Machine → control plane (B is the reporting machine).
	msgStarted
	msgStopped // X cycles left at the checkpoint
	msgDone
)

// Machine is the agent side of the control loop: one simulated machine — a
// full sharded kernel under its own epoch-merge executor — executing start
// and stop operations the control plane injects, and reporting lifecycle
// transitions back over the simulated network. Operations and reports both
// ride the fleet's deterministic message order, so the agent is a state
// machine with no hidden concurrency: applyStart/applyStop run inside the
// target shard's execution context, exit observers run on the owning shard,
// and every cross-machine send is sent from the machine's fleet node — its
// shards run one at a time, so their sends never race.
type Machine struct {
	c  *Cluster
	id int
	sk *kernel.ShardedKernel
	// node is this machine's fleet index, the sender of its reports.
	node int
	// runs is the agent's running-set: jobRun records in a slab (a record's
	// address is stable while its task holds it as a Behavior), finished
	// ones chained on free for the next start. Only shard contexts of this
	// machine touch either, and they run one at a time, so no locking.
	runs    slab[jobRun]
	free    *jobRun
	spawned uint64
	// ads are the per-shard upgradable modules (index = shard, nil where
	// Config.SetupModules registered none). Each adapter is mutated only by
	// its own shard's engine; the rollout agent ops in rollout.go fan
	// in/out through shard injections, never cross-shard reads.
	ads []*enokic.Adapter
}

// jobRun is the on-machine state of one placed job and, with no closure per
// job, its task's kernel.Behavior and kernel.Exiter: the task runs cyclesLeft
// compute segments, parking between them per the spec, and honors the
// cooperative stop flag at every cycle boundary.
type jobRun struct {
	m          *Machine
	next       *jobRun // free-list link
	id         int32   // -1 while the record is free
	shard      int32
	cyclesLeft int
	stop       bool // cooperative stop flag, checked at cycle boundaries
	run, sleep time.Duration
}

// Next implements kernel.Behavior.
func (jr *jobRun) Next(*kernel.Kernel, *kernel.Task) kernel.Action {
	if jr.stop || jr.cyclesLeft <= 0 {
		return kernel.Action{Op: kernel.OpExit}
	}
	jr.cyclesLeft--
	if jr.sleep > 0 {
		return kernel.Action{Run: jr.run, Op: kernel.OpSleep, SleepFor: jr.sleep}
	}
	return kernel.Action{Run: jr.run, Op: kernel.OpYield}
}

// Exited implements kernel.Exiter on the owning shard: report the completion
// or the migration checkpoint, and free the record.
func (jr *jobRun) Exited(*kernel.Task) {
	m := jr.m
	if jr.stop && jr.cyclesLeft > 0 {
		m.reportMsg(int(jr.shard), sim.Msg{Kind: msgStopped, A: jr.id, X: int64(jr.cyclesLeft)})
	} else {
		m.reportMsg(int(jr.shard), sim.Msg{Kind: msgDone, A: jr.id})
	}
	jr.id = -1
	jr.next, m.free = m.free, jr
}

func newMachine(c *Cluster, id int) *Machine {
	sk := kernel.NewShardedKernel(c.cfg.Machine, kernel.CostsFor(c.cfg.Machine), 0)
	m := &Machine{c: c, id: id, sk: sk}
	sk.Executor().SetMsgHandler(m.handle)
	m.node = c.fl.AddNode(sk)
	if c.cfg.SetupModules != nil {
		m.ads = c.cfg.SetupModules(id, sk)
	} else if c.cfg.Setup != nil {
		c.cfg.Setup(id, sk)
	} else {
		for s := 0; s < sk.NumShards(); s++ {
			k := sk.ShardKernel(s)
			k.RegisterClass(0, kernel.NewCFS(k))
		}
	}
	return m
}

// ID returns the machine's cluster-wide id.
func (m *Machine) ID() int { return m.id }

// Sharded returns the machine's kernel stack, for per-shard instrumentation
// (recorders, tracers, extra workload) between runs.
func (m *Machine) Sharded() *kernel.ShardedKernel { return m.sk }

// TasksSpawned returns how many job tasks this machine has spawned. Read it
// between runs.
func (m *Machine) TasksSpawned() uint64 { return m.spawned }

// Adapters returns the per-shard upgradable modules Config.SetupModules
// registered (nil entries for shards without one; nil slice when the
// machine was built without SetupModules). Read adapter state between runs
// only — mid-run the shards own it.
func (m *Machine) Adapters() []*enokic.Adapter { return m.ads }

// report sends a closure from shard context back to the control plane, one
// network latency away: the rollout acks' road. Job reports take reportMsg.
func (m *Machine) report(shard int, fn func(s *jobScheduler)) {
	c := m.c
	at := m.sk.ShardKernel(shard).Now().Add(ktime.Duration(c.cfg.NetLatency))
	c.fl.SendHandoff(m.node, c.ctrlNode, at, func() {
		c.ctrl.PostAt(at, func() { fn(c.sched) })
	})
}

// reportMsg sends a job lifecycle report, stamped with this machine's id,
// from shard context back to the control plane one network latency away.
func (m *Machine) reportMsg(shard int, msg sim.Msg) {
	c := m.c
	msg.B = int32(m.id)
	at := m.sk.ShardKernel(shard).Now().Add(ktime.Duration(c.cfg.NetLatency))
	c.fl.SendMsg(m.node, c.ctrlNode, at, msg)
}

// handle executes one control-plane operation in the target shard's context.
func (m *Machine) handle(shard int, msg *sim.Msg) {
	switch msg.Kind {
	case msgStart:
		m.applyStart(shard, msg)
	case msgStop:
		m.applyStop(msg.A)
	default:
		panic(fmt.Sprintf("cluster: machine %d got message kind %d", m.id, msg.Kind))
	}
}

// newRun takes a record off the free list, or a new one from the slab.
func (m *Machine) newRun() *jobRun {
	jr := m.free
	if jr == nil {
		jr = m.runs.add()
		jr.m = m
		return jr
	}
	m.free, jr.next = jr.next, nil
	return jr
}

// applyStart executes a start operation inside shard context: spawn the
// job's task into the configured policy class and ack the placement.
func (m *Machine) applyStart(shard int, msg *sim.Msg) {
	jr := m.newRun()
	jr.id, jr.shard = msg.A, int32(shard)
	jr.cyclesLeft, jr.stop = int(msg.B), false
	jr.run, jr.sleep = time.Duration(msg.X), time.Duration(msg.Y)
	m.spawned++
	m.sk.ShardKernel(shard).Spawn(msg.S, m.c.cfg.Policy, jr)
	m.reportMsg(shard, sim.Msg{Kind: msgStarted, A: msg.A})
}

// applyStop executes a stop operation: raise the cooperative flag so the
// task exits at its next cycle boundary with its progress checkpointed. A
// job that already finished (its done report is in flight) is a no-op — the
// control plane resolves the race from the reports. Stops are rare (one
// migration per reconcile tick at most), so the record is found by scanning
// the slab, not through an index kept on every start and exit.
func (m *Machine) applyStop(id int32) {
	for _, chunk := range m.runs.chunks {
		for i := range chunk {
			if chunk[i].id == id {
				chunk[i].stop = true
				return
			}
		}
	}
}
