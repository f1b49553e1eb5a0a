// Fleet is the cluster-level generalization of the Sharded epoch-merge
// executor: where Sharded runs N engines (shards of one machine) under a
// deterministic message-merge protocol, Fleet runs N whole simulations —
// anything implementing FleetNode, in practice one sharded machine per node
// plus a control-plane engine — under the same protocol one level up. The
// lookahead is the network latency: no cross-machine message is faster, so
// an epoch of that length can run every machine to the boundary with no
// machine observing another's state.
//
// The merge ordering is the same (at, to, from, seq) total order Sharded
// uses, with one generalization: message sources are registered explicitly
// (AddSource) rather than being the node index, so one machine can expose
// several independent send contexts — one per internal shard — and a send
// from any of them is race-free under both the fleet's and the machine's
// parallel drive. Ties at one instant break by destination node, then source
// id, then per-source send sequence; every sequence counter is monotonic for
// the life of the executor (never reset between epochs or runs), which is
// what makes the order total and the serial and parallel fleet drives
// byte-identical.
//
// Delivery differs from Sharded in one way: a committed message's closure
// runs on the coordinator goroutine at the epoch boundary, while every node
// is quiescent at the global floor. The closure's job is to hand the payload
// to the destination node's own deterministic executor (Sharded.Inject,
// Engine.PostAt) for execution at the delivery instant inside that node's
// context — the fleet commits, the node executes. A value message (SendMsg)
// is the same handoff without the closure: the fleet commits it by passing
// the Msg to the destination's MsgSink, in the same merge order, under the
// same early-commit rule, and drops and counts it the same way when the
// destination is dead.
//
// Fail-stop machine failure is part of the protocol: Kill freezes a node at
// the current floor. A dead node no longer advances, its pending events
// never fire, and messages addressed to it are dropped at commitment time
// (counted in MsgsDropped). Because kills are delivered as ordinary messages
// they land on an epoch boundary at the same virtual instant in serial and
// parallel drives, so a machine-failure campaign is as reproducible as a
// healthy run.
package sim

import (
	"fmt"
	"slices"

	"enoki/internal/ktime"
)

// FleetNode is one member simulation of a Fleet: it can report its clock and
// earliest pending work, and advance deterministically to a bound (moving
// its clock to exactly the bound even when idle, like Engine.RunUntil).
// Engine, Sharded, and kernel.ShardedKernel all satisfy it.
type FleetNode interface {
	Now() ktime.Time
	RunUntil(t ktime.Time)
	NextEventTime() (ktime.Time, bool)
}

// Fleet runs N FleetNodes under the epoch-merge protocol.
type Fleet struct {
	nodes     []FleetNode
	sinks     []MsgSink // nodes[i] as a MsgSink, nil when it is none
	dead      []bool
	lookahead ktime.Duration
	parallel  bool
	now       ktime.Time // global floor: every live node clock sits here between epochs

	mailroom        // one outbox per source, owned by the source's node during an epoch
	floorMsgs int   // pending non-handoff messages (each chops an epoch window)
	srcNode   []int // source id → owning node

	// Worker goroutines for the parallel drive, started lazily.
	started bool
	cmds    []chan ktime.Time
	ack     chan struct{}

	epochs    uint64
	delivered uint64
	dropped   uint64
}

// NewFleet builds a fleet executor with the given lookahead: the minimum
// virtual-time latency of every cross-node message — physically the network
// latency — and therefore the epoch length.
func NewFleet(lookahead ktime.Duration) *Fleet {
	if lookahead <= 0 {
		panic("sim: NewFleet needs a positive lookahead")
	}
	return &Fleet{lookahead: lookahead}
}

// AddNode registers a member simulation and returns its node index. Nodes
// must be added before the first run.
func (f *Fleet) AddNode(n FleetNode) int {
	if f.now != 0 || f.epochs != 0 {
		panic("sim: Fleet.AddNode after the fleet started running")
	}
	f.nodes = append(f.nodes, n)
	sink, _ := n.(MsgSink)
	f.sinks = append(f.sinks, sink)
	f.dead = append(f.dead, false)
	return len(f.nodes) - 1
}

// AddSource allocates a send context owned by node. Sends from one source
// must be serialized by the caller (use one source per independent execution
// context — e.g. one per internal shard of a machine); distinct sources are
// independent and may send concurrently.
func (f *Fleet) AddSource(node int) int {
	f.srcNode = append(f.srcNode, node)
	return f.addSource()
}

// NumNodes returns the member count.
func (f *Fleet) NumNodes() int { return len(f.nodes) }

// Node returns member i.
func (f *Fleet) Node(i int) FleetNode { return f.nodes[i] }

// Lookahead returns the epoch length / minimum cross-node latency.
func (f *Fleet) Lookahead() ktime.Duration { return f.lookahead }

// Now returns the global virtual-time floor.
func (f *Fleet) Now() ktime.Time { return f.now }

// Epochs returns how many merge rounds have run.
func (f *Fleet) Epochs() uint64 { return f.epochs }

// MsgsSent returns how many cross-node messages were submitted. Read it
// between runs.
func (f *Fleet) MsgsSent() uint64 { return f.sent() }

// MsgsDelivered returns how many cross-node messages were committed.
func (f *Fleet) MsgsDelivered() uint64 { return f.delivered }

// MsgsDropped returns how many messages were dropped because their
// destination node was dead at commitment time.
func (f *Fleet) MsgsDropped() uint64 { return f.dropped }

// Alive reports whether node i has not been killed.
func (f *Fleet) Alive(i int) bool { return !f.dead[i] }

// Kill freezes node i at the current floor: it stops advancing, its pending
// events never fire, and undelivered messages addressed to it are dropped.
// Call it from a commitment closure (the deterministic way to fail a machine
// at a virtual instant — send a message to the victim whose closure calls
// Kill) or between runs. Killing a dead node is a no-op.
func (f *Fleet) Kill(i int) { f.dead[i] = true }

// SetParallel selects the drive mode: true fans each epoch out to one worker
// goroutine per node, false runs nodes in index order on the caller's
// goroutine. Both produce bit-identical simulations.
func (f *Fleet) SetParallel(on bool) { f.parallel = on }

// Send submits fn for commitment toward node `to` at absolute virtual time
// `at`. It must be called from source src's execution context (or between
// runs), and `at` must be at least the source node's now plus the lookahead.
// The closure runs on the coordinator at the first productive point at or
// after `at`, with every node quiescent at the global floor — so it may
// observe fleet and node state as of the delivery instant (Kill rides a
// plain Send for exactly this reason). Each distinct Send instant ends an
// epoch window; high-rate traffic whose closures are pure handoffs should
// use SendHandoff instead, which commits early and keeps the windows wide.
func (f *Fleet) Send(src, to int, at ktime.Time, fn func()) {
	f.submit(src, smsg{mkey: mkey{at: at, to: int32(to)}, fn: fn})
}

// SendHandoff is Send for pure-handoff commitments: fn must confine itself
// to scheduling work on the destination node's executor at `at`
// (Sharded.Inject, Engine.PostAt) without reading any simulation state at
// commitment time. In exchange, the fleet may commit it up to a whole epoch
// window early — the destination executor runs the payload at `at` either
// way, but the epoch loop no longer chops a window (and pays a full fleet
// scan) per message instant. This is the hot path for cluster-scale
// traffic; anything whose closure observes the floor stays on Send.
func (f *Fleet) SendHandoff(src, to int, at ktime.Time, fn func()) {
	f.submit(src, smsg{mkey: mkey{at: at, to: int32(to)}, fn: fn, msg: Msg{handoff: true}})
}

// SendMsg is SendHandoff without the closure: m is copied to node `to`,
// which must be a MsgSink, and committed by handing it to that sink. This is
// the lane for traffic with a fixed vocabulary and a high rate — a cluster's
// job starts, stops and lifecycle reports — where a closure per message is
// the dominant allocation; closures remain for everything that must observe
// the floor (Send) or is too rare and irregular to deserve a kind.
func (f *Fleet) SendMsg(src, to int, at ktime.Time, m Msg) {
	if f.sinks[to] == nil {
		panic(fmt.Sprintf("sim: value message to node %d, which is not a MsgSink", to))
	}
	m.handoff = true
	f.submit(src, smsg{mkey: mkey{at: at, to: int32(to)}, msg: m})
}

// Reserve tells the fleet that source src is about to send n messages, so
// its outbox grows once, to fit, instead of by doubling through the burst.
// Purely a sizing hint: sending more or fewer is fine.
func (f *Fleet) Reserve(src, n int) { f.out[src] = slices.Grow(f.out[src], n) }

func (f *Fleet) submit(src int, m smsg) {
	nd := f.srcNode[src]
	if min := f.nodes[nd].Now().Add(f.lookahead); m.at < min {
		panic(fmt.Sprintf("sim: fleet send at %v under lookahead floor %v (source %d on node %d → %d)",
			m.at, min, src, nd, m.to))
	}
	f.send(src, m)
}

// deliver commits every pending message due at or before upTo, in merge
// order, on the coordinator goroutine. Messages to dead nodes are dropped;
// a commitment may itself Kill a node, affecting later messages in the same
// batch (the order is fixed, so this too is deterministic).
func (f *Fleet) deliver(upTo ktime.Time) {
	n := f.due(upTo)
	for j := 0; j < n; j++ {
		m := &f.pending[j]
		if !m.msg.handoff {
			f.floorMsgs--
		}
		if f.dead[m.to] {
			f.dropped++
			continue
		}
		f.delivered++
		if m.fn != nil {
			m.fn()
		} else {
			f.sinks[m.to].AcceptMsg(m.at, &m.msg)
		}
	}
	f.drop(n)
}

// collect merges every outbox into the pending set, counting the
// floor-observing messages on the way in.
func (f *Fleet) collect() { f.floorMsgs += f.mailroom.collect() }

// nextFloorMsg returns the due time of the earliest pending non-handoff
// message, or maxTime when none exists. On the cluster hot path nearly all
// traffic is handoffs, so the scan is guarded by the count.
func (f *Fleet) nextFloorMsg() ktime.Time {
	if f.floorMsgs == 0 {
		return maxTime
	}
	for i := range f.pending {
		if !f.pending[i].msg.handoff {
			return f.pending[i].at
		}
	}
	return maxTime
}

// minNextEvent returns the earliest pending work across live nodes. Dead
// nodes are excluded: their events are frozen and must not hold the loop
// open.
func (f *Fleet) minNextEvent() (ktime.Time, bool) {
	best, ok := maxTime, false
	for i, n := range f.nodes {
		if f.dead[i] {
			continue
		}
		if t, has := n.NextEventTime(); has && t < best {
			best, ok = t, true
		}
	}
	return best, ok
}

// runEpoch advances every live node to end, in parallel or serially.
func (f *Fleet) runEpoch(end ktime.Time) {
	f.epochs++
	if !f.parallel {
		for i, n := range f.nodes {
			if !f.dead[i] {
				n.RunUntil(end)
			}
		}
		return
	}
	if !f.started {
		f.cmds = make([]chan ktime.Time, len(f.nodes))
		f.ack = make(chan struct{}, len(f.nodes))
		for i := range f.nodes {
			f.cmds[i] = make(chan ktime.Time)
			i := i
			go func() {
				for end := range f.cmds[i] {
					f.nodes[i].RunUntil(end)
					f.ack <- struct{}{}
				}
			}()
		}
		f.started = true
	}
	sent := 0
	for i := range f.cmds {
		if !f.dead[i] {
			f.cmds[i] <- end
			sent++
		}
	}
	for ; sent > 0; sent-- {
		<-f.ack
	}
}

// run is the epoch loop, structurally identical to Sharded.run: deliver due
// messages, pick the next productive window, run it, merge the outboxes.
func (f *Fleet) run(t ktime.Time, advance bool) {
	f.collect()
	for {
		if len(f.pending) > 0 && f.pending[0].at <= f.now {
			f.deliver(f.now)
			continue
		}
		nextMsg := maxTime
		if len(f.pending) > 0 {
			nextMsg = f.pending[0].at
		}
		nextEv, hasEv := f.minNextEvent()
		next := nextMsg
		if hasEv && nextEv < next {
			next = nextEv
		}
		if next > t || next == maxTime {
			break
		}
		start := f.now
		if next > start {
			start = next
		}
		if nextMsg <= start {
			f.deliver(start)
			continue
		}
		end := start.Add(f.lookahead)
		if end > t {
			end = t
		}
		// Only floor-observing messages chop the window: their closures may
		// read state as of their instant, so they must run with the fleet at
		// exactly that point. Handoff messages due inside the window are
		// committed before the epoch launches — each one hands its work to
		// the destination executor stamped with its own due time, so the
		// outcome is identical to committing at the exact floor, without an
		// epoch boundary (and a full fleet scan) per message time.
		if nf := f.nextFloorMsg(); nf < end {
			end = nf
		}
		if len(f.pending) > 0 && f.pending[0].at < end {
			f.deliver(end - 1)
		}
		f.runEpoch(end)
		f.collect()
		f.now = end
	}
	if advance && f.now < t {
		f.runEpoch(t)
		f.collect()
		f.now = t
	}
}

// RunUntil executes the fleet up to and including virtual time t; every live
// node's clock finishes at exactly t.
func (f *Fleet) RunUntil(t ktime.Time) { f.run(t, true) }

// RunUntilIdle executes until no live node has a pending event and no
// message is in flight.
func (f *Fleet) RunUntilIdle() { f.run(maxTime, false) }

// Close stops the worker goroutines of the parallel drive. The executor
// remains usable in serial mode afterwards; Close is idempotent.
func (f *Fleet) Close() {
	if !f.started {
		return
	}
	for i := range f.cmds {
		close(f.cmds[i])
	}
	f.started = false
	f.cmds = nil
}
