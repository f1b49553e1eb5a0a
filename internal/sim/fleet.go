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
// uses: every send names its sending node, whose execution context owns that
// node's outbox during an epoch, so sends are race-free under the fleet's
// parallel drive (a sharded node runs its shards one at a time). Ties at one
// instant break by destination node, then sending node, then per-node send
// sequence; every sequence counter is monotonic for the life of the executor
// (never reset between epochs or runs), which is what makes the order total
// and the serial and parallel fleet drives byte-identical.
//
// The parallel drive forks and joins inside every epoch (runEpoch), so the
// executor owns no goroutine between epochs and needs no Close; its counters,
// barrier and worker body live in the Fleet, so a fork allocates nothing.
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
//
// A fleet with a hub runs quiet while the hub promises silence (SetHub): the
// same simulation, without visiting every machine, its state evicted by all
// the others, every epoch.
package sim

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

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

	mailroom      // one outbox per node, owned by the node during an epoch
	floorMsgs int // pending non-handoff messages (each chops an epoch window)

	// Quiet runs (SetHub): while now < horizon, leaves with an ahead[i].run
	// sit epochs out, their events fired to horizon (lockstep's to firedTo)
	// and their sends held[i] until the replay reaches them.
	hub              int                                  // -1 without one
	quiet            interface{ QuietUntil() ktime.Time } // nil when no leaf can run ahead
	ahead            []ahead
	horizon, firedTo ktime.Time
	held, ready      [][]smsg
	heldNext         ktime.Time
	// each's visits (built once: no closure per call) run nodes to `to`;
	// logs[w] is worker w's log buffer.
	to                 ktime.Time
	advanceFn, aheadFn func(w, i int)
	logs               [][]byte
	// each's fork-join, kept here so an epoch allocates nothing: the visit,
	// node and worker-id counters, the barrier and the worker body.
	fn        func(w, i int)
	next, wid atomic.Int64
	join      sync.WaitGroup
	workerFn  func()

	epochs    uint64
	delivered uint64
	dropped   uint64
}

// ahead is one leaf's runner (nil when it cannot run ahead), its log, read
// up to at, and its first event past the run.
type ahead struct {
	run       aheadRunner
	log       []byte
	at, after ktime.Time
}

// aheadRunner is a Sharded or kernel.ShardedKernel; one shard runs ahead.
type aheadRunner interface {
	NumShards() int
	RunEvents(h ktime.Time, log []byte) []byte
}

// next returns the leaf's first event after fired.
func (a *ahead) next(fired ktime.Time) ktime.Time {
	for a.at <= fired && len(a.log) > 0 {
		d, n := binary.Uvarint(a.log)
		a.log, a.at = a.log[n:], a.at+ktime.Time(d)
	}
	if a.at > fired {
		return a.at
	}
	return a.after
}

// NewFleet builds a fleet executor with the given lookahead: the minimum
// virtual-time latency of every cross-node message — physically the network
// latency — and therefore the epoch length.
func NewFleet(lookahead ktime.Duration) *Fleet {
	if lookahead <= 0 {
		panic("sim: NewFleet needs a positive lookahead")
	}
	f := &Fleet{lookahead: lookahead, hub: -1, heldNext: maxTime}
	f.advanceFn, f.aheadFn, f.workerFn = f.advance, f.runAhead, f.worker
	return f
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
	f.addSource() // node i sends from outbox i
	return len(f.nodes) - 1
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

// SetParallel selects the drive mode: true runs each epoch's nodes on
// min(GOMAXPROCS, nodes) goroutines, false runs them in index order on the
// caller's goroutine. Both produce bit-identical simulations.
func (f *Fleet) SetParallel(on bool) { f.parallel = on }

// SetHub makes node the hub of a star, once every node is added:
// a send between two other nodes panics. When the hub's QuietUntil() promises
// silence up to an instant, whatever it receives, and no pending message
// reaches a leaf for over an epoch, every one-shard leaf runs ahead in one
// visit to the last instant none could, and the loop replays the lockstep
// epochs from the leaves' logs — every window, commit, Epochs and clock as in
// lockstep. With no such leaf the hub is never asked. A hub message to a
// leaf, or a floor message, due by that horizon panics at its send.
func (f *Fleet) SetHub(node int) {
	f.hub = node
	f.ahead, f.held, f.ready = make([]ahead, len(f.nodes)), make([][]smsg, len(f.out)), make([][]smsg, len(f.out))
	for i, n := range f.nodes {
		if r, ok := n.(aheadRunner); ok && i != node && r.NumShards() == 1 {
			f.ahead[i].run = r
			f.quiet, _ = f.nodes[node].(interface{ QuietUntil() ktime.Time })
		}
	}
}

// Send submits fn from node `from` for commitment toward node `to` at
// absolute virtual time `at`. It must be called from the sending node's
// execution context (or between runs), and `at` must be at least that node's
// now plus the lookahead.
// The closure runs on the coordinator at the first productive point at or
// after `at`, with every node quiescent at the global floor — so it may
// observe fleet and node state as of the delivery instant (Kill rides a
// plain Send for exactly this reason). Each distinct Send instant ends an
// epoch window; high-rate traffic whose closures are pure handoffs should
// use SendHandoff instead, which commits early and keeps the windows wide.
func (f *Fleet) Send(from, to int, at ktime.Time, fn func()) {
	f.submit(from, smsg{mkey: mkey{at: at, to: int32(to)}, fn: fn})
}

// SendHandoff is Send for pure-handoff commitments: fn must confine itself
// to scheduling work on the destination node's executor at `at`
// (Sharded.Inject, Engine.PostAt) without reading any simulation state at
// commitment time. In exchange, the fleet may commit it up to a whole epoch
// window early — the destination executor runs the payload at `at` either
// way, but the epoch loop no longer chops a window (and pays a full fleet
// scan) per message instant. This is the hot path for cluster-scale
// traffic; anything whose closure observes the floor stays on Send.
func (f *Fleet) SendHandoff(from, to int, at ktime.Time, fn func()) {
	f.submit(from, smsg{mkey: mkey{at: at, to: int32(to)}, fn: fn, msg: Msg{handoff: true}})
}

// SendMsg is SendHandoff without the closure: m is copied to node `to`,
// which must be a MsgSink, and committed by handing it to that sink. This is
// the lane for traffic with a fixed vocabulary and a high rate — a cluster's
// job starts, stops and lifecycle reports — where a closure per message is
// the dominant allocation; closures remain for everything that must observe
// the floor (Send) or is too rare and irregular to deserve a kind.
func (f *Fleet) SendMsg(from, to int, at ktime.Time, m Msg) {
	if f.sinks[to] == nil {
		panic(fmt.Sprintf("sim: value message to node %d, which is not a MsgSink", to))
	}
	m.handoff = true
	f.submit(from, smsg{mkey: mkey{at: at, to: int32(to)}, msg: m})
}

// Reserve tells the fleet that node `from` is about to send n messages, so
// its outbox grows once, to fit, instead of by doubling through the burst.
// Purely a sizing hint: sending more or fewer is fine.
func (f *Fleet) Reserve(from, n int) { f.out[from] = slices.Grow(f.out[from], n) }

func (f *Fleet) submit(from int, m smsg) {
	if min := f.nodes[from].Now().Add(f.lookahead); m.at < min {
		panic(fmt.Sprintf("sim: fleet send at %v under lookahead floor %v (node %d → %d)",
			m.at, min, from, m.to))
	}
	if leaf := int(m.to) != f.hub; f.hub >= 0 && (leaf && from != f.hub || (leaf || !m.msg.handoff) && m.at <= f.horizon) {
		panic(fmt.Sprintf("sim: fleet send from node %d to node %d at %v bypasses hub %d or breaks its QuietUntil promise (horizon %v)",
			from, m.to, m.at, f.hub, f.horizon))
	}
	f.send(from, m)
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

// release merges the held messages due by upTo and notes the next one left.
func (f *Fleet) release(upTo ktime.Time) {
	f.heldNext = maxTime
	for i, q := range f.held {
		k := 0
		for k < len(q) && q[k].at <= upTo {
			k++
		}
		if f.ready[i], f.held[i] = q[:k], q[k:]; k < len(q) {
			f.heldNext = min(f.heldNext, q[k].at)
		}
	}
	f.floorMsgs += f.merge(f.ready)
}

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
// open. A leaf that ran ahead answers from its log.
func (f *Fleet) minNextEvent() (ktime.Time, bool) {
	best, ok := maxTime, false
	quiet := f.now < f.horizon
	for i, n := range f.nodes {
		if f.dead[i] {
			continue
		}
		if quiet && f.ahead[i].run != nil {
			if t := f.ahead[i].next(f.firedTo); t < best {
				best, ok = t, true
			}
		} else if t, has := n.NextEventTime(); has && t < best {
			best, ok = t, true
		}
	}
	return best, ok
}

// each calls fn(w, i) for every live node i on worker w, as a fork-join of
// workers (the caller worker 0) claiming node indices from one counter; the
// WaitGroup is the barrier. Serial, or at one worker, the caller alone claims
// every node, in index order.
func (f *Fleet) each(fn func(w, i int)) {
	workers := 1
	if f.parallel {
		workers = min(runtime.GOMAXPROCS(0), len(f.nodes))
	}
	f.fn = fn
	f.next.Store(0)
	f.wid.Store(0)
	f.join.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go f.workerFn()
	}
	f.work(0)
	f.join.Wait()
}

// worker is a forked worker: it takes its id, then claims nodes.
func (f *Fleet) worker() {
	f.work(int(f.wid.Add(1)))
	f.join.Done()
}

func (f *Fleet) work(w int) {
	for i := int(f.next.Add(1) - 1); i < len(f.nodes); i = int(f.next.Add(1) - 1) {
		if !f.dead[i] {
			f.fn(w, i)
		}
	}
}

// runEpoch advances the live nodes to end — but the leaves still ahead of it.
// The epoch that reaches the horizon runs everyone: lockstep again.
func (f *Fleet) runEpoch(end ktime.Time) {
	f.epochs++
	if end < f.horizon {
		f.firedTo = end
	} else if f.horizon > 0 {
		f.horizon = 0
		f.release(maxTime) // the leaves send again: nothing may stay held
	}
	f.to = end
	f.each(f.advanceFn)
}

func (f *Fleet) advance(_, i int) {
	if f.to >= f.horizon || f.ahead[i].run == nil {
		f.nodes[i].RunUntil(f.to)
	}
}

// goQuiet starts a quiet run whose horizon is the last instant before a
// message could reach a leaf — one the hub sends at its promise, a pending
// one to a leaf, or one that commits at the floor, where it must find every
// leaf — capped at the run's bound t.
func (f *Fleet) goQuiet(t ktime.Time) {
	p := f.quiet.QuietUntil()
	if p <= f.now {
		return
	}
	reach := min(p, maxTime-ktime.Time(f.lookahead)).Add(f.lookahead)
	for i := 0; i < len(f.pending) && f.pending[i].at < reach; i++ {
		if m := &f.pending[i]; int(m.to) != f.hub || !m.msg.handoff {
			reach = m.at
		}
	}
	h := min(t, reach-1)
	if h <= f.now.Add(f.lookahead) {
		return
	}
	if len(f.logs) < runtime.GOMAXPROCS(0) {
		f.logs = make([][]byte, runtime.GOMAXPROCS(0))
	}
	for w := range f.logs {
		f.logs[w] = f.logs[w][:0]
	}
	f.horizon, f.firedTo, f.to = h, f.now-1, h
	f.each(f.aheadFn)
	for i, q := range f.out {
		if f.ahead[i].run != nil && !f.dead[i] {
			slices.SortFunc(q, func(a, b smsg) int { return a.cmp(b.mkey) })
			f.held[i], f.out[i] = q, q[:0] // the leaf sends nothing more until the horizon
		}
	}
	f.release(f.now)
}

// runAhead runs leaf i ahead; its clock is at the floor, the log's base one before.
func (f *Fleet) runAhead(w, i int) {
	a := &f.ahead[i]
	if a.run == nil {
		return
	}
	from := len(f.logs[w])
	f.logs[w] = a.run.RunEvents(f.to, f.logs[w])
	a.log, a.at, a.after = f.logs[w][from:], f.firedTo, maxTime
	if t, has := f.nodes[i].NextEventTime(); has {
		a.after = t
	}
}

// land ends a quiet run whose leaves fired nothing past the floor (the loop
// jumps the horizon, or drained) by moving them to it, as lockstep would.
func (f *Fleet) land() {
	f.horizon, f.to = 0, f.now
	f.release(maxTime)
	f.each(f.advanceFn)
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
		if f.quiet != nil && f.horizon <= f.now {
			f.goQuiet(t)
		}
		nextMsg := f.heldNext
		if len(f.pending) > 0 && f.pending[0].at < nextMsg {
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
		if f.now < f.horizon && f.horizon < start {
			f.land()
		} else if f.now < f.horizon {
			f.release(start.Add(f.lookahead)) // all this window can commit
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
	if f.now < f.horizon {
		f.land() // drained inside a quiet run
	}
}

// RunUntil executes the fleet up to and including virtual time t; every live
// node's clock finishes at exactly t.
func (f *Fleet) RunUntil(t ktime.Time) { f.run(t, true) }

// RunUntilIdle executes until no live node has a pending event and no
// message is in flight.
func (f *Fleet) RunUntilIdle() { f.run(maxTime, false) }
