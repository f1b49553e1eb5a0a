// Fleet is the cluster-level generalization of the Sharded epoch-merge
// executor: where Sharded runs N engines (shards of one machine) under a
// deterministic message-merge protocol, Fleet runs N whole simulations —
// anything implementing FleetNode, in practice one sharded machine per node
// plus a control-plane engine — under the same protocol one level up. The
// lookahead is the network latency: no cross-machine message is faster, so
// an epoch of that length can run every machine to the boundary with no
// machine observing another's state.
//
// Every send names its sending node, whose execution context owns that
// node's outbox during an epoch, so sends are race-free under the fleet's
// parallel drive (a sharded node runs its shards one at a time). The outbox
// is also the node's queue of uncommitted messages, in (at, seq) order, and
// the coordinator commits straight from the queues' heads, merged in (at,
// from, seq) order: each destination sees its messages in the (at, to, from,
// seq) order Sharded merges by. Every sequence counter is monotonic for the
// life of the executor (never reset between epochs or runs), which is what
// makes the order total and the serial and parallel fleet drives
// byte-identical. No message is copied into a sorted pending set: a hub's
// burst of starts commits in its send order, the leaves' reports merge at
// their queue heads.
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

// Fleet runs N FleetNodes under the epoch-merge protocol. Each node's
// outbox is the queue its messages are committed from, so a message is
// copied once, at its send, and the coordinator's work per message is a
// step of a heap over the nonempty queues.
type Fleet struct {
	nodes     []FleetNode
	sinks     []MsgSink // nodes[i] as a MsgSink, nil when it is none
	dead      []bool
	lookahead ktime.Duration
	parallel  bool
	now       ktime.Time // global floor: every live node clock sits here between epochs

	out     []outbox     // node i's sends, owned by node i during an epoch
	heads   []boxHead    // the nonempty outboxes, a min-heap on their heads
	floorAt []ktime.Time // due times of the queued floor messages (each chops an epoch window), sorted

	// Quiet runs (SetHub): while now < horizon, leaves with an ahead[i].run
	// sit epochs out, their events fired to horizon (lockstep's to firedTo);
	// what they sent on the way waits in their outboxes like any message.
	hub              int                                  // -1 without one
	quiet            interface{ QuietUntil() ktime.Time } // nil when no leaf can run ahead
	ahead            []ahead
	horizon, firedTo ktime.Time
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

// outbox is one node's sends: q[head:sorted] are its uncommitted messages in
// (at, seq) order, q[sorted:] what it sent since the last collect.
type outbox struct {
	q            []smsg
	head, sorted int
	seq          uint64 // the node's send counter, never reset
}

// boxHead is a nonempty outbox in the commit heap: its first message's due
// time and its node, which is the merge order's (at, from).
type boxHead struct {
	at   ktime.Time
	node int
}

func (a boxHead) less(b boxHead) bool { return a.at < b.at || a.at == b.at && a.node < b.node }

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
	f := &Fleet{lookahead: lookahead, hub: -1}
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
	f.out = append(f.out, outbox{})
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
func (f *Fleet) MsgsSent() uint64 {
	var n uint64
	for i := range f.out {
		n += f.out[i].seq
	}
	return n
}

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

// SetHub makes node the hub of a star, once every node is added and before
// anything is sent: a send between two other nodes panics, so the hub's
// outbox holds every message to a leaf. When the hub's QuietUntil() promises
// silence up to an instant, whatever it receives, and no pending message
// reaches a leaf for over an epoch, every one-shard leaf runs ahead in one
// visit to the last instant none could, and the loop replays the lockstep
// epochs from the leaves' logs — every window, commit, Epochs and clock as in
// lockstep. With no such leaf the hub is never asked. A hub message to a
// leaf, or a floor message, due by that horizon panics at its send.
func (f *Fleet) SetHub(node int) {
	if f.MsgsSent() > 0 {
		panic("sim: Fleet.SetHub after a send")
	}
	f.hub = node
	f.ahead = make([]ahead, len(f.nodes))
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
func (f *Fleet) Reserve(from, n int) { f.out[from].q = slices.Grow(f.out[from].q, n) }

func (f *Fleet) submit(from int, m smsg) {
	if min := f.nodes[from].Now().Add(f.lookahead); m.at < min {
		panic(fmt.Sprintf("sim: fleet send at %v under lookahead floor %v (node %d → %d)",
			m.at, min, from, m.to))
	}
	if leaf := int(m.to) != f.hub; f.hub >= 0 && (leaf && from != f.hub || (leaf || !m.msg.handoff) && m.at <= f.horizon) {
		panic(fmt.Sprintf("sim: fleet send from node %d to node %d at %v bypasses hub %d or breaks its QuietUntil promise (horizon %v)",
			from, m.to, m.at, f.hub, f.horizon))
	}
	b := &f.out[from]
	b.seq++
	m.from, m.seq = int32(from), b.seq
	b.q = push(b.q, m)
}

// collect takes in what every node sent since the last call: it puts the new
// messages in due order behind the old, notes the floor messages' instants,
// and rebuilds the commit heap.
func (f *Fleet) collect() {
	f.heads = f.heads[:0]
	for i := range f.out {
		b := &f.out[i]
		if h := b.head; h > 0 && 2*h >= len(b.q) { // committed half the queue: move the rest down
			n := copy(b.q, b.q[h:])
			clear(b.q[n:])
			b.q, b.head, b.sorted = b.q[:n], 0, b.sorted-h
		}
		for k := b.sorted; k < len(b.q); k++ {
			if at := b.q[k].at; !b.q[k].msg.handoff {
				pos, _ := slices.BinarySearch(f.floorAt, at)
				f.floorAt = slices.Insert(f.floorAt, pos, at)
			}
			// Sends are due in send order unless a node sends with more
			// than the lookahead, or a sharded node's later shard sends
			// from an earlier instant: fold those back, behind their ties.
			for j := k; j > b.head && b.q[j].at < b.q[j-1].at; j-- {
				b.q[j], b.q[j-1] = b.q[j-1], b.q[j]
			}
		}
		b.sorted = len(b.q)
		if b.head < len(b.q) {
			f.heads = append(f.heads, boxHead{b.q[b.head].at, i})
		}
	}
	for i := len(f.heads)/2 - 1; i >= 0; i-- {
		f.siftDown(i)
	}
}

func (f *Fleet) siftDown(i int) {
	h := f.heads
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].less(h[c]) {
			c++
		}
		if !h[c].less(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// nextMsg returns the due time of the earliest queued message, or maxTime.
func (f *Fleet) nextMsg() ktime.Time {
	if len(f.heads) == 0 {
		return maxTime
	}
	return f.heads[0].at
}

// nextFloorMsg returns the due time of the earliest queued non-handoff
// message, or maxTime when none exists.
func (f *Fleet) nextFloorMsg() ktime.Time {
	if len(f.floorAt) == 0 {
		return maxTime
	}
	return f.floorAt[0]
}

// deliver commits every queued message due at or before upTo, in merge
// order, on the coordinator goroutine, taking each from the head of the
// earliest outbox. Messages to dead nodes are dropped; a commitment may
// itself Kill a node, affecting later messages in the same batch (the order
// is fixed, so this too is deterministic). What a commitment sends waits for
// the next collect.
func (f *Fleet) deliver(upTo ktime.Time) {
	for len(f.heads) > 0 && f.heads[0].at <= upTo {
		b := &f.out[f.heads[0].node]
		m := &b.q[b.head]
		if !m.msg.handoff {
			f.floorAt = slices.Delete(f.floorAt, 0, 1) // m is the earliest
		}
		if f.dead[m.to] {
			f.dropped++
		} else if f.delivered++; m.fn != nil {
			m.fn()
		} else {
			f.sinks[m.to].AcceptMsg(m.at, &m.msg)
		}
		b.q[b.head] = smsg{} // drop closure and string references (a send may have moved q)
		if b.head++; b.head < b.sorted {
			f.heads[0].at = b.q[b.head].at
		} else {
			if b.sorted == len(b.q) {
				b.q, b.head, b.sorted = b.q[:0], 0, 0
			}
			last := len(f.heads) - 1
			f.heads[0] = f.heads[last]
			f.heads = f.heads[:last]
		}
		f.siftDown(0)
	}
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
	} else {
		f.horizon = 0
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
	reach := min(min(p, maxTime-ktime.Time(f.lookahead)).Add(f.lookahead), f.nextFloorMsg())
	hb := &f.out[f.hub] // the only sender to leaves
	for k := hb.head; k < hb.sorted && hb.q[k].at < reach; k++ {
		if int(hb.q[k].to) != f.hub {
			reach = hb.q[k].at
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
	f.collect()
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
	f.each(f.advanceFn)
}

// run is the epoch loop, structurally identical to Sharded.run: deliver due
// messages, pick the next productive window, run it, merge the outboxes.
func (f *Fleet) run(t ktime.Time, advance bool) {
	f.collect()
	for {
		if f.nextMsg() <= f.now {
			f.deliver(f.now)
			continue
		}
		if f.quiet != nil && f.horizon <= f.now {
			f.goQuiet(t)
		}
		nextMsg := f.nextMsg()
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
		f.deliver(end - 1)
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
