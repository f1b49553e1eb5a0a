// Sharded is the parallel intra-machine executor: N independent Engines
// (shards), each owning a disjoint slice of the simulated machine, advancing
// concurrently between cross-shard interactions and synchronizing only at
// message boundaries via a deterministic epoch-merge protocol.
//
// The protocol is conservative (no rollback). Cross-shard messages carry a
// minimum latency — the lookahead, physically the cross-domain IPI/wake
// latency — so an epoch bounded by `lookahead` of virtual time can run every
// shard to the epoch end with no shard observing another's state: any
// message generated inside the epoch is due at or after the epoch boundary.
// At each boundary the coordinator merges all outboxes and delivers due
// messages in a single deterministic order: lowest timestamp first, ties
// broken by destination shard index, then source shard index, then send
// sequence. Because shards share no mutable state inside an epoch and the
// merge order is a pure function of the message set, the parallel run is
// bit-identical to driving the same shards serially — SetParallel flips
// goroutine fan-out on and off without changing a single event, which is
// what the serial-vs-parallel record-log identity tests pin.
//
// Messages destined for one shard at one instant are drained by a single
// engine event bracketed by the batch hooks, so one merge round covers a
// whole shard's deliveries (the kernel points the hooks at its IPI batch
// window: one flush per shard per epoch instead of one kick per message).
//
// A message is a closure or a value. Closures suit rare, arbitrary work
// (remote wakes, control operations); high-rate traffic with a fixed
// vocabulary travels as a Msg — a kind and a few operands, through the same
// outboxes, merge and drain events — so sending one allocates nothing.
package sim

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"enoki/internal/ktime"
)

// maxTime is the largest representable virtual instant.
const maxTime = ktime.Time(math.MaxInt64)

// Msg is the payload of a value message: the destination dispatches on Kind
// and reads the operands its protocol assigns to that kind; the executors
// look only at Shard, the second-level route (which shard of a Sharded
// destination runs it). Everything travels by value — the receiver must not
// need the sender's memory to act on it.
type Msg struct {
	Kind uint8
	// handoff belongs to the carrying smsg (see there); Kind's padding holds
	// it for free, and a message is copied through three queues.
	handoff bool
	Shard   int32
	A, B    int32
	X, Y    int64
	S       string
}

// MsgSink is the optional FleetNode side of value messages: the fleet
// commits a Msg by handing it to its destination's sink, on the coordinator,
// and the sink queues a copy on the node's own executor for execution at
// `at`. Sharded implements it.
type MsgSink interface {
	AcceptMsg(at ktime.Time, m *Msg)
}

// mkey is the (at, to, from, seq) total delivery order: seq is monotonic per
// source for the life of the executor — never wrapped, never reset between
// epochs or runs — so two distinct messages can never compare equal. A
// per-epoch or per-run seq reset would silently break the byte-identity
// guarantee: two same-instant messages from one source would tie, and the
// sort (which is not stable) could order them differently between the
// serial and parallel drives. TestSmsgOrderTotal pins the totality;
// TestShardedSeqMonotonicAcrossEpochs pins the no-reset property.
type mkey struct {
	at       ktime.Time
	seq      uint64
	to, from int32
}

func (a mkey) cmp(b mkey) int {
	switch {
	case a.at != b.at:
		return cmp.Compare(a.at, b.at)
	case a.to != b.to:
		return cmp.Compare(a.to, b.to)
	case a.from != b.from:
		return cmp.Compare(a.from, b.from)
	}
	return cmp.Compare(a.seq, b.seq)
}

// smsg is one cross-shard message: a closure, or — fn nil — the value msg.
// Both share one seq space per source, so a closure and a value sent back to
// back at one instant deliver in send order.
//
// msg.handoff marks a fleet-level commitment as a pure handoff
// (Fleet.SendHandoff, and every value message): it only schedules work on
// the destination executor at the message instant, so the fleet may commit
// it a whole epoch window early. Unset, the commitment runs at the first
// productive point at or after its instant (Fleet.Send). Shard-level
// messages never set it.
type smsg struct {
	mkey
	fn  func()
	msg Msg
}

// skey is a message's key plus its position in out[from]: collect sorts
// these 32-byte pointer-free records, not the messages.
type skey struct {
	mkey
	idx int32
}

// push appends m to q, doubling a full q. The built-in append grows a large
// slice by a quarter at a time, which over one burst — a cluster's first
// reconcile tick starts every submitted job at once — allocates five times
// the final size.
func push[T any](q []T, m T) []T {
	if len(q) == cap(q) {
		q = slices.Grow(q, max(len(q), 8))
	}
	return append(q, m)
}

// mailroom is the message plumbing Sharded and Fleet share: per-source
// outboxes, each owned by its source's execution context during an epoch,
// and the pending set they are merged into at every epoch boundary, kept in
// (at, to, from, seq) order.
type mailroom struct {
	pending []smsg   // undelivered messages, sorted
	out     [][]smsg // per-source outboxes
	sendSeq []uint64 // per-source monotonic counters — never reset (ordering audit)
	keys    []skey   // collect's scratch
	// pending[:committed] is frozen — committed messages an executor still
	// reads in place (Sharded; always 0 in a Fleet, which commits by
	// running). Merges order what follows and never reach into it.
	committed int
}

// addSource allocates an outbox and returns its id.
func (r *mailroom) addSource() int {
	r.out = append(r.out, nil)
	r.sendSeq = append(r.sendSeq, 0)
	return len(r.out) - 1
}

// send stamps m with src's next sequence number and leaves it in src's
// outbox. Only src's execution context may call it during an epoch.
func (r *mailroom) send(src int, m smsg) {
	r.sendSeq[src]++
	m.from, m.seq = int32(src), r.sendSeq[src]
	r.out[src] = push(r.out[src], m)
}

// sent returns how many messages were submitted: the per-source sequences
// are the counters, so the sum is race-free to maintain. Read it between
// runs.
func (r *mailroom) sent() uint64 {
	var n uint64
	for _, sq := range r.sendSeq {
		n += sq
	}
	return n
}

// collect merges every outbox into the pending set and restores the merge
// order: sort the new messages' keys, append the messages in key order, and
// fold that sorted run into the older prefix. It returns how many of the new
// messages are not handoffs (the fleet counts those).
func (r *mailroom) collect() (floor int) {
	n := 0
	for src := range r.out {
		n += len(r.out[src])
	}
	if n == 0 {
		return 0
	}
	keys := slices.Grow(r.keys[:0], n)
	for src := range r.out {
		for i := range r.out[src] {
			m := &r.out[src][i]
			keys = append(keys, skey{m.mkey, int32(i)})
			if !m.msg.handoff {
				floor++
			}
		}
	}
	r.keys = keys
	slices.SortFunc(keys, func(a, b skey) int { return a.cmp(b.mkey) })
	sorted := len(r.pending)
	if cap(r.pending)-sorted < n {
		r.pending = slices.Grow(r.pending, max(n, sorted))
	}
	for _, k := range keys {
		r.pending = append(r.pending, r.out[k.from][k.idx])
	}
	for src := range r.out {
		clear(r.out[src]) // drop closure and string references
		r.out[src] = r.out[src][:0]
	}
	foldSmsgs(r.pending[r.committed:], sorted-r.committed)
	return floor
}

// insert adds one message straight to the pending set (Sharded.Inject).
func (r *mailroom) insert(m smsg) {
	r.pending = push(r.pending, m)
	foldSmsgs(r.pending[r.committed:], len(r.pending)-1-r.committed)
}

// due returns how many pending messages are due at or before upTo; they are
// pending[:due], in delivery order.
func (r *mailroom) due(upTo ktime.Time) int {
	n := 0
	for n < len(r.pending) && r.pending[n].at <= upTo {
		n++
	}
	return n
}

// drop removes the first n pending messages once they are delivered.
func (r *mailroom) drop(n int) {
	if n == 0 {
		return
	}
	rest := copy(r.pending, r.pending[n:])
	clear(r.pending[rest:])
	r.pending = r.pending[:rest]
}

// foldSmsgs restores full order when m[:mid] and m[mid:] are each sorted, by
// inserting tail elements into the prefix from the back. New messages are
// due at or after now+lookahead while the prefix holds older traffic, so
// they usually belong at the end and the fold moves almost nothing — the win
// over re-sorting the whole pending set on every merge (or every Inject),
// which turned large fleets quadratic. The order is total, so the result is
// identical to a full sort.
func foldSmsgs(m []smsg, mid int) {
	for i := mid; i < len(m); i++ {
		if i == 0 || m[i].cmp(m[i-1].mkey) > 0 {
			continue
		}
		v := m[i]
		j := i - 1
		for j >= 0 && v.cmp(m[j].mkey) < 0 {
			m[j+1] = m[j]
			j--
		}
		m[j+1] = v
	}
}

// Sharded runs n Engines under the epoch-merge protocol.
type Sharded struct {
	shards    []*Engine
	lookahead ktime.Duration
	parallel  bool
	now       ktime.Time // global floor: every shard clock sits here between epochs

	mailroom        // one outbox per shard, owned by the shard during an epoch
	extSeq   uint64 // Inject sequence (source -1) — monotonic, never reset
	// Every (shard, instant) group in pending[:committed] has a drain event
	// posted and runs in the coming epoch, read in place by its shard from
	// cur[shard] on — no per-shard copy — and the whole prefix is dropped
	// when the epoch ends.
	cur     []int
	drainFn []func()

	beginHook, endHook func(shard int)
	onMsg              func(shard int, m *Msg)

	// Worker goroutines for the parallel drive, started lazily.
	started bool
	cmds    []chan ktime.Time
	ack     chan struct{}

	epochs    uint64
	delivered uint64
}

// NewSharded builds a sharded executor with n shards and the given
// lookahead: the minimum virtual-time latency of every cross-shard message,
// and therefore the epoch length. A larger lookahead means fewer merge
// rounds; it must not exceed the real latency of the interactions being
// modelled.
func NewSharded(n int, lookahead ktime.Duration) *Sharded {
	if n < 1 {
		panic("sim: NewSharded needs at least one shard")
	}
	if lookahead <= 0 {
		panic("sim: NewSharded needs a positive lookahead")
	}
	s := &Sharded{
		lookahead: lookahead,
		shards:    make([]*Engine, n),
		cur:       make([]int, n),
		drainFn:   make([]func(), n),
	}
	for i := 0; i < n; i++ {
		s.addSource()
		s.shards[i] = New()
		i := i
		s.drainFn[i] = func() { s.drain(i) }
	}
	return s
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Shard returns shard i's engine. Between runs it may be used freely
// (setup, spawning); during a parallel run it belongs to its worker
// goroutine.
func (s *Sharded) Shard(i int) *Engine { return s.shards[i] }

// Lookahead returns the epoch length / minimum cross-shard latency.
func (s *Sharded) Lookahead() ktime.Duration { return s.lookahead }

// Now returns the global virtual-time floor (all shards are at or past it).
func (s *Sharded) Now() ktime.Time { return s.now }

// Epochs returns how many merge rounds have run.
func (s *Sharded) Epochs() uint64 { return s.epochs }

// MsgsSent returns how many cross-shard messages were submitted. Read it
// between runs.
func (s *Sharded) MsgsSent() uint64 { return s.sent() }

// MsgsDelivered returns how many cross-shard messages were delivered.
func (s *Sharded) MsgsDelivered() uint64 { return s.delivered }

// EventsFired sums the event counts of every shard.
func (s *Sharded) EventsFired() uint64 {
	var n uint64
	for _, e := range s.shards {
		n += e.Fired()
	}
	return n
}

// SetParallel selects the drive mode: true fans each epoch out to one
// worker goroutine per shard, false runs shards in index order on the
// caller's goroutine. Both produce bit-identical simulations; serial is the
// reference the identity tests compare against.
func (s *Sharded) SetParallel(on bool) { s.parallel = on }

// SetBatchHooks installs the pair bracketing every per-shard delivery
// drain: begin before the first message of a (shard, instant) batch, end
// after the last. The kernel points these at its IPI batch window.
func (s *Sharded) SetBatchHooks(begin, end func(shard int)) {
	s.beginHook, s.endHook = begin, end
}

// SetMsgHandler installs the function value messages are delivered to: it
// runs in the destination shard's execution context at the message instant,
// inside the same batch bracket as closure messages, and must not retain m.
func (s *Sharded) SetMsgHandler(fn func(shard int, m *Msg)) { s.onMsg = fn }

// Send submits fn for execution on shard `to` at absolute virtual time
// `at`. It must be called from shard `from`'s execution context (or between
// runs), and `at` must be at least the sender's now plus the lookahead —
// sending earlier would let a message land in a shard's past, which is
// exactly the race the epoch protocol exists to exclude, so it panics.
func (s *Sharded) Send(from, to int, at ktime.Time, fn func()) {
	if min := s.shards[from].Now().Add(s.lookahead); at < min {
		panic(fmt.Sprintf("sim: cross-shard send at %v under lookahead floor %v (shard %d → %d)",
			at, min, from, to))
	}
	s.send(from, smsg{mkey: mkey{at: at, to: int32(to)}, fn: fn})
}

// Inject commits fn for execution on shard `to` at absolute virtual time
// `at`, from outside every shard's execution context — the fleet-level
// coordinator between machine epochs, or test setup between runs. Injected
// messages join the ordinary pending set under the (at, to, from, seq)
// order with the reserved source -1, so at one instant they deliver before
// any shard's own traffic, in injection order (extSeq is monotonic for the
// executor's life, like every other sequence counter — see the smsg audit
// note). They drain through the same drain-event/batch-hook machinery as
// cross-shard sends, so a burst of injected wakes coalesces IPIs exactly
// like a remote-wake burst.
//
// Unlike Send, Inject has no lookahead floor: the caller is the
// coordinator, every shard sits at or before `at`, and determinism comes
// from the caller itself being deterministic. Injecting into the past of
// the executor floor panics.
func (s *Sharded) Inject(to int, at ktime.Time, fn func()) {
	s.inject(smsg{mkey: mkey{at: at, to: int32(to)}, fn: fn})
}

// AcceptMsg is Inject for a value message, routed to shard m.Shard and
// delivered to the SetMsgHandler function; it makes a Sharded a MsgSink.
func (s *Sharded) AcceptMsg(at ktime.Time, m *Msg) {
	s.inject(smsg{mkey: mkey{at: at, to: m.Shard}, msg: *m})
}

func (s *Sharded) inject(m smsg) {
	if m.at < s.now {
		panic(fmt.Sprintf("sim: Inject at %v before executor floor %v (shard %d)", m.at, s.now, m.to))
	}
	s.extSeq++
	m.from, m.seq = -1, s.extSeq
	s.insert(m)
}

// NextEventTime returns the earliest pending work across the whole sharded
// simulation — shard events and undelivered cross-shard messages — which is
// what a fleet-level coordinator needs to schedule productive epochs. Call
// it between runs (it merges outboxes).
func (s *Sharded) NextEventTime() (ktime.Time, bool) {
	s.collect()
	best, ok := s.minNextEvent()
	if rest := s.unsent(); len(rest) > 0 && (!ok || rest[0].at < best) {
		best, ok = rest[0].at, true
	}
	return best, ok
}

// drain is shard i's delivery event: it runs every committed message due on
// the shard at its current instant inside one batch-hook bracket. Committed
// messages are in merge order, so everything between the shard's cursor and
// its group belongs to other shards, and the group itself is contiguous.
// During a parallel epoch several shards walk the committed prefix at once;
// each writes only its own cursor and its own messages.
func (s *Sharded) drain(i int) {
	now := s.shards[i].Now()
	mine := func(c int) bool {
		m := &s.pending[c]
		return m.at == now && int(m.to) == i
	}
	c := s.cur[i]
	for c < s.committed && s.pending[c].at <= now && !mine(c) {
		c++
	}
	s.cur[i] = c
	if c >= s.committed || !mine(c) {
		return // already drained by an earlier event at this instant
	}
	if s.beginHook != nil {
		s.beginHook(i)
	}
	for ; c < s.committed && mine(c); c++ {
		m := &s.pending[c]
		if fn := m.fn; fn != nil {
			m.fn = nil
			fn()
		} else {
			s.onMsg(i, &m.msg)
		}
	}
	s.cur[i] = c
	if s.endHook != nil {
		s.endHook(i)
	}
}

// deliver commits every pending message due at or before upTo, in merge
// order, posting one drain event per (shard, instant) group.
func (s *Sharded) deliver(upTo ktime.Time) {
	n := s.due(upTo)
	for j := s.committed; j < n; j++ {
		m := &s.pending[j]
		// A group is contiguous in merge order, so it starts wherever the
		// previous committed message has another instant or shard.
		if j == 0 || s.pending[j-1].at != m.at || s.pending[j-1].to != m.to {
			s.shards[m.to].PostAt(m.at, s.drainFn[m.to])
		}
	}
	s.delivered += uint64(n - s.committed)
	s.committed = n
}

// unsent is the part of the pending set not yet committed.
func (s *Sharded) unsent() []smsg { return s.pending[s.committed:] }

// minNextEvent returns the earliest live event time across all shards.
func (s *Sharded) minNextEvent() (ktime.Time, bool) {
	best, ok := maxTime, false
	for _, e := range s.shards {
		if t, has := e.NextEventTime(); has && t < best {
			best, ok = t, true
		}
	}
	return best, ok
}

// runLone is runEpoch for a one-shard executor given a window longer than
// the lookahead (run grants one when the bound is finite): with no peer
// whose message could land inside it, the window only has to stop at the
// first message the shard sends to itself — due no sooner than a lookahead
// after the send, so never in the shard's past. It returns where the window
// ended. The events fired, their order, and the engine state every delivery
// is posted into are exactly those of lookahead-sized windows; a fleet
// machine just stops paying an epoch turn per event.
func (s *Sharded) runLone(end ktime.Time) ktime.Time {
	s.epochs++
	e := s.shards[0]
	for seen := 0; e.stepBounded(end); {
		for ; seen < len(s.out[0]); seen++ {
			end = min(end, s.out[0][seen].at)
		}
	}
	if e.now < end {
		e.now = end
	}
	s.retire()
	return end
}

// runEpoch advances every shard to end, in parallel or serially.
func (s *Sharded) runEpoch(end ktime.Time) {
	s.epochs++
	if !s.parallel {
		for _, e := range s.shards {
			e.RunUntil(end)
		}
		s.retire()
		return
	}
	if !s.started {
		s.cmds = make([]chan ktime.Time, len(s.shards))
		s.ack = make(chan struct{}, len(s.shards))
		for i := range s.shards {
			s.cmds[i] = make(chan ktime.Time)
			i := i
			go func() {
				for end := range s.cmds[i] {
					s.shards[i].RunUntil(end)
					s.ack <- struct{}{}
				}
			}()
		}
		s.started = true
	}
	for i := range s.cmds {
		s.cmds[i] <- end
	}
	for range s.cmds {
		<-s.ack
	}
	s.retire()
}

// retire drops the committed prefix once the epoch that ran it is over.
func (s *Sharded) retire() {
	s.drop(s.committed)
	s.committed = 0
	clear(s.cur)
}

// run is the epoch loop: deliver due messages, pick the next productive
// window, run it, merge the outboxes. With advance set, every shard clock
// finishes at exactly t (so back-to-back runs compose like Engine.RunUntil).
func (s *Sharded) run(t ktime.Time, advance bool) {
	// Pick up messages submitted between runs (setup-time Sends).
	s.collect()
	for {
		nextMsg := maxTime
		if rest := s.unsent(); len(rest) > 0 {
			nextMsg = rest[0].at
		}
		if nextMsg <= s.now {
			s.deliver(s.now)
			continue
		}
		nextEv, hasEv := s.minNextEvent()
		next := nextMsg
		if hasEv && nextEv < next {
			next = nextEv
		}
		if next > t || next == maxTime {
			// Past the bound, or nothing exists at all (RunUntilIdle drained).
			break
		}
		// Jump dead time: start the epoch at the next thing that exists.
		start := s.now
		if next > start {
			start = next
		}
		if nextMsg <= start {
			// A message is due exactly at the epoch start; commit it first
			// so its drain event takes part in the epoch.
			s.deliver(start)
			continue
		}
		var end ktime.Time
		if len(s.shards) == 1 && t != maxTime {
			end = s.runLone(min(t, nextMsg))
		} else {
			end = min(t, nextMsg, start.Add(s.lookahead))
			s.runEpoch(end)
		}
		s.collect()
		s.now = end
	}
	if advance && s.now < t {
		s.runEpoch(t) // nothing is due: shards just move their clocks
		s.collect()
		s.now = t
	}
}

// RunUntil executes the simulation up to and including virtual time t; every
// shard's clock finishes at exactly t.
func (s *Sharded) RunUntil(t ktime.Time) { s.run(t, true) }

// RunUntilIdle executes until no shard has a pending event and no message is
// in flight.
func (s *Sharded) RunUntilIdle() { s.run(maxTime, false) }

// Close stops the worker goroutines of the parallel drive. The executor
// remains usable in serial mode afterwards.
func (s *Sharded) Close() {
	if !s.started {
		return
	}
	for i := range s.cmds {
		close(s.cmds[i])
	}
	s.started = false
	s.cmds = nil
}
