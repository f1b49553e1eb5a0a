// Sharded is the intra-machine epoch executor: N independent Engines
// (shards), each owning a disjoint slice of the simulated machine, advancing
// independently between cross-shard interactions and synchronizing only at
// message boundaries via a deterministic epoch-merge protocol. Every epoch
// runs its shards in index order on the caller's goroutine: what sharding
// buys is algorithmic — per-node event queues, O(node) kernel scans — and a
// goroutine per shard cost more in hand-offs than it won, since an epoch one
// cross-node IPI long holds only a few dozen events.
//
// The protocol is conservative (no rollback). Cross-shard messages carry a
// minimum latency — the lookahead, physically the cross-domain IPI/wake
// latency — so an epoch bounded by `lookahead` of virtual time can run every
// shard to the epoch end with no shard observing another's state: any
// message generated inside the epoch is due at or after the epoch boundary.
// At each boundary the executor merges all outboxes and delivers due
// messages in a single deterministic order: lowest timestamp first, ties
// broken by destination shard index, then source shard index, then send
// sequence. Shards share no mutable state inside an epoch and the merge
// order is a pure function of the message set, so a whole Sharded is a
// deterministic FleetNode that a Fleet may run beside others concurrently.
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
	// it for free.
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
// sort (which is not stable) could order them differently from one arrival
// order to the next. TestSmsgOrderTotal pins the totality;
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

// mailroom is Sharded's message plumbing: per-shard outboxes, each owned by
// its shard's execution context during an epoch, and the pending set they
// are merged into at every epoch boundary, kept in (at, to, from, seq)
// order.
type mailroom struct {
	pending []smsg   // undelivered messages, sorted
	out     [][]smsg // per-source outboxes
	keys    []skey   // collect's scratch
	// pending[:committed] is frozen: committed messages the shards still
	// read in place. Merges order what follows and never reach into it.
	committed int
}

// collect moves the messages of every outbox into the pending set and
// restores the merge order: sort the new messages' keys, append the messages
// in key order, and fold that sorted run into the older prefix.
func (r *mailroom) collect() {
	n := 0
	for src := range r.out {
		n += len(r.out[src])
	}
	if n == 0 {
		return
	}
	keys := slices.Grow(r.keys[:0], n)
	for src := range r.out {
		for i := range r.out[src] {
			keys = append(keys, skey{r.out[src][i].mkey, int32(i)})
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
	sh        []shard
	lookahead ktime.Duration
	now       ktime.Time // global floor: every shard clock sits here between epochs

	mailroom // one outbox per shard
	// sendSeq numbers Sends, and extSeq Injects (source -1): monotonic,
	// never reset. Shards run on one goroutine, so one counter serves them
	// all and orders each one's sends as a counter per source would.
	sendSeq, extSeq uint64

	hooks BatchHooks
	onMsg func(shard int, m *Msg)

	epochs    uint64
	delivered uint64

	ahead eventLog // RunEvents' log, here so arming it allocates nothing
}

// shard is one engine of a Sharded with its share of the executor's state.
// NewSharded allocates every shard in one slab.
type shard struct {
	s *Sharded
	i int
	// Every (shard, instant) group in pending[:committed] has a drain event
	// posted and runs in the coming epoch, read in place by its shard from
	// cur on — no per-shard copy — and the whole prefix is dropped when the
	// epoch ends.
	cur int
	eng Engine
}

// Fire is the shard's delivery event (see drain).
func (sh *shard) Fire() { sh.s.drain(sh.i) }

// BatchHooks brackets every per-shard delivery drain: BeginBatch runs before
// the first message of a (shard, instant) batch, EndBatch after the last.
// The kernel points them at its IPI batch window.
type BatchHooks interface {
	BeginBatch(shard int)
	EndBatch(shard int)
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
	s := &Sharded{lookahead: lookahead, sh: make([]shard, n)}
	s.out = make([][]smsg, n)
	for i := range s.sh {
		s.sh[i].s, s.sh[i].i = s, i
		s.sh[i].eng.init()
	}
	return s
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.sh) }

// Shard returns shard i's engine. Between runs it may be used freely
// (setup, spawning); during a run only shard i's own events touch it.
func (s *Sharded) Shard(i int) *Engine { return &s.sh[i].eng }

// Lookahead returns the epoch length / minimum cross-shard latency.
func (s *Sharded) Lookahead() ktime.Duration { return s.lookahead }

// Now returns the global virtual-time floor (all shards are at or past it).
// A lone shard's clock is the floor: its engine may also be driven directly
// (through its kernel's RunFor), and the executor follows it.
func (s *Sharded) Now() ktime.Time {
	if len(s.sh) == 1 {
		return s.sh[0].eng.now
	}
	return s.now
}

// Epochs returns how many merge rounds have run.
func (s *Sharded) Epochs() uint64 { return s.epochs }

// MsgsSent returns how many cross-shard messages were submitted. Read it
// between runs.
func (s *Sharded) MsgsSent() uint64 { return s.sendSeq }

// MsgsDelivered returns how many cross-shard messages were delivered.
func (s *Sharded) MsgsDelivered() uint64 { return s.delivered }

// EventsFired sums the event counts of every shard.
func (s *Sharded) EventsFired() uint64 {
	var n uint64
	for i := range s.sh {
		n += s.sh[i].eng.Fired()
	}
	return n
}

// SetBatchHooks installs the pair bracketing every per-shard delivery drain.
func (s *Sharded) SetBatchHooks(h BatchHooks) { s.hooks = h }

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
	if min := s.sh[from].eng.Now().Add(s.lookahead); at < min {
		panic(fmt.Sprintf("sim: cross-shard send at %v under lookahead floor %v (shard %d → %d)",
			at, min, from, to))
	}
	s.sendSeq++
	s.out[from] = push(s.out[from], smsg{mkey: mkey{at, s.sendSeq, int32(to), int32(from)}, fn: fn})
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
	if now := s.Now(); m.at < now {
		panic(fmt.Sprintf("sim: Inject at %v before executor floor %v (shard %d)", m.at, now, m.to))
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
func (s *Sharded) drain(i int) {
	sh := &s.sh[i]
	now := sh.eng.Now()
	mine := func(c int) bool {
		m := &s.pending[c]
		return m.at == now && int(m.to) == i
	}
	c := sh.cur
	for c < s.committed && s.pending[c].at <= now && !mine(c) {
		c++
	}
	sh.cur = c
	if c >= s.committed || !mine(c) {
		return // already drained by an earlier event at this instant
	}
	if s.hooks != nil {
		s.hooks.BeginBatch(i)
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
	sh.cur = c
	if s.hooks != nil {
		s.hooks.EndBatch(i)
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
			sh := &s.sh[m.to]
			sh.eng.PostToAt(m.at, sh)
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
	for i := range s.sh {
		if t, has := s.sh[i].eng.NextEventTime(); has && t < best {
			best, ok = t, true
		}
	}
	return best, ok
}

// runLone is runEpoch for a one-shard executor, which run grants a window
// longer than the lookahead under either bound: with no peer whose message
// could land inside it, the window only has to stop at the first message
// the shard sends to itself — due no sooner than a lookahead after the send,
// so never in the shard's past. It returns where the window ended: at its
// bound, or, when an unbounded window sent nothing, at the last event, where
// Engine.Run leaves the clock. The events fired, their order, and the engine
// state every delivery is posted into are exactly those of lookahead-sized
// windows; a one-shard machine just stops paying an epoch turn per event.
func (s *Sharded) runLone(end ktime.Time) ktime.Time {
	s.epochs++
	e := &s.sh[0].eng
	for seen := 0; e.stepBounded(end); {
		for ; seen < len(s.out[0]); seen++ {
			end = min(end, s.out[0][seen].at)
		}
	}
	if end == maxTime {
		end = e.now
	} else if e.now < end {
		e.now = end
	}
	s.retire()
	return end
}

// runEpoch advances every shard to end, in shard order.
func (s *Sharded) runEpoch(end ktime.Time) {
	s.epochs++
	for i := range s.sh {
		s.sh[i].eng.RunUntil(end)
	}
	s.retire()
}

// retire drops the committed prefix once the epoch that ran it is over.
func (s *Sharded) retire() {
	s.drop(s.committed)
	s.committed = 0
	for i := range s.sh {
		s.sh[i].cur = 0
	}
}

// run is the epoch loop: deliver due messages, pick the next productive
// window, run it, merge the outboxes. With advance set, every shard clock
// finishes at exactly t (so back-to-back runs compose like Engine.RunUntil).
func (s *Sharded) run(t ktime.Time, advance bool) {
	s.now = s.Now()
	for i := range s.sh {
		if at := s.sh[i].eng.now; at > s.now {
			panic(fmt.Sprintf("sim: shard %d clock %v is past the executor floor %v: a shard engine was driven directly", i, at, s.now))
		}
	}
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
		if len(s.sh) == 1 {
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

// RunEvents fires every event due by h, as RunUntil(h) would, but leaves the
// clock at the last one, so a fleet can still bring it to any later floor,
// and logs their instants (eventLog). It needs exactly one shard.
func (s *Sharded) RunEvents(h ktime.Time, log []byte) []byte {
	if len(s.sh) != 1 {
		panic("sim: Sharded.RunEvents needs exactly one shard")
	}
	e, from := &s.sh[0].eng, s.Now()
	s.ahead = eventLog{buf: log, last: from - 1}
	e.log = &s.ahead
	s.run(h, false)
	e.log = nil
	e.now = max(s.ahead.last, from)
	s.now = e.now
	return s.ahead.buf
}
