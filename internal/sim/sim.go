// Package sim implements the discrete-event simulation engine underneath the
// simulated kernel. The engine owns a hierarchical timer queue — a near
// wheel covering the next ~2 ms of virtual time plus an overflow level for
// far-future events (wheel.go) — ordered by (virtual time, key): ties in
// time execute in the order they were armed in, which makes every run fully
// deterministic. The key carries the instant an event was armed at
// (armKey), so that the kernel's busy-poll segments can file an event as if
// armed earlier (RescheduleArmed).
//
// The engine is deliberately tiny: the kernel package layers CPUs, run
// queues, and timers on top of it. Events are plain closures, or — for
// objects that embed their own timers — a Handler. An event can be
// cancelled by its handle; cancellation is O(1) (the event is tombstoned and
// skipped when popped), which matters because the kernel cancels and re-arms
// per-CPU completion events on every preemption. Arming is O(1) too: the
// near wheel files the event straight into its time slot, and re-arming a
// queued event just files a fresh slot entry and lets the stale one be
// skipped.
//
// The hot paths are allocation-free in steady state:
//
//   - Post/PostAt schedule fire-and-forget events drawn from an internal
//     free list; because no handle escapes, the Event is recycled the moment
//     it fires.
//   - NewEvent + Reschedule give timer owners (the kernel's per-CPU tick and
//     reschedule timers) one persistent Event that is re-armed in place
//     instead of allocating a closure + Event per arm.
//   - Bind + Reschedule do the same for an Event embedded in its owner (the
//     kernel's per-task completion event lives inside the Task), and PostTo /
//     PostToAt post a fire-and-forget event at a Handler: no closure either
//     way, so an object with timers costs one allocation, not one per timer.
//
// Tombstones and stale re-arm entries do not accumulate: the engine tracks
// the live count, and when dead entries dominate the queue it compacts every
// slot and the overflow in one O(n) pass.
package sim

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"enoki/internal/ktime"
)

// Handler is the closure-free event target: Fire runs when an event bound or
// posted to it comes due. A type with several timers gives each a Handler
// view of itself (a named pointer type per timer), so events carry no tag.
type Handler interface{ Fire() }

// Event is a scheduled closure or Handler call. The zero value is invalid;
// events are created through Engine.At / Engine.After / Engine.NewEvent, or
// embedded in their owner and initialised with Engine.Bind.
type Event struct {
	at ktime.Time
	// seq is the key of the current arming (armKey); older queue entries,
	// carrying older keys, are stale.
	seq uint64
	// Exactly one of fn and h is set while the event can fire.
	fn        func()
	h         Handler
	cancelled bool
	// recycle marks a fire-and-forget event (Post/PostAt): no handle
	// escaped, so the engine returns it to the free list once it fires.
	recycle bool
	// armed means a queue entry with matching seq exists.
	armed bool
	// parentLead is how long before this arming the event that made it was
	// itself armed, saturating: the next step of the order rule (ArmedAt).
	parentLead uint32
	eng        *Engine
}

// Cancel tombstones the event. Cancelling an already-fired or
// already-cancelled event is a no-op. The event object stays valid: a later
// Engine.Reschedule re-arms it.
func (e *Event) Cancel() {
	if e == nil || e.cancelled {
		return
	}
	e.cancelled = true
	if e.armed && e.eng != nil {
		e.eng.live--
		e.eng.nextValid = false // the cancelled event may have been the minimum
		e.eng.maybeCompact()
	}
}

// Cancelled reports whether Cancel was called after the event was last
// armed.
func (e *Event) Cancelled() bool { return e != nil && e.cancelled }

// Time returns the virtual instant the event is (or was) scheduled for.
func (e *Event) Time() ktime.Time { return e.at }

// An arming's queue key packs how long before its instant the event was
// armed, saturating at armHorizon, above the engine's arming counter: the
// earlier-armed of two events due at one instant has the larger lead, so the
// smaller key, and two leads that saturate or match fall back to the counter.
// For events armed when they are armed that is the counter's order, the
// insertion order ties have always fired in.
//
// RescheduleArmed files an event as if armed at another instant, the way the
// kernel's busy-poll segments keep the place each of their polls would have
// taken had it been an event of its own. Its key has no counter: of a
// stand-in and another event armed at one instant, the one whose arming
// event was armed earlier fires first — events armed at one instant are
// armed in the order their arming events fire — and, armed at one instant
// too, the one the stand-in's handler puts first (standInFirst).
const (
	lowBits    = 48
	lowMask    = 1<<lowBits - 1
	armHorizon = 1<<(64-lowBits) - 1 // ns; about 65 µs
	realBit    = 1 << (lowBits - 1)
)

// A StandIn is the handler of an event filed by RescheduleArmed: FiresBefore
// says whether it fires before another event's handler, both armed at one
// instant by events armed at one instant; true when it cannot tell.
type StandIn interface {
	Handler
	FiresBefore(other Handler) bool
}

func armKey(at, armed ktime.Time, low uint64) uint64 {
	return (armHorizon-min(uint64(at-armed), armHorizon))<<lowBits | low
}

// Queued reports whether the event is currently armed (in the queue and not
// tombstoned).
func (e *Event) Queued() bool { return e != nil && e.armed && !e.cancelled }

// compactFloor is the minimum queue size before dead-entry compaction is
// considered; below it the garbage is too small to matter.
const compactFloor = 64

// compactSlack is the dead-entry allowance on top of 2×live before a
// compaction pass is worth its O(n): persistent timers re-armed in place
// legitimately keep one stale entry each, so steady state sits near 2×live
// and must not trigger a sweep per cancel.
const compactSlack = 128

// Engine is a deterministic discrete-event executor. It is not safe for
// concurrent use; all simulation state mutates from event closures running on
// the caller's goroutine. Sharded runs one Engine per shard and merges at
// epoch boundaries; Fleet may run whole simulations on several goroutines.
type Engine struct {
	now     ktime.Time
	seq     uint64
	live    int // queued events that are neither tombstoned nor stale
	free    []*Event
	stopped bool
	// firingSeq and firingLead are the key and parentLead of the event
	// firing now as it was armed (its handler may re-arm it), firingEv the
	// event; between events firingEv is nil and firingSeq a key armed now.
	firingSeq  uint64
	firingLead uint32
	firingEv   *Event

	fired    uint64
	recycled uint64
	log      *eventLog // Sharded.RunEvents

	// Next-event cache for NextEventTime: a fleet coordinator peeks every
	// machine every epoch, and most machines are quiescent between peeks —
	// without the cache each peek re-walks the timer wheel. The cache is
	// tightened in place by push (a new event can only lower the minimum)
	// and invalidated by anything that can raise it (fire, Cancel,
	// Reschedule of a queued event).
	nextAt    ktime.Time
	nextOK    bool
	nextValid bool

	// wq goes last: its slot array is tens of kilobytes, and everything
	// above is touched on every event.
	wq wheelQueue
}

// New returns an engine with the clock at T+0 and an empty queue.
func New() *Engine { return new(Engine).init() }

// init readies a zero Engine in place (a Sharded holds its shards' engines
// in one slab).
func (e *Engine) init() *Engine {
	e.firingSeq = armHorizon << lowBits
	return e
}

// Now returns the current virtual time.
func (e *Engine) Now() ktime.Time { return e.now }

// ArmedAt returns the instant the event firing now was armed at and the one
// the event that armed it was armed at, or Now twice between events. Of two
// events due at one instant the one armed at the earlier instant fires
// first; of two armed at one instant, the one whose arming event was armed
// earlier, so fired first, was armed first. An instant more than armHorizon
// (about 65 µs) before the event's own is reported as that bound, and a
// parent more than about 4.3 s before the arming likewise: they fire in the
// same order all the same.
func (e *Engine) ArmedAt() (armed, parent ktime.Time) {
	if e.firingEv != nil {
		armed = e.now.Add(-time.Duration(e.nowLead()))
		return armed, armed.Add(-time.Duration(e.firingLead))
	}
	return e.now, e.now
}

// Firing tells the event firing now apart from the others armed at its arm
// instant: its handler (nil for a closure), and whether it is a stand-in or
// else its arming number (Armings). ok is false between events.
func (e *Engine) Firing() (h Handler, n uint64, standIn, ok bool) {
	if e.firingEv == nil {
		return nil, 0, false, false
	}
	low := e.firingSeq & lowMask
	return e.firingEv.h, low &^ realBit, low&realBit == 0, true
}

// Armings returns the number the next arming takes.
func (e *Engine) Armings() uint64 { return e.seq }

// Fired returns how many events have executed, a useful determinism probe in
// tests.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of live (non-cancelled) queued events.
func (e *Engine) Pending() int { return e.live }

// QueueLen returns the raw queue length — live entries plus tombstones plus
// stale re-arm entries (tests and diagnostics; QueueLive is the meaningful
// count).
func (e *Engine) QueueLen() int { return e.wq.nentries }

// QueueLive returns the number of queued entries that will actually fire:
// tombstoned and stale entries are excluded. It equals Pending and exists so
// queue-size diagnostics don't mistake compaction garbage for load.
func (e *Engine) QueueLive() int { return e.live }

// Recycled returns how many fire-and-forget events have been returned to the
// free list, an allocation-behaviour probe for tests.
func (e *Engine) Recycled() uint64 { return e.recycled }

// NextEventTime returns the virtual time of the earliest live event, or
// false when the queue holds none. The sharded executor uses it to plan
// epochs; dead entries encountered on the way are discarded.
func (e *Engine) NextEventTime() (ktime.Time, bool) {
	if e.nextValid {
		return e.nextAt, e.nextOK
	}
	en, ok := e.peekLive()
	e.nextAt, e.nextOK, e.nextValid = en.at, ok, true
	if !ok {
		return 0, false
	}
	return en.at, true
}

// eventChunk is how many Events one free-list refill allocates, so a cold
// engine's first burst of posts is not one allocation per event.
const eventChunk = 32

// alloc produces an Event, reusing a recycled one when available.
func (e *Engine) alloc() *Event {
	if len(e.free) == 0 {
		chunk := make([]Event, eventChunk)
		for i := range chunk {
			chunk[i].eng = e
			e.free = append(e.free, &chunk[i])
		}
	}
	n := len(e.free)
	ev := e.free[n-1]
	e.free[n-1] = nil
	e.free = e.free[:n-1]
	return ev
}

// release returns a fire-and-forget event to the free list once it has left
// the queue. Handle-returning events are never recycled: a retained handle
// could otherwise cancel an unrelated future event.
func (e *Engine) release(ev *Event) {
	if !ev.recycle || ev.armed {
		return
	}
	ev.fn, ev.h = nil, nil
	ev.cancelled = false
	e.recycled++
	e.free = append(e.free, ev)
}

func (e *Engine) checkFuture(t ktime.Time) {
	if t < e.now {
		panic(fmt.Sprintf("sim: event scheduled in the past (%v < now %v)", t, e.now))
	}
}

// arm files a queue entry for ev at t with a fresh key: armed at instant
// armed by an event armed at parent, as the arming numbered n or as a
// stand-in. The caller accounts for live.
func (e *Engine) arm(ev *Event, t, armed, parent ktime.Time, n uint64) {
	low := uint64(0)
	if n != AsStandIn {
		low = realBit | n
	}
	e.file(ev, t, armKey(t, armed, low), uint32(min(uint64(armed.Sub(parent)), math.MaxUint32)))
}

// armNow is arm for an arming made now, the engine's next.
func (e *Engine) armNow(ev *Event, t ktime.Time) {
	e.file(ev, t, armKey(t, e.now, realBit|e.seq), e.nowLead())
}

// nowLead is how long before now the event firing now was armed: the
// parentLead of an arming made now.
func (e *Engine) nowLead() uint32 { return uint32(armHorizon - e.firingSeq>>lowBits) }

// file queues ev at t under key with parentLead lead, counting the arming.
func (e *Engine) file(ev *Event, t ktime.Time, key uint64, lead uint32) {
	if e.seq == realBit {
		panic("sim: arming counter exhausted")
	}
	ev.at, ev.seq, ev.parentLead, ev.armed = t, key, lead, true
	e.seq++
	e.wq.push(entry{at: t, seq: key, ev: ev})
}

// AsStandIn is the arming number RescheduleArmed takes for a stand-in.
const AsStandIn = ^uint64(0)

// push arms ev at t as a new live event, armed now.
func (e *Engine) push(ev *Event, t ktime.Time) {
	e.armNow(ev, t)
	e.added(t)
}

// added counts a new live event queued at t.
func (e *Engine) added(t ktime.Time) {
	e.live++
	// A new live event can only lower the cached minimum — tighten in place.
	if e.nextValid && (!e.nextOK || t < e.nextAt) {
		e.nextAt, e.nextOK = t, true
	}
}

// At schedules fn at absolute virtual time t and returns a cancellable
// handle. Scheduling in the past panics: it always indicates a kernel
// accounting bug, and silently clamping would hide it.
func (e *Engine) At(t ktime.Time, fn func()) *Event {
	e.checkFuture(t)
	ev := e.alloc()
	ev.fn = fn
	ev.recycle = false
	e.push(ev, t)
	return ev
}

// After schedules fn d from now. Negative d panics via At.
func (e *Engine) After(d ktime.Duration, fn func()) *Event {
	return e.At(e.now.Add(d), fn)
}

// PostAt schedules fn at absolute time t as a fire-and-forget event: no
// handle is returned, so the Event object is drawn from and returned to the
// engine's free list — the steady-state cost is zero allocations. Use it for
// one-shot work that is never cancelled (kicks, self-wakes).
func (e *Engine) PostAt(t ktime.Time, fn func()) { e.post(t, fn, nil) }

func (e *Engine) post(t ktime.Time, fn func(), h Handler) {
	e.checkFuture(t)
	ev := e.alloc()
	ev.fn, ev.h = fn, h
	ev.recycle = true
	e.push(ev, t)
}

// Post schedules fn d from now, fire-and-forget (see PostAt).
func (e *Engine) Post(d ktime.Duration, fn func()) {
	e.PostAt(e.now.Add(d), fn)
}

// PostTo is Post at a Handler: h.Fire runs d from now, no closure built.
func (e *Engine) PostTo(d ktime.Duration, h Handler) { e.post(e.now.Add(d), nil, h) }

// PostToAt is PostTo at absolute time t.
func (e *Engine) PostToAt(t ktime.Time, h Handler) { e.post(t, nil, h) }

// NewEvent returns an unarmed event bound to fn, intended to be armed (and
// re-armed, and cancelled) many times via Reschedule: one Event object per
// recurring timer instead of one per arm. The handle owner must not share it.
func (e *Engine) NewEvent(fn func()) *Event {
	if fn == nil {
		panic("sim: NewEvent with nil function")
	}
	return &Event{eng: e, fn: fn}
}

// Bind initialises ev — an Event embedded in its owner rather than allocated
// by NewEvent — as an unarmed persistent event firing h, armed through
// Reschedule like a NewEvent handle. Bind it once, before first use.
func (e *Engine) Bind(ev *Event, h Handler) {
	if h == nil {
		panic("sim: Bind with nil handler")
	}
	*ev = Event{eng: e, h: h}
}

// Reschedule (re-)arms ev at absolute time t, keeping its function. It
// accepts an event in any state: queued (the old entry goes stale), tombstoned
// (revived), or fired/unarmed (pushed again) — including the event currently
// executing, which is how recurring timers re-arm themselves. A fresh
// sequence number is assigned, so ordering is exactly as if a new event had
// been scheduled.
func (e *Engine) Reschedule(ev *Event, t ktime.Time) {
	if e.rearm(ev, t) {
		e.armNow(ev, t)
		e.maybeCompact()
		return
	}
	e.push(ev, t)
}

// RescheduleArmed is Reschedule as if ev had been armed at instant armed, by
// an event armed at parent — armed may lie before or after now but not after
// t: as the arming Armings numbered n, or, for n = AsStandIn, as a stand-in,
// whose handler must be a StandIn.
func (e *Engine) RescheduleArmed(ev *Event, t, armed, parent ktime.Time, n uint64) {
	_, ok := ev.h.(StandIn)
	if armed > t || parent > armed || (n == AsStandIn && !ok) || (n != AsStandIn && n > e.seq) {
		panic(fmt.Sprintf("sim: arming %d for %v at %v by an event armed at %v", n, t, armed, parent))
	}
	queued := e.rearm(ev, t)
	e.arm(ev, t, armed, parent, n)
	if queued {
		e.maybeCompact()
		return
	}
	e.added(t)
}

// rearm readies ev for a new arming at t, reporting whether it is queued:
// the entry carrying the old key then goes stale and is skipped on pop, and
// dead-entry growth is bounded by compaction. Moving a queued event may
// raise the minimum, so the cache cannot be tightened in place.
func (e *Engine) rearm(ev *Event, t ktime.Time) (queued bool) {
	if ev == nil || (ev.fn == nil && ev.h == nil) {
		panic("sim: Reschedule of an event without a function")
	}
	if ev.recycle {
		panic("sim: Reschedule of a fire-and-forget event")
	}
	e.checkFuture(t)
	if ev.eng == nil {
		ev.eng = e
	}
	if ev.armed {
		if ev.cancelled {
			ev.cancelled = false
			e.live++
		}
		e.nextValid = false
		return true
	}
	ev.cancelled = false
	return false
}

// RescheduleAfter re-arms ev d from now (see Reschedule).
func (e *Engine) RescheduleAfter(ev *Event, d ktime.Duration) {
	e.Reschedule(ev, e.now.Add(d))
}

// entryDead reports whether a queue entry will never fire: it is stale (the
// event was re-armed since, or has fired) or its event is tombstoned. A
// dropped tombstone entry un-arms its event so a later Reschedule pushes
// cleanly. A stand-in's key carries no arming counter, so an entry is only
// current when its instant matches too, and of two identical ones left by
// two armings only the first fires.
func entryDead(en entry) bool {
	if !current(en) {
		return true
	}
	if en.ev.cancelled {
		en.ev.armed = false
		return true
	}
	return false
}

// current reports whether en is the queue entry of its event's arming: a
// real arming's key is unique, a stand-in's only with its instant.
func current(en entry) bool {
	return en.ev.seq == en.seq && (en.seq&realBit != 0 || en.ev.at == en.at && en.ev.armed)
}

// maybeCompact rebuilds the queue without dead entries once they outgrow the
// live set by more than the steady-state slack and the queue is big enough
// for the O(n) pass to pay off.
func (e *Engine) maybeCompact() {
	if e.wq.nentries < compactFloor || 2*e.live+compactSlack > e.wq.nentries {
		return
	}
	e.wq.compact(func(en entry) bool { return !entryDead(en) })
}

// peekLive returns the earliest live entry without consuming it, discarding
// dead entries along the way. On success the entry heads the wheel's front
// slot, so the caller consumes it with wq.popFront: the minimum is located
// once, not once to look and once to take.
func (e *Engine) peekLive() (entry, bool) {
	for {
		sl := e.wq.front()
		if sl == nil {
			return entry{}, false
		}
		en := sl.peek()
		if !entryDead(en) {
			return en, true
		}
		e.wq.popFront() // discard the dead minimum
		e.release(en.ev)
	}
}

// fire executes the event behind a live entry just extracted from the queue.
func (e *Engine) fire(en entry) {
	ev := en.ev
	ev.armed = false
	e.live--
	e.nextValid = false // the minimum is being consumed
	e.now = en.at
	e.fired++
	if e.log != nil {
		e.log.add(en.at)
	}
	e.firingSeq, e.firingLead, e.firingEv = en.seq, ev.parentLead, ev
	if ev.fn != nil {
		ev.fn()
	} else {
		ev.h.Fire()
	}
	e.firingEv, e.firingSeq = nil, armHorizon<<lowBits
	// The closure may have re-armed ev (recurring timers); only a
	// still-unqueued fire-and-forget event is recyclable.
	e.release(ev)
}

// stepBounded fires the earliest live event if its time is at or before
// bound, reporting whether an event ran.
func (e *Engine) stepBounded(bound ktime.Time) bool {
	if e.nextValid && (!e.nextOK || e.nextAt > bound) {
		return false // a coordinator's peek already found nothing due
	}
	en, ok := e.peekLive()
	if !ok || en.at > bound {
		e.nextAt, e.nextOK, e.nextValid = en.at, ok, true // the coordinator asks next
		return false
	}
	e.wq.popFront()
	if en.seq&realBit == 0 {
		en = e.standInTurn(en)
	}
	e.fire(en)
	return true
}

// standInTurn returns, for the stand-in en just taken from the queue, the
// event that fires first of those armed at its arm instant. Real events
// armed at one instant are queued in their order already, so only the first
// counts. A pick other than en leaves the front slot, which still holds the
// rest of the instant in order, and en goes back at its head.
func (e *Engine) standInTurn(en entry) entry {
	sl := &e.wq.slots[e.wq.base%numSlots]
	best, at := en, -1
	for j := sl.idx; j < len(sl.ents); j++ {
		nx := sl.ents[j]
		if nx.at != en.at || nx.seq>>lowBits != en.seq>>lowBits {
			break
		}
		if !current(nx) || nx.ev.cancelled {
			continue
		}
		if !standInFirst(best.ev, nx.ev) {
			best, at = nx, j
		}
		if nx.seq&realBit != 0 {
			break
		}
	}
	if at >= 0 {
		copy(sl.ents[sl.idx+1:at+1], sl.ents[sl.idx:at])
		sl.ents[sl.idx] = en
	}
	return best
}

// standInFirst reports whether stand-in s fires before x, armed at the same
// instant: the one whose arming event was armed earlier, and when those were
// armed at one instant too, the one s's handler puts first.
func standInFirst(s, x *Event) bool {
	if s.parentLead != x.parentLead {
		return s.parentLead > x.parentLead
	}
	if _, ok := x.h.(StandIn); !ok {
		return true
	}
	return s.h.(StandIn).FiresBefore(x.h)
}

// eventLog records each distinct instant an engine fires at as the uvarint
// distance from the one before, the first from just before the run's start.
type eventLog struct {
	buf  []byte
	last ktime.Time
}

func (l *eventLog) add(t ktime.Time) {
	if t != l.last {
		l.buf = binary.AppendUvarint(l.buf, uint64(t-l.last))
		l.last = t
	}
}

// Stop makes the currently executing Run return after the current event
// completes. Queued events remain queued and a later Run resumes them.
func (e *Engine) Stop() { e.stopped = true }

// Step executes the single earliest pending event (skipping tombstones) and
// reports whether an event ran.
func (e *Engine) Step() bool {
	return e.stepBounded(ktime.Time(int64(^uint64(0) >> 1)))
}

// RunUntil executes events in order until the queue drains or the next event
// lies strictly beyond t. The clock finishes at exactly t (even if the queue
// drained earlier), so back-to-back RunUntil calls compose.
func (e *Engine) RunUntil(t ktime.Time) {
	e.stopped = false
	for !e.stopped && e.stepBounded(t) {
	}
	if e.now < t {
		e.now = t
	}
}

// Run executes events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}
