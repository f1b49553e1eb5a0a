// Package sim implements the discrete-event simulation engine underneath the
// simulated kernel. The engine owns a hierarchical timer queue — a near
// wheel covering the next ~2 ms of virtual time plus an overflow level for
// far-future events (wheel.go) — ordered by (virtual time, insertion
// sequence); ties in time execute in insertion order, which makes every run
// fully deterministic.
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
	at  ktime.Time
	seq uint64 // sequence of the current arming; older queue entries are stale
	// Exactly one of fn and h is set while the event can fire.
	fn        func()
	h         Handler
	cancelled bool
	// recycle marks a fire-and-forget event (Post/PostAt): no handle
	// escaped, so the engine returns it to the free list once it fires.
	recycle bool
	// armed means a queue entry with matching seq exists.
	armed bool
	eng   *Engine
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
func New() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() ktime.Time { return e.now }

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

// arm files a queue entry for ev at t with a fresh sequence number. The
// caller accounts for live.
func (e *Engine) arm(ev *Event, t ktime.Time) {
	ev.at = t
	ev.seq = e.seq
	e.seq++
	ev.armed = true
	e.wq.push(entry{at: t, seq: ev.seq, ev: ev})
}

// push arms ev at t as a new live event.
func (e *Engine) push(ev *Event, t ktime.Time) {
	e.arm(ev, t)
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
		// The entry carrying the old seq goes stale and is skipped on pop;
		// dead-entry growth is bounded by compaction. Moving a queued event
		// may raise the minimum, so the cache cannot be tightened in place.
		e.nextValid = false
		e.arm(ev, t)
		e.maybeCompact()
		return
	}
	ev.cancelled = false
	e.push(ev, t)
}

// RescheduleAfter re-arms ev d from now (see Reschedule).
func (e *Engine) RescheduleAfter(ev *Event, d ktime.Duration) {
	e.Reschedule(ev, e.now.Add(d))
}

// entryDead reports whether a queue entry will never fire: it is stale (the
// event was re-armed since) or its event is tombstoned. A dropped tombstone
// entry un-arms its event so a later Reschedule pushes cleanly.
func entryDead(en entry) bool {
	if en.ev.seq != en.seq {
		return true
	}
	if en.ev.cancelled {
		en.ev.armed = false
		return true
	}
	return false
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
	if ev.fn != nil {
		ev.fn()
	} else {
		ev.h.Fire()
	}
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
	e.fire(en)
	return true
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
