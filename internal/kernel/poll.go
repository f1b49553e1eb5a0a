package kernel

import (
	"time"

	"enoki/internal/ktime"
	"enoki/internal/sim"
)

// Poller is implemented by a Behavior that returns OpPoll actions: busy-polls
// whose Run is a string of polls, each of which reads what the poller
// watches and, finding it unchanged, goes on to the next. The kernel runs
// such an action as one segment, and a poller whose watched state changes
// calls Kernel.CutPoll so that the segment ends at the first poll that sees
// the change; Next then runs there, as it would have after that poll.
type Poller interface {
	Behavior
	// Polls returns the polls of the task's current OpPoll action around
	// execution offset off > 0, counted from the action's start: last is
	// the latest poll before off (0 when there is none), next the first at
	// or after off, and, when last is a poll, from the earliest poll from
	// which every poll up to next follows the one before it by next-last.
	// Run's end is always a poll.
	Polls(off time.Duration) (last, next, from time.Duration)
}

// Poll segments. In the poll-by-poll model each poll is a segment of its own,
// whose completion event is armed when the poll before it completes, or when
// the segment was last (re)started on its CPU if that is later. One OpPoll
// segment reproduces it exactly because the engine orders same-instant
// events by the instant they were armed at, and this file applies that order
// to the polls that are no longer events:
//
//   - A poll at instant T sees a change made at T only if the event making
//     the change was armed at an earlier instant than that poll's completion
//     would have been — armed at the same instant, only if the event that
//     armed it was itself armed before the poll's arming event (the poll
//     before it) was. Every cut, preemption and SumExec read applies this one
//     rule (pollFired).
//   - The segment's completion event stands in for its last poll's: filed as
//     if armed when that poll's completion would have been, it takes the
//     same place among the events due with it — for a stretch's first poll,
//     exactly that arming's, for a later one as a stand-in
//     (sim.Engine.RescheduleArmed). Stand-ins armed at one instant
//     are polls of busy-pollers polling in lockstep; they fire in the order
//     of their chains of arming events (pollChain).
//
// A change that needs no caller — a reschedule request for the CPU, which the
// poll-by-poll task would have acted on at its next poll — cuts the segment
// in Resched, and a poll segment leaving its CPU is cut first, so it resumes
// as the remainder up to its next poll: a segment only ever spans polls in
// one stretch on a CPU, started at its beginning (CPU.poll).

// pollStretch is a CPU's record of its running OpPoll segment, if active:
// started at start by an event armed at origin, itself armed at
// originParent. first is the arming number the poll-by-poll model's first
// poll took.
type pollStretch struct {
	start, origin, originParent ktime.Time
	first                       uint64
	active                      bool
}

// stretch returns c's running poll stretch, nil when c runs none.
func (k *Kernel) stretch(c *CPU) *pollStretch {
	if c.poll.active {
		return &c.poll
	}
	return nil
}

// CutPoll ends t's current OpPoll segment at its first poll that has not
// happened yet, the first to see a change the caller has just made. It does
// nothing when t is not running such a segment.
func (k *Kernel) CutPoll(t *Task) {
	if c := &k.cpus[t.cpu]; c.curr == t {
		k.stopPoll(c, t)
	}
}

// startPoll starts running t's OpPoll action on c, now, from its beginning.
func (k *Kernel) startPoll(c *CPU, t *Task, now ktime.Time) {
	s := &c.poll
	s.active, s.start, s.first = true, now, k.eng.Armings()
	s.origin, s.originParent = k.eng.ArmedAt()
	p := t.behavior.(Poller)
	last, _, _ := p.Polls(t.segLeft)
	k.armPoll(s, t, p, t.execStart, last, t.segLeft)
}

// stopPoll cuts c's running task t if it runs a poll segment.
func (k *Kernel) stopPoll(c *CPU, t *Task) {
	if c.poll.active {
		k.cutPoll(c, t)
	}
}

// cutPoll ends t's poll segment running on c, if any, at its first poll that
// has not happened yet.
func (k *Kernel) cutPoll(c *CPU, t *Task) {
	s := k.stretch(c)
	if s == nil || !t.hasPending {
		return
	}
	p := t.behavior.(Poller)
	base, last, next := k.pollsAt(s, t, p)
	if next >= t.pending.Run {
		return // the segment already ends there
	}
	t.segLeft -= t.pending.Run - next
	t.pending.Run = next
	k.armPoll(s, t, p, base, last, next)
}

// armPoll arms t's completion event for its poll at offset next, after the
// poll at last, at the place that poll's own completion event would take.
func (k *Kernel) armPoll(s *pollStretch, t *Task, p Poller, base ktime.Time, last, next time.Duration) {
	arm, parent := pollArms(s, p, base, last)
	n := sim.AsStandIn
	if last == 0 {
		n = s.first
	}
	k.eng.RescheduleArmed(&t.runEvent, base.Add(next), arm, parent, n)
}

// pollBase is the instant offset 0 of t's running poll segment
// corresponds to, so that its poll at offset o falls at pollBase+o.
func pollBase(t *Task) ktime.Time {
	return t.execStart.Add(-(t.pending.Run - t.segLeft))
}

// pollsAt splits t's running poll segment, of stretch s, at the event firing
// now: last is the offset of its latest poll that has happened (0 when none
// has), next that of the first that has not; base is as pollBase.
func (k *Kernel) pollsAt(s *pollStretch, t *Task, p Poller) (base ktime.Time, last, next time.Duration) {
	base, done := pollBase(t), t.pending.Run-t.segLeft
	if now := k.eng.Now(); now > t.execStart {
		done += now.Sub(t.execStart)
	}
	last, next, _ = p.Polls(max(done, 1))
	if next == done && k.pollFired(s, p, base, last, next) {
		last, next, _ = p.Polls(done + 1)
	}
	return base, last, next
}

// pollFired reports whether the poll at next, after the one at last and due
// now, fired before the event firing now, by the engine's order: the one
// armed earlier; armed at one instant, two real armings by number, else the
// one whose arming event was armed earlier; and armed at one instant too,
// two polls by their chains, a stand-in before any other event.
func (k *Kernel) pollFired(s *pollStretch, p Poller, base ktime.Time, last, next time.Duration) bool {
	arm, parent := pollArms(s, p, base, last)
	cur, curParent := k.eng.ArmedAt()
	h, n, standIn, ok := k.eng.Firing()
	switch {
	case !ok:
		return true
	case arm != cur:
		return arm < cur
	case last == 0 && !standIn:
		return s.first < n
	case parent != curParent:
		return parent < curParent
	}
	o, isTask := h.(*taskRun)
	if !isTask || !k.polling((*Task)(o)) {
		return true
	}
	a, b := chainOf(s, p, base, next), k.runChain((*Task)(o))
	return a.before(&b)
}

// polling reports whether t runs a poll segment.
func (k *Kernel) polling(t *Task) bool {
	c := &k.cpus[t.cpu]
	return c.curr == t && k.stretch(c) != nil
}

// pollArms returns when the completion of the poll after the one at offset
// last would have been armed, and when the event arming it was: the poll at
// last, or the event that started the stretch.
func pollArms(s *pollStretch, p Poller, base ktime.Time, last time.Duration) (arm, parent ktime.Time) {
	if last == 0 {
		return s.start, s.origin
	}
	parent = s.start // last is the first poll
	if before, _, _ := p.Polls(last); before > 0 {
		parent = base.Add(before)
	}
	return base.Add(last), parent
}

// pollSumExec is SumExec for a running task whose action is an OpPoll, kept
// out of line so that SumExec, on every scheduler's hot path, inlines.
//
//go:noinline
func (t *Task) pollSumExec() time.Duration {
	return t.sumExec + t.k.pollCredit(&t.k.cpus[t.cpu])
}

// pollCredit is the execution of c's running poll segment between the last
// accounting point and its latest poll that has happened: the poll-by-poll
// model accounted at every poll, so its SumExec and CPU busy time include it.
func (k *Kernel) pollCredit(c *CPU) time.Duration {
	t, s := c.curr, k.stretch(c)
	if t == nil || s == nil || !t.hasPending {
		return 0
	}
	_, last, _ := k.pollsAt(s, t, t.behavior.(Poller))
	if accounted := t.pending.Run - t.segLeft; last > accounted {
		return last - accounted
	}
	return 0
}

// pollChain is the chain of arming events behind one poll of a poll segment
// in the poll-by-poll model: the poll was armed by the poll before it, that
// one by the one before, and so on back to the stretch's first poll, armed
// when the stretch started, by an event armed at its origin, itself armed at
// originParent. runs holds the instants they were armed at, newest first,
// as runs of equal steps; the first poll's arming is the run marked first.
type pollChain struct {
	runs  [maxPollRuns]chainRun
	n     int
	first uint64 // the first poll's arming number
}

// maxPollRuns bounds a chain's length in runs.
const maxPollRuns = 8

type chainRun struct {
	at    ktime.Time    // the newest instant
	step  time.Duration // between instants
	count time.Duration // instants
	first bool
}

func (ch *pollChain) add(r chainRun) {
	if ch.n < len(ch.runs) {
		ch.runs[ch.n] = r
		ch.n++
	}
}

// chainOf is the chain behind the poll at offset x of a poll segment of
// stretch s.
func chainOf(s *pollStretch, p Poller, base ktime.Time, x time.Duration) pollChain {
	ch := pollChain{first: s.first}
	for ch.n < len(ch.runs)-3 {
		prev, _, from := p.Polls(x)
		if prev == 0 {
			// x is the first poll.
			ch.add(chainRun{at: s.start, count: 1, first: true})
			ch.add(chainRun{at: s.origin, count: 1})
			ch.add(chainRun{at: s.originParent, count: 1})
			break
		}
		step := x - prev
		ch.add(chainRun{at: base.Add(prev), step: step, count: max((x-from)/step, 1)})
		x = from
	}
	return ch
}

// runChain is the chain behind the poll t's queued stand-in completes.
func (k *Kernel) runChain(t *Task) pollChain {
	return chainOf(k.stretch(&k.cpus[t.cpu]), t.behavior.(Poller), pollBase(t), t.pending.Run)
}

// before reports whether a's poll fires before b's, both armed at one
// instant: at the first step back at which their chains were armed at
// different instants, the one armed earlier; two first polls armed at one
// instant by arming number. It is true when the chains cannot be told apart.
func (a *pollChain) before(b *pollChain) bool {
	var i, j int
	var ki, kj time.Duration
	for i < a.n && j < b.n {
		ra, rb := &a.runs[i], &b.runs[j]
		xa, xb := ra.at.Add(-ra.step*ki), rb.at.Add(-rb.step*kj)
		if xa != xb {
			return xa < xb
		}
		if ra.first && rb.first {
			return a.first < b.first
		}
		step := time.Duration(1)
		if ra.step == rb.step {
			step = min(ra.count-ki, rb.count-kj)
		}
		if ki += step; ki == ra.count {
			i, ki = i+1, 0
		}
		if kj += step; kj == rb.count {
			j, kj = j+1, 0
		}
	}
	return true
}

// FiresBefore implements sim.StandIn for t's queued stand-in: against
// another poll, as their chains order them; before any other event.
func (h *taskRun) FiresBefore(other sim.Handler) bool {
	t := (*Task)(h)
	o, isTask := other.(*taskRun)
	if !isTask || !t.k.polling((*Task)(o)) {
		return true
	}
	a, b := t.k.runChain(t), t.k.runChain((*Task)(o))
	return a.before(&b)
}
