package kernel

import (
	"time"

	"enoki/internal/core"
)

// RT is the simulated SCHED_FIFO/SCHED_RR real-time class — the second of
// Linux's three mainline schedulers (§2). It exists for substrate
// completeness and for experiments that need a strictly-higher-priority
// class above CFS: fixed priorities 0..99 (higher wins), FIFO within a
// priority, optional round-robin slice, strict preemption of lower
// priorities.
type RT struct {
	k *Kernel
	// queues[cpu] is ordered by priority (descending), FIFO within.
	queues  []core.Deque[*rtEntity]
	curr    []*rtEntity
	rrSlice time.Duration
	picked  []time.Duration // curr's SumExec at pick, for RR
}

type rtEntity struct {
	t    *Task
	prio int
	rr   bool
}

var _ Class = (*RT)(nil)

// NewRT builds the real-time class. rrSlice is the SCHED_RR quantum
// (Linux's default is 100ms); SCHED_FIFO tasks ignore it.
func NewRT(k *Kernel, rrSlice time.Duration) *RT {
	if rrSlice <= 0 {
		rrSlice = 100 * time.Millisecond
	}
	r := &RT{k: k, rrSlice: rrSlice}
	r.queues = make([]core.Deque[*rtEntity], k.NumCPUs())
	r.curr = make([]*rtEntity, k.NumCPUs())
	r.picked = make([]time.Duration, k.NumCPUs())
	return r
}

// RTParams configures a task's real-time priority through UserData-free
// plumbing: attach with SetRTParams after spawn (before it matters).
type RTParams struct {
	// Prio is the real-time priority, 0..99; higher runs first.
	Prio int
	// RoundRobin selects SCHED_RR semantics (sliced among equals).
	RoundRobin bool
}

// SetRTParams sets a task's RT priority; call before or after spawn into
// the RT class (a queued task is repositioned).
func (r *RT) SetRTParams(t *Task, p RTParams) {
	e := r.ent(t)
	if e == nil {
		return
	}
	e.prio = p.Prio
	e.rr = p.RoundRobin
	// Reposition if queued.
	if cpu := t.CPU(); r.queues[cpu].Remove(e) {
		r.insert(cpu, e)
	}
}

func (r *RT) ent(t *Task) *rtEntity {
	e, _ := t.classData.(*rtEntity)
	return e
}

// insert places e behind equal-priority peers (FIFO within priority).
func (r *RT) insert(cpu int, e *rtEntity) {
	q := &r.queues[cpu]
	pos := 0
	for pos < q.Len() && q.At(pos).prio >= e.prio {
		pos++
	}
	q.Insert(pos, e)
}

// Name implements Class.
func (r *RT) Name() string { return "RT" }

// OverheadPerCall implements Class.
func (r *RT) OverheadPerCall() time.Duration { return 0 }

// TaskNew implements Class.
func (r *RT) TaskNew(t *Task) { t.classData = &rtEntity{t: t} }

// TaskDead implements Class.
func (r *RT) TaskDead(t *Task) { t.classData = nil }

// Detach implements Class.
func (r *RT) Detach(t *Task) { t.classData = nil }

// Enqueue implements Class.
func (r *RT) Enqueue(cpu int, t *Task, wakeup bool) { r.insert(cpu, r.ent(t)) }

// Dequeue implements Class.
func (r *RT) Dequeue(cpu int, t *Task, sleep bool) {
	e := r.ent(t)
	if r.curr[cpu] == e {
		r.curr[cpu] = nil
		return
	}
	r.queues[cpu].Remove(e)
}

// Yield implements Class: behind equals.
func (r *RT) Yield(cpu int, t *Task) { r.PutPrev(cpu, t, false) }

// PutPrev implements Class.
func (r *RT) PutPrev(cpu int, t *Task, preempted bool) {
	e := r.ent(t)
	if r.curr[cpu] == e {
		r.curr[cpu] = nil
	}
	r.insert(cpu, e)
}

// PickNext implements Class.
func (r *RT) PickNext(cpu int) *Task {
	e, ok := r.queues[cpu].PopFront()
	if !ok {
		return nil
	}
	r.curr[cpu] = e
	r.picked[cpu] = e.t.SumExec()
	return e.t
}

// Tick implements Class: SCHED_RR slice expiry among equal priorities.
func (r *RT) Tick(cpu int, t *Task) {
	e := r.curr[cpu]
	if e == nil || !e.rr || r.queues[cpu].Len() == 0 {
		return
	}
	if r.queues[cpu].At(0).prio != e.prio {
		return
	}
	if t.SumExec()-r.picked[cpu] >= r.rrSlice {
		r.k.Resched(cpu)
	}
}

// SelectRQ implements Class: previous CPU unless forbidden, else the first
// allowed (RT placement in Linux is mostly push/pull; keep it simple).
func (r *RT) SelectRQ(t *Task, prevCPU int, wakeup bool) int {
	if t.allowed.has(prevCPU) {
		return prevCPU
	}
	for _, c := range t.Allowed().List() {
		return c
	}
	return prevCPU
}

// CheckPreempt implements Class: strictly higher priority preempts.
func (r *RT) CheckPreempt(cpu int, t *Task) {
	curr := r.curr[cpu]
	if curr == nil {
		return
	}
	if r.ent(t).prio > curr.prio {
		r.k.Resched(cpu)
	}
}

// Balance implements Class: RT does not load-balance here.
func (r *RT) Balance(cpu int) {}

// Migrate implements Class.
func (r *RT) Migrate(t *Task, src, dst int) {}

// PrioChanged implements Class (nice does not affect RT priorities).
func (r *RT) PrioChanged(t *Task) {}

// AffinityChanged implements Class.
func (r *RT) AffinityChanged(t *Task) {}

// NRunnable implements Class.
func (r *RT) NRunnable(cpu int) int { return r.queues[cpu].Len() }
