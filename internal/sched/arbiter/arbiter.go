// Package arbiter is the Enoki reimplementation of the Arachne core arbiter
// (§4.2.4): the kernel half of a two-level scheduling system. Applications
// request dedicated cores; the arbiter assigns managed cores to processes
// and runs exactly one scheduler activation per granted core. It exercises
// both directions of Enoki's user communication: core requests arrive on the
// user-to-kernel hint queue, core reclamation requests flow back on the
// kernel-to-user queue — where the original Arachne used Linux cpusets and
// a socket, the Enoki arbiter "uses standard kernel scheduling mechanisms
// for assigning, moving, and blocking user scheduler activations" (579
// lines of Rust in the paper).
package arbiter

import (
	"encoding/gob"
	"maps"
	"slices"
	"time"

	"enoki/internal/core"
)

func init() {
	// Arbiter hints and reverse messages cross the record/replay log as
	// gob-encoded interface values.
	gob.Register(CoreRequest{})
	gob.Register(RegisterActivation{})
	gob.Register(GrantMsg{})
	gob.Register(ReclaimMsg{})
}

// CoreRequest is the user→kernel hint: a process asks for a number of
// dedicated cores.
type CoreRequest struct {
	ProcID int
	Cores  int
}

// RegisterActivation is the user→kernel hint announcing that a task is a
// scheduler activation belonging to a process.
type RegisterActivation struct {
	ProcID int
	PID    int
}

// GrantMsg is the kernel→user message telling a process its grant changed.
type GrantMsg struct {
	ProcID int
	Cores  int
}

// ReclaimMsg is the kernel→user message asking a process to release cores
// (the paper sends "a single boolean value"; the count generalises it).
type ReclaimMsg struct {
	ProcID int
	Cores  int
}

type activation struct {
	pid     int
	procID  int
	core    int // assigned core, -1 if none
	sched   *core.Schedulable
	queued  bool
	queueOn int
	blocked bool
}

type proc struct {
	id        int
	requested int
	granted   []int // cores
	acts      []int // activation pids
	// reclaimOwed counts cores the process was asked to release but has
	// not yet freed (a core frees when one of its activations parks).
	reclaimOwed int
}

type state struct {
	managed   []int   // cores the arbiter may hand out
	queues    [][]int // per-CPU queued activation pids, FIFO
	coreOwner map[int]int
	coreAct   map[int]int // core → activation pid
	acts      map[int]*activation
	procs     map[int]*proc
	procOrder []int
	queue     *core.HintQueue
	rev       *core.RevQueue
}

// Sched is the Enoki core-arbiter scheduler module.
type Sched struct {
	core.BaseScheduler
	env    core.Env
	policy int
	mu     core.Locker
	st     *state

	// Grants and Reclaims count arbitration decisions.
	Grants   uint64
	Reclaims uint64
}

var _ core.Scheduler = (*Sched)(nil)

// New constructs the arbiter managing the given cores (every other core is
// left to lower scheduler classes, e.g. CFS for background work).
func New(env core.Env, policy int, managed []int) *Sched {
	s := &Sched{env: env, policy: policy, mu: env.NewMutex("arbiter")}
	s.st = &state{
		managed:   managed,
		queues:    make([][]int, env.NumCPUs()),
		coreOwner: make(map[int]int),
		coreAct:   make(map[int]int),
		acts:      make(map[int]*activation),
		procs:     make(map[int]*proc),
	}
	return s
}

// GetPolicy implements core.Scheduler.
func (s *Sched) GetPolicy() int { return s.policy }

// enq queues an activation on cpu with its proof.
func (s *Sched) enq(a *activation, cpu int, sched *core.Schedulable) {
	if a.queued {
		s.deq(a)
	}
	a.sched = sched
	a.queued = true
	a.queueOn = cpu
	s.st.queues[cpu] = append(s.st.queues[cpu], a.pid)
}

// deq removes an activation from its queue.
func (s *Sched) deq(a *activation) {
	if !a.queued {
		return
	}
	q := s.st.queues[a.queueOn]
	for i, pid := range q {
		if pid == a.pid {
			s.st.queues[a.queueOn] = append(q[:i], q[i+1:]...)
			break
		}
	}
	a.queued = false
}

func (s *Sched) procOf(id int) *proc {
	p := s.st.procs[id]
	if p == nil {
		p = &proc{id: id}
		s.st.procs[id] = p
		s.st.procOrder = append(s.st.procOrder, id)
	}
	return p
}

// rebalance recomputes core grants after a request change: processes are
// served in registration order, each capped by its request. Over-grants are
// owed back through the reverse queue and collected as activations park;
// under-grants are filled from the free pool.
func (s *Sched) rebalance() {
	for _, pid := range s.st.procOrder {
		p := s.st.procs[pid]
		// Cancel owed reclaims when the request climbed back up.
		for p.reclaimOwed > 0 && len(p.granted)-p.reclaimOwed < p.requested {
			p.reclaimOwed--
			if s.st.rev != nil {
				s.st.rev.Push(GrantMsg{ProcID: p.id, Cores: len(p.granted) - p.reclaimOwed})
			}
		}
		// Ask for cores back when over-granted.
		for len(p.granted)-p.reclaimOwed > p.requested {
			p.reclaimOwed++
			s.Reclaims++
			if s.st.rev != nil {
				s.st.rev.Push(ReclaimMsg{ProcID: p.id, Cores: 1})
			}
		}
		s.collectOwed(p)
	}
	free := make([]int, 0, len(s.st.managed))
	for _, c := range s.st.managed {
		if s.st.coreOwner[c] == 0 {
			free = append(free, c)
		}
	}
	for _, pid := range s.st.procOrder {
		p := s.st.procs[pid]
		for len(p.granted) < p.requested && len(free) > 0 {
			c := free[0]
			free = free[1:]
			s.st.coreOwner[c] = p.id
			p.granted = append(p.granted, c)
			s.Grants++
			if s.st.rev != nil {
				s.st.rev.Push(GrantMsg{ProcID: p.id, Cores: len(p.granted)})
			}
		}
	}
}

// collectOwed frees owed cores whose activations are parked (or which have
// no activation at all).
func (s *Sched) collectOwed(p *proc) {
	for p.reclaimOwed > 0 {
		freed := -1
		for _, c := range p.granted {
			pid, bound := s.st.coreAct[c]
			if !bound {
				freed = c
				break
			}
			if a := s.st.acts[pid]; a == nil || a.blocked {
				if a != nil {
					a.core = -1
				}
				delete(s.st.coreAct, c)
				freed = c
				break
			}
		}
		if freed < 0 {
			return // wait for the runtime to park an activation
		}
		for i, c := range p.granted {
			if c == freed {
				p.granted = append(append([]int{}, p.granted[:i]...), p.granted[i+1:]...)
				break
			}
		}
		s.st.coreOwner[freed] = 0
		p.reclaimOwed--
	}
}

// assignCore binds a waking activation to one of its process's granted
// cores, if any is free of running activations.
func (s *Sched) assignCore(a *activation) int {
	if a.core >= 0 {
		return a.core
	}
	p := s.st.procs[a.procID]
	if p == nil {
		return -1
	}
	spare := len(p.granted) - p.reclaimOwed
	for _, c := range p.granted {
		if spare <= 0 {
			break
		}
		if _, busy := s.st.coreAct[c]; !busy {
			a.core = c
			s.st.coreAct[c] = a.pid
			return c
		}
		spare--
	}
	return -1
}

// --- trait implementation ---------------------------------------------------

// TaskNew implements core.Scheduler. Activations are only recognised once
// the runtime registers them via hints; until then they queue where they
// land.
func (s *Sched) TaskNew(pid int, runtime time.Duration, runnable bool, allowed []int, sched *core.Schedulable) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := &activation{pid: pid, core: -1, procID: -1}
	s.st.acts[pid] = a
	if runnable && sched != nil {
		s.enq(a, sched.CPU(), sched)
	}
}

// TaskWakeup implements core.Scheduler.
func (s *Sched) TaskWakeup(pid int, runtime time.Duration, deferrable bool, lastCPU, wakeCPU int, sched *core.Schedulable) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := s.st.acts[pid]
	if a == nil {
		return
	}
	a.blocked = false
	s.enq(a, wakeCPU, sched)
}

// TaskBlocked implements core.Scheduler: a parked activation may free a
// reclaim-pending core.
func (s *Sched) TaskBlocked(pid int, runtime time.Duration, cpu int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := s.st.acts[pid]
	if a == nil {
		return
	}
	a.blocked = true
	s.deq(a)
	a.sched = nil
	// Unbind the core; an owed reclamation collects it, otherwise it is
	// immediately re-assignable.
	if a.core >= 0 {
		delete(s.st.coreAct, a.core)
		a.core = -1
		if p := s.st.procs[a.procID]; p != nil && p.reclaimOwed > 0 {
			s.collectOwed(p)
			s.rebalance()
		}
	}
}

// TaskPreempt implements core.Scheduler.
func (s *Sched) TaskPreempt(pid int, runtime time.Duration, cpu int, preempted bool, sched *core.Schedulable) {
	s.requeue(pid, cpu, sched)
}

// TaskYield implements core.Scheduler.
func (s *Sched) TaskYield(pid int, runtime time.Duration, cpu int, sched *core.Schedulable) {
	s.requeue(pid, cpu, sched)
}

func (s *Sched) requeue(pid, cpu int, sched *core.Schedulable) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if a := s.st.acts[pid]; a != nil {
		s.enq(a, cpu, sched)
	}
}

// TaskDead implements core.Scheduler.
func (s *Sched) TaskDead(pid int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := s.st.acts[pid]
	if a == nil {
		return
	}
	s.deq(a)
	if a.core >= 0 {
		delete(s.st.coreAct, a.core)
		a.core = -1
	}
	delete(s.st.acts, pid)
	if p := s.st.procs[a.procID]; p != nil && p.reclaimOwed > 0 {
		s.collectOwed(p)
		s.rebalance()
	}
}

// TaskDeparted implements core.Scheduler.
func (s *Sched) TaskDeparted(pid, cpu int) *core.Schedulable {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := s.st.acts[pid]
	if a == nil {
		return nil
	}
	s.deq(a)
	if a.core >= 0 {
		delete(s.st.coreAct, a.core)
	}
	delete(s.st.acts, pid)
	tok := a.sched
	a.sched = nil
	return tok
}

// PickNextTask implements core.Scheduler: run the activation queued here.
func (s *Sched) PickNextTask(cpu int, curr *core.Schedulable, currRuntime time.Duration) *core.Schedulable {
	s.mu.Lock()
	q := s.st.queues[cpu]
	var nudge []int
	var pick *activation
	for _, pid := range q {
		a := s.st.acts[pid]
		if a.core == cpu {
			pick = a
			break
		}
		// Queued here but belongs (or can be bound) to a granted
		// core: leave it queued and nudge that core to pull it via
		// balance/migrate.
		if home := s.assignCore(a); home >= 0 && home != cpu {
			nudge = append(nudge, home)
			continue
		}
		// No grant anywhere: run it here (work conservation on the
		// shared core).
		pick = a
		break
	}
	if pick != nil {
		s.deq(pick)
	}
	var tok *core.Schedulable
	if pick != nil {
		tok = pick.sched
		pick.sched = nil
	}
	s.mu.Unlock()
	for _, c := range nudge {
		s.env.Resched(c)
	}
	return tok
}

// PntErr implements core.Scheduler.
func (s *Sched) PntErr(cpu int, pid int, err core.PickError, sched *core.Schedulable) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if a := s.st.acts[pid]; a != nil && sched != nil {
		s.enq(a, sched.CPU(), sched)
	}
}

// SelectTaskRQ implements core.Scheduler: an activation goes to its
// process's granted core; without one it shares the first unmanaged core.
func (s *Sched) SelectTaskRQ(pid, prevCPU int, wakeup bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := s.st.acts[pid]
	if a == nil {
		return prevCPU
	}
	if c := s.assignCore(a); c >= 0 {
		return c
	}
	// No grant: share the lowest non-managed core.
	managed := make(map[int]bool, len(s.st.managed))
	for _, c := range s.st.managed {
		managed[c] = true
	}
	for c := 0; c < s.env.NumCPUs(); c++ {
		if !managed[c] {
			return c
		}
	}
	return prevCPU
}

// MigrateTaskRQ implements core.Scheduler: the kernel moved the activation,
// so its core binding follows — if newCPU belongs to the activation's
// process and is free, rebind there.
func (s *Sched) MigrateTaskRQ(pid, newCPU int, sched *core.Schedulable) *core.Schedulable {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := s.st.acts[pid]
	if a == nil {
		return nil
	}
	if a.core != newCPU && s.st.coreOwner[newCPU] == a.procID && a.procID != -1 {
		if _, busy := s.st.coreAct[newCPU]; !busy {
			if a.core >= 0 {
				delete(s.st.coreAct, a.core)
			}
			a.core = newCPU
			s.st.coreAct[newCPU] = pid
		}
	}
	old := a.sched
	a.sched = nil
	s.enq(a, newCPU, sched)
	return old
}

// Balance implements core.Scheduler: this is how activations reach their
// granted cores — when a granted core runs dry, pull the activation bound
// to it (or bind one queued on a wrong core) using the kernel's standard
// migration path.
func (s *Sched) Balance(cpu int) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.st.queues[cpu]) > 0 {
		return 0, false
	}
	owner := s.st.coreOwner[cpu]
	if owner == 0 {
		return 0, false
	}
	if pid, bound := s.st.coreAct[cpu]; bound {
		a := s.st.acts[pid]
		if a != nil && a.queued && a.queueOn != cpu {
			return uint64(pid), true
		}
		return 0, false
	}
	// No binding yet: adopt an activation of the owning process that is
	// queued on a core it has no claim to.
	p := s.st.procs[owner]
	if p == nil {
		return 0, false
	}
	for _, pid := range p.acts {
		a := s.st.acts[pid]
		if a == nil || !a.queued || a.queueOn == cpu {
			continue
		}
		if a.core == -1 {
			a.core = cpu
			s.st.coreAct[cpu] = pid
			return uint64(pid), true
		}
	}
	return 0, false
}

// BalanceErr implements core.Scheduler: drop the binding so the next
// balance pass can retry cleanly.
func (s *Sched) BalanceErr(cpu int, pid uint64, sched *core.Schedulable) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if bound, ok := s.st.coreAct[cpu]; ok && bound == int(pid) {
		if a := s.st.acts[int(pid)]; a != nil && a.queueOn != cpu {
			a.core = -1
			delete(s.st.coreAct, cpu)
		}
	}
}

// TaskTick implements core.Scheduler: round-robin activations sharing a
// core, and evict an activation running on a core it is not assigned to —
// once requeued, the Balance hook migrates it to its granted core.
func (s *Sched) TaskTick(cpu int, queued bool, currPID int, currRuntime time.Duration) {
	s.mu.Lock()
	resched := len(s.st.queues[cpu]) > 0
	if a := s.st.acts[currPID]; a != nil && a.core != cpu {
		resched = true
	}
	s.mu.Unlock()
	if resched {
		s.env.Resched(cpu)
	}
}

// RegisterQueue implements core.Scheduler.
func (s *Sched) RegisterQueue(q *core.HintQueue) int { s.st.queue = q; return 1 }

// RegisterReverseQueue implements core.Scheduler.
func (s *Sched) RegisterReverseQueue(q *core.RevQueue) int { s.st.rev = q; return 2 }

// UnregisterQueue implements core.Scheduler.
func (s *Sched) UnregisterQueue(id int) *core.HintQueue {
	q := s.st.queue
	s.st.queue = nil
	return q
}

// UnregisterRevQueue implements core.Scheduler.
func (s *Sched) UnregisterRevQueue(id int) *core.RevQueue {
	q := s.st.rev
	s.st.rev = nil
	return q
}

// EnterQueue implements core.Scheduler.
func (s *Sched) EnterQueue(id, count int) {
	if s.st.queue == nil {
		return
	}
	for i := 0; i < count; i++ {
		h, ok := s.st.queue.Pop()
		if !ok {
			return
		}
		s.ParseHint(h)
	}
}

// ParseHint implements core.Scheduler: core requests and activation
// registrations.
func (s *Sched) ParseHint(hint core.Hint) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch h := hint.(type) {
	case CoreRequest:
		p := s.procOf(h.ProcID)
		p.requested = h.Cores
		s.rebalance()
	case RegisterActivation:
		p := s.procOf(h.ProcID)
		p.acts = append(p.acts, h.PID)
		if a := s.st.acts[h.PID]; a != nil {
			a.procID = h.ProcID
		}
	}
}

// GrantedCores reports how many cores a process currently holds (tests).
func (s *Sched) GrantedCores(procID int) int {
	if p := s.st.procs[procID]; p != nil {
		return len(p.granted)
	}
	return 0
}

// ReregisterPrepare implements core.Scheduler: a copy of the whole
// arbitration state, queues included, transfers (§3.3).
func (s *Sched) ReregisterPrepare() *core.TransferOut {
	st := *s.st
	st.queues = make([][]int, len(s.st.queues))
	for i, q := range s.st.queues {
		st.queues[i] = slices.Clone(q)
	}
	st.coreOwner, st.coreAct = maps.Clone(st.coreOwner), maps.Clone(st.coreAct)
	st.acts, st.procs = core.CloneRecords(st.acts), core.CloneRecords(st.procs)
	for _, p := range st.procs {
		p.granted, p.acts = slices.Clone(p.granted), slices.Clone(p.acts)
	}
	st.procOrder = slices.Clone(st.procOrder)
	return &core.TransferOut{State: &st}
}

// ReregisterInit implements core.Scheduler.
func (s *Sched) ReregisterInit(in *core.TransferIn) {
	if in == nil || in.State == nil {
		return
	}
	if st, ok := in.State.(*state); ok {
		s.st = st
	}
}
