// Package wfq is the Enoki weighted fair queuing scheduler of §4.2.1: the
// paper's headline module, written against the libEnoki API and compared
// head-to-head with CFS across Tables 3-5.
//
// Like the paper's 646-line Rust version, it computes vruntime for per-core
// time slices but uses a much simpler placement policy than CFS: when a core
// is about to go idle and another core has waiting work, it steals from the
// core with the longest queue; otherwise it does not rebalance.
package wfq

import (
	"time"

	"enoki/internal/core"
	"enoki/internal/kernel"
	"enoki/internal/rbtree"
)

// Tuning constants, mirroring the CFS defaults the module approximates.
const (
	targetLatency  = 6 * time.Millisecond
	minGranularity = 750 * time.Microsecond
	sleeperCredit  = int64(3 * time.Millisecond)
	wakeupGran     = int64(time.Millisecond)
	nrLatency      = 8
)

// task is the module's view of one task.
type task struct {
	pid      int
	weight   int64
	vruntime int64
	lastRun  time.Duration // runtime at last vruntime update
	sched    *core.Schedulable
	node     rbtree.Node[int64, *task] // linked while queued
	cpu      int
	queued   bool
	allowed  []bool // nil means all CPUs
}

// allows reports whether the task may run on cpu.
func (t *task) allows(cpu int) bool { return t.allowed == nil || t.allowed[cpu] }

// allowedSet converts an affinity list to a lookup table; a full list
// collapses to nil.
func allowedSet(list []int, ncpu int) []bool {
	if len(list) == 0 || len(list) >= ncpu {
		return nil
	}
	set := make([]bool, ncpu)
	for _, c := range list {
		if c >= 0 && c < ncpu {
			set[c] = true
		}
	}
	return set
}

// runq is one core's weighted fair queue.
type runq struct {
	tree        rbtree.Tree[int64, *task]
	minV        int64
	curr        *task
	currPicked  time.Duration // curr's runtime when picked
	totalWeight int64
}

// newRunqs returns n empty run queues, allocated as one slab.
func newRunqs(n int) []runq {
	rqs := make([]runq, n)
	for i := range rqs {
		rqs[i].tree.Init(func(a, b int64) bool { return a < b })
	}
	return rqs
}

func (rq *runq) nr() int {
	n := rq.tree.Len()
	if rq.curr != nil {
		n++
	}
	return n
}

func (rq *runq) updateMinV() {
	v := rq.minV
	if rq.curr != nil {
		v = rq.curr.vruntime
	}
	if left := rq.tree.Min(); left != nil {
		lv := left.Value().vruntime
		if rq.curr == nil || lv < v {
			v = lv
		}
	}
	if v > rq.minV {
		rq.minV = v
	}
}

// state is the transferable whole of the scheduler, passed across live
// upgrades (§3.2): the new version adopts it in reregister_init.
type state struct {
	tasks   map[int]*task
	rqs     []runq
	waiting int // tasks in every rq's tree, kept at each insert and delete
}

// Sched is the Enoki WFQ scheduler module.
type Sched struct {
	core.BaseScheduler
	env    core.Env
	policy int
	mu     core.Locker
	st     *state

	// Picks and Steals are policy counters used by tests and ablations.
	Picks  uint64
	Steals uint64

	// NoSteal disables idle-time work stealing (the DESIGN.md ablation:
	// without it, WFQ has no load balancing at all).
	NoSteal bool
}

var _ core.Scheduler = (*Sched)(nil)

// New constructs the module.
func New(env core.Env, policy int) *Sched {
	s := &Sched{env: env, policy: policy, mu: env.NewMutex("wfq")}
	s.st = &state{tasks: make(map[int]*task), rqs: newRunqs(env.NumCPUs())}
	return s
}

// GetPolicy implements core.Scheduler.
func (s *Sched) GetPolicy() int { return s.policy }

// charge updates a task's vruntime from the framework-tracked runtime.
func (s *Sched) charge(t *task, runtime time.Duration) {
	delta := runtime - t.lastRun
	if delta <= 0 {
		return
	}
	t.lastRun = runtime
	t.vruntime += int64(delta) * kernel.NICE0Load / t.weight
}

func (s *Sched) enqueue(rq *runq, t *task, cpu int) {
	t.cpu = cpu
	t.queued = true
	rq.tree.InsertNode(&t.node, t.vruntime, t)
	s.st.waiting++
	rq.totalWeight += t.weight
	rq.updateMinV()
}

func (s *Sched) dequeue(rq *runq, t *task) {
	if t.node.Linked() {
		rq.tree.Delete(&t.node)
		s.st.waiting--
	}
	t.queued = false
	rq.totalWeight -= t.weight
	rq.updateMinV()
}

// TaskNew implements core.Scheduler.
func (s *Sched) TaskNew(pid int, runtime time.Duration, runnable bool, allowed []int, sched *core.Schedulable) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cpu := 0
	if sched != nil {
		cpu = sched.CPU()
	}
	rq := &s.st.rqs[cpu]
	t := &task{
		pid: pid, weight: kernel.NICE0Load,
		vruntime: rq.minV, lastRun: runtime, sched: sched,
		allowed: allowedSet(allowed, s.env.NumCPUs()),
	}
	s.st.tasks[pid] = t
	if runnable && sched != nil {
		s.enqueue(rq, t, cpu)
	}
}

// TaskWakeup implements core.Scheduler: grant bounded sleeper credit and
// request preemption when the woken task is far behind the current one.
func (s *Sched) TaskWakeup(pid int, runtime time.Duration, deferrable bool, lastCPU, wakeCPU int, sched *core.Schedulable) {
	s.mu.Lock()
	t := s.st.tasks[pid]
	if t == nil {
		s.mu.Unlock()
		return
	}
	rq := &s.st.rqs[wakeCPU]
	t.lastRun = runtime
	if v := rq.minV - sleeperCredit; t.vruntime < v {
		t.vruntime = v
	}
	t.sched = sched
	s.enqueue(rq, t, wakeCPU)
	preempt := rq.curr != nil && t.vruntime+wakeupGran < rq.curr.vruntime
	s.mu.Unlock()
	if preempt {
		s.env.Resched(wakeCPU)
	}
}

// TaskPreempt implements core.Scheduler.
func (s *Sched) TaskPreempt(pid int, runtime time.Duration, cpu int, preempted bool, sched *core.Schedulable) {
	s.requeue(pid, runtime, cpu, sched)
}

// TaskYield implements core.Scheduler.
func (s *Sched) TaskYield(pid int, runtime time.Duration, cpu int, sched *core.Schedulable) {
	s.requeue(pid, runtime, cpu, sched)
}

func (s *Sched) requeue(pid int, runtime time.Duration, cpu int, sched *core.Schedulable) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.st.tasks[pid]
	if t == nil {
		return
	}
	s.charge(t, runtime)
	rq := &s.st.rqs[cpu]
	if rq.curr == t {
		rq.curr = nil
		rq.totalWeight -= t.weight
	}
	t.sched = sched
	s.enqueue(rq, t, cpu)
}

// TaskBlocked implements core.Scheduler.
func (s *Sched) TaskBlocked(pid int, runtime time.Duration, cpu int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.st.tasks[pid]
	if t == nil {
		return
	}
	s.charge(t, runtime)
	rq := &s.st.rqs[cpu]
	if rq.curr == t {
		rq.curr = nil
		rq.totalWeight -= t.weight
		rq.updateMinV()
	}
	t.sched = nil
}

// TaskDead implements core.Scheduler.
func (s *Sched) TaskDead(pid int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.st.tasks[pid]
	if t == nil {
		return
	}
	if t.queued {
		s.dequeue(&s.st.rqs[t.cpu], t)
	}
	delete(s.st.tasks, pid)
}

// TaskDeparted implements core.Scheduler.
func (s *Sched) TaskDeparted(pid, cpu int) *core.Schedulable {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.st.tasks[pid]
	if t == nil {
		return nil
	}
	if t.queued {
		s.dequeue(&s.st.rqs[t.cpu], t)
	}
	if rq := &s.st.rqs[t.cpu]; rq.curr == t {
		rq.curr = nil
		rq.totalWeight -= t.weight
	}
	delete(s.st.tasks, pid)
	tok := t.sched
	t.sched = nil
	return tok
}

// PickNextTask implements core.Scheduler: run the lowest-vruntime task.
func (s *Sched) PickNextTask(cpu int, curr *core.Schedulable, currRuntime time.Duration) *core.Schedulable {
	s.mu.Lock()
	defer s.mu.Unlock()
	rq := &s.st.rqs[cpu]
	n := rq.tree.Min()
	if n == nil {
		return nil
	}
	t := n.Value()
	rq.tree.Delete(n)
	s.st.waiting--
	t.queued = false
	rq.curr = t
	rq.currPicked = t.lastRun
	s.Picks++
	tok := t.sched
	t.sched = nil
	return tok
}

// PntErr implements core.Scheduler: accept the proof back and requeue.
func (s *Sched) PntErr(cpu int, pid int, err core.PickError, sched *core.Schedulable) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.st.tasks[pid]
	if t == nil || sched == nil {
		return
	}
	rq := &s.st.rqs[cpu]
	if rq.curr == t {
		rq.curr = nil
		rq.totalWeight -= t.weight
	}
	t.sched = sched
	if !t.queued {
		s.enqueue(rq, t, sched.CPU())
	}
}

// period returns the fair period for nr runnable tasks.
func period(nr int) time.Duration {
	if nr <= nrLatency {
		return targetLatency
	}
	return time.Duration(nr) * minGranularity
}

// TaskTick implements core.Scheduler: expire the current task's slice.
func (s *Sched) TaskTick(cpu int, queued bool, currPID int, currRuntime time.Duration) {
	s.mu.Lock()
	rq := &s.st.rqs[cpu]
	t := rq.curr
	resched := false
	if t != nil && t.pid == currPID {
		// Keep the running task's vruntime current even when nothing
		// waits, so wakeup-preemption comparisons are not stale.
		s.charge(t, currRuntime)
		rq.updateMinV()
	}
	if t != nil && t.pid == currPID && rq.tree.Len() > 0 {
		tw := rq.totalWeight
		if tw <= 0 {
			tw = t.weight
		}
		slice := time.Duration(int64(period(rq.nr())) * t.weight / tw)
		if slice < minGranularity {
			slice = minGranularity
		}
		if currRuntime-rq.currPicked >= slice {
			resched = true
		} else if left := rq.tree.Min(); left != nil &&
			t.vruntime-left.Value().vruntime > int64(slice)*kernel.NICE0Load/t.weight {
			resched = true
		}
	}
	s.mu.Unlock()
	if resched {
		s.env.Resched(cpu)
	}
}

// SelectTaskRQ implements core.Scheduler: previous CPU if free, otherwise
// the lightest allowed queue.
func (s *Sched) SelectTaskRQ(pid, prevCPU int, wakeup bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.st.tasks[pid]
	allowedPrev := prevCPU >= 0 && prevCPU < len(s.st.rqs) && (t == nil || t.allows(prevCPU))
	if allowedPrev {
		rq := &s.st.rqs[prevCPU]
		if wakeup && rq.curr == nil && rq.tree.Len() == 0 {
			return prevCPU
		}
	}
	best, bestW := prevCPU, int64(1<<62)
	for cpu := range s.st.rqs {
		if t != nil && !t.allows(cpu) {
			continue
		}
		if w := s.st.rqs[cpu].totalWeight; w < bestW {
			best, bestW = cpu, w
		}
	}
	if wakeup && allowedPrev && s.st.rqs[prevCPU].totalWeight <= bestW {
		return prevCPU
	}
	return best
}

// Balance implements core.Scheduler, the paper's deliberately simple
// policy: only when this core is about to go idle, steal the least-urgent
// waiting task from the core with the longest queue. With nothing waiting
// anywhere no queue can be chosen, so the scan is skipped.
func (s *Sched) Balance(cpu int) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.NoSteal || s.st.waiting == 0 || s.st.rqs[cpu].tree.Len() > 0 {
		return 0, false
	}
	busiest, busiestLen := -1, 0
	for i := range s.st.rqs {
		rq := &s.st.rqs[i]
		if i == cpu {
			continue
		}
		n := rq.tree.Len()
		// A single waiting task on an otherwise idle core is about to
		// run there; stealing it only moves the wakeup.
		if rq.curr == nil && n < 2 {
			continue
		}
		if n > busiestLen {
			busiest, busiestLen = i, n
		}
	}
	if busiest == -1 || busiestLen < 1 {
		return 0, false
	}
	// Steal the waiting task with the highest vruntime (least urgent)
	// that may run here.
	var victim *task
	s.st.rqs[busiest].tree.Ascend(func(n *rbtree.Node[int64, *task]) bool {
		if n.Value().allows(cpu) {
			victim = n.Value()
		}
		return true
	})
	if victim == nil {
		return 0, false
	}
	s.Steals++
	return uint64(victim.pid), true
}

// MigrateTaskRQ implements core.Scheduler: adopt the new proof, renormalise
// vruntime onto the new queue, and return the old proof.
func (s *Sched) MigrateTaskRQ(pid, newCPU int, sched *core.Schedulable) *core.Schedulable {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.st.tasks[pid]
	if t == nil {
		return nil
	}
	old := t.sched
	if t.queued {
		src := &s.st.rqs[t.cpu]
		s.dequeue(src, t)
		t.vruntime = t.vruntime - src.minV + s.st.rqs[newCPU].minV
	}
	t.sched = sched
	s.enqueue(&s.st.rqs[newCPU], t, newCPU)
	return old
}

// TaskAffinityChanged implements core.Scheduler.
func (s *Sched) TaskAffinityChanged(pid int, allowed []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t := s.st.tasks[pid]; t != nil {
		t.allowed = allowedSet(allowed, len(s.st.rqs))
	}
}

// TaskPrioChanged implements core.Scheduler.
func (s *Sched) TaskPrioChanged(pid, prio int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.st.tasks[pid]
	if t == nil {
		return
	}
	old := t.weight
	t.weight = kernel.WeightOf(prio)
	if t.queued {
		s.st.rqs[t.cpu].totalWeight += t.weight - old
	}
}

// ReregisterPrepare implements core.Scheduler: export a copy of the whole
// state, each queue refilled in its order.
func (s *Sched) ReregisterPrepare() *core.TransferOut {
	st := &state{tasks: core.CloneRecords(s.st.tasks), rqs: newRunqs(len(s.st.rqs)), waiting: s.st.waiting}
	for i := range s.st.rqs {
		rq, c := &s.st.rqs[i], &st.rqs[i]
		c.minV, c.currPicked, c.totalWeight = rq.minV, rq.currPicked, rq.totalWeight
		if rq.curr != nil {
			if c.curr = st.tasks[rq.curr.pid]; c.curr == nil { // it died running
				dead := *rq.curr
				c.curr = &dead
			}
		}
		rq.tree.Ascend(func(n *rbtree.Node[int64, *task]) bool {
			t := st.tasks[n.Value().pid]
			t.node = rbtree.Node[int64, *task]{}
			c.tree.InsertNode(&t.node, n.Key(), t)
			return true
		})
	}
	return &core.TransferOut{State: st}
}

// ReregisterInit implements core.Scheduler: adopt the previous version's
// state capsule.
func (s *Sched) ReregisterInit(in *core.TransferIn) {
	if in == nil || in.State == nil {
		return
	}
	if st, ok := in.State.(*state); ok {
		s.st = st
	}
}

// NRunnable reports the queued count on cpu (tests and ablations).
func (s *Sched) NRunnable(cpu int) int { return s.st.rqs[cpu].tree.Len() }
