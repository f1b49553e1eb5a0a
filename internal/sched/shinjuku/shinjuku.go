// Package shinjuku is the Enoki version of the Shinjuku scheduler (§4.2.2):
// centralized first-come-first-serve with µs-scale preemption, built for
// workloads that mix short high-priority requests with long low-priority
// ones. The original runs on Dune with a 5 µs quantum; the Enoki port (285
// lines of Rust in the paper) approximates the single FCFS queue across the
// kernel's per-CPU run queues and uses a 10 µs preemption timer "to prevent
// overloading the scheduler".
package shinjuku

import (
	"slices"
	"time"

	"enoki/internal/core"
)

// DefaultSlice is the Enoki Shinjuku preemption quantum.
const DefaultSlice = 10 * time.Microsecond

type task struct {
	pid     int
	seq     uint64 // global FCFS arrival order
	sched   *core.Schedulable
	cpu     int
	queued  bool
	allowed []bool
}

func (t *task) allows(cpu int) bool { return t.allowed == nil || t.allowed[cpu] }

type state struct {
	tasks   map[int]*task
	queues  []core.Deque[*task] // per-CPU, ascending seq
	busy    []int               // per-CPU running pid (0 = idle)
	nextSeq uint64
}

// Sched is the Enoki Shinjuku scheduler module.
type Sched struct {
	core.BaseScheduler
	env    core.Env
	policy int
	slice  time.Duration
	mu     core.Locker
	st     *state

	// free holds dead tasks' records for TaskNew to reuse. It stays with
	// this module instance: state travels with a live upgrade, the free
	// list does not.
	free []*task

	// degraded is the brownout mode (core.BrownoutMode): under overload
	// the module gives up its tight preemption slice and runs everything
	// at the long uncontended quantum, shedding the timer/preemption
	// churn that amplifies queueing right when capacity matters most.
	degraded bool

	// Preemptions counts timer-driven requeues (tests/ablations).
	Preemptions uint64
}

var (
	_ core.Scheduler    = (*Sched)(nil)
	_ core.BrownoutMode = (*Sched)(nil)
)

// New constructs the module with the given preemption slice (0 means
// DefaultSlice).
func New(env core.Env, policy int, slice time.Duration) *Sched {
	if slice <= 0 {
		slice = DefaultSlice
	}
	s := &Sched{env: env, policy: policy, slice: slice, mu: env.NewMutex("shinjuku")}
	s.st = &state{
		tasks:  make(map[int]*task),
		queues: make([]core.Deque[*task], env.NumCPUs()),
		busy:   make([]int, env.NumCPUs()),
	}
	return s
}

// GetPolicy implements core.Scheduler.
func (s *Sched) GetPolicy() int { return s.policy }

// SetDegraded implements core.BrownoutMode: degraded shinjuku stops
// arming the tight quantum (tightSlice returns the long one), trading
// tail-optimal preemption for lower scheduling overhead until the
// overload plane samples the queues back under the exit threshold.
func (s *Sched) SetDegraded(on bool) {
	s.mu.Lock()
	s.degraded = on
	s.mu.Unlock()
}

// tightSlice is the quantum used when another task is waiting. Callers
// hold mu.
func (s *Sched) tightSlice() time.Duration {
	if s.degraded {
		return time.Millisecond
	}
	return s.slice
}

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

// push appends t at the global FCFS tail of cpu's queue.
func (s *Sched) push(t *task, cpu int, sched *core.Schedulable) {
	t.seq = s.st.nextSeq
	s.st.nextSeq++
	t.cpu = cpu
	t.queued = true
	t.sched = sched
	s.st.queues[cpu].PushBack(t)
}

func (s *Sched) remove(t *task) {
	s.st.queues[t.cpu].Remove(t)
	t.queued = false
}

// shortestQueue returns the allowed CPU with the fewest waiting tasks,
// preferring the fallback (previous) CPU on ties for cache warmth.
func (s *Sched) shortestQueue(t *task, fallback int) int {
	best, bestLen := -1, 1<<30
	if fallback >= 0 && fallback < len(s.st.queues) && (t == nil || t.allows(fallback)) {
		best, bestLen = fallback, s.st.queues[fallback].Len()
	}
	for cpu := range s.st.queues {
		if t != nil && !t.allows(cpu) {
			continue
		}
		if n := s.st.queues[cpu].Len(); n < bestLen {
			best, bestLen = cpu, n
		}
	}
	return best
}

// TaskNew implements core.Scheduler.
func (s *Sched) TaskNew(pid int, runtime time.Duration, runnable bool, allowed []int, sched *core.Schedulable) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var t *task
	if n := len(s.free); n > 0 {
		t, s.free = s.free[n-1], s.free[:n-1]
	} else {
		t = new(task)
	}
	*t = task{pid: pid, allowed: allowedSet(allowed, s.env.NumCPUs())}
	s.st.tasks[pid] = t
	if runnable && sched != nil {
		s.push(t, sched.CPU(), sched)
	}
}

// TaskWakeup implements core.Scheduler: join the FCFS tail; preempt the
// wake CPU only if it has been running its task beyond the slice (the timer
// normally handles that).
func (s *Sched) TaskWakeup(pid int, runtime time.Duration, deferrable bool, lastCPU, wakeCPU int, sched *core.Schedulable) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.st.tasks[pid]
	if t == nil {
		return
	}
	s.push(t, wakeCPU, sched)
	if s.st.busy[wakeCPU] != 0 {
		// Someone is running here: slice them at the tight quantum.
		s.env.ArmTimer(wakeCPU, s.tightSlice())
	}
}

// TaskPreempt implements core.Scheduler: back of the queue, new arrival
// order — this is what bounds long requests to slice-sized chunks.
func (s *Sched) TaskPreempt(pid int, runtime time.Duration, cpu int, preempted bool, sched *core.Schedulable) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.st.tasks[pid]
	if t == nil {
		return
	}
	if s.st.busy[cpu] == pid {
		s.st.busy[cpu] = 0
	}
	s.Preemptions++
	s.push(t, cpu, sched)
}

// TaskYield implements core.Scheduler.
func (s *Sched) TaskYield(pid int, runtime time.Duration, cpu int, sched *core.Schedulable) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.st.tasks[pid]
	if t == nil {
		return
	}
	if s.st.busy[cpu] == pid {
		s.st.busy[cpu] = 0
	}
	s.push(t, cpu, sched)
}

// TaskBlocked implements core.Scheduler.
func (s *Sched) TaskBlocked(pid int, runtime time.Duration, cpu int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.st.busy[cpu] == pid {
		s.st.busy[cpu] = 0
	}
	if t := s.st.tasks[pid]; t != nil {
		t.sched = nil
	}
}

// TaskDead implements core.Scheduler.
func (s *Sched) TaskDead(pid int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t := s.st.tasks[pid]; t != nil {
		if t.queued {
			s.remove(t)
		}
		delete(s.st.tasks, pid)
		s.free = append(s.free, t)
	}
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
		s.remove(t)
	}
	delete(s.st.tasks, pid)
	tok := t.sched
	t.sched = nil
	return tok
}

// TaskAffinityChanged implements core.Scheduler.
func (s *Sched) TaskAffinityChanged(pid int, allowed []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t := s.st.tasks[pid]; t != nil {
		t.allowed = allowedSet(allowed, s.env.NumCPUs())
	}
}

// PickNextTask implements core.Scheduler: run the oldest local arrival and
// arm the preemption timer. Arming on every operation is the cost the paper
// calls out in Table 3.
func (s *Sched) PickNextTask(cpu int, curr *core.Schedulable, currRuntime time.Duration) *core.Schedulable {
	s.mu.Lock()
	t, ok := s.st.queues[cpu].PopFront()
	if !ok {
		s.mu.Unlock()
		return nil
	}
	t.queued = false
	s.st.busy[cpu] = t.pid
	tok := t.sched
	t.sched = nil
	// Arm the reschedule timer on every pick (the per-operation cost
	// Table 3 attributes to this scheduler). The quantum is tight only
	// when another task is waiting here; uncontended tasks get a long
	// one "to prevent overloading the scheduler" (§4.2.2) — a wakeup
	// landing behind a running task re-arms the tight quantum below.
	slice := s.tightSlice()
	if s.st.queues[cpu].Len() == 0 {
		slice = time.Millisecond
	}
	s.mu.Unlock()
	s.env.ArmTimer(cpu, slice)
	return tok
}

// PntErr implements core.Scheduler.
func (s *Sched) PntErr(cpu int, pid int, err core.PickError, sched *core.Schedulable) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.st.tasks[pid]
	if t == nil || sched == nil {
		return
	}
	if !t.queued {
		s.push(t, sched.CPU(), sched)
	}
}

// SelectTaskRQ implements core.Scheduler: shortest allowed queue, the
// centralized-dispatch approximation.
func (s *Sched) SelectTaskRQ(pid, prevCPU int, wakeup bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shortestQueue(s.st.tasks[pid], prevCPU)
}

// Balance implements core.Scheduler: when this CPU is empty, pull the
// globally oldest waiting task — this is what makes the per-CPU queues
// behave like one FCFS queue.
func (s *Sched) Balance(cpu int) (uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.st.queues[cpu].Len() > 0 {
		return 0, false
	}
	var oldest *task
	for qcpu := range s.st.queues {
		q := &s.st.queues[qcpu]
		if qcpu == cpu || q.Len() == 0 {
			continue
		}
		// A single task queued on an idle core is about to run there;
		// pulling it would just move the wakeup.
		if q.Len() < 2 && s.st.busy[qcpu] == 0 {
			continue
		}
		head := q.At(0)
		if !head.allows(cpu) {
			continue
		}
		if oldest == nil || head.seq < oldest.seq {
			oldest = head
		}
	}
	if oldest == nil {
		return 0, false
	}
	return uint64(oldest.pid), true
}

// MigrateTaskRQ implements core.Scheduler: keep the arrival order, change
// the queue.
func (s *Sched) MigrateTaskRQ(pid, newCPU int, sched *core.Schedulable) *core.Schedulable {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.st.tasks[pid]
	if t == nil {
		return nil
	}
	old := t.sched
	if t.queued {
		s.remove(t)
	}
	// Preserve seq: insert in order on the new queue.
	t.cpu = newCPU
	t.queued = true
	t.sched = sched
	q := &s.st.queues[newCPU]
	pos := 0
	for pos < q.Len() && q.At(pos).seq <= t.seq {
		pos++
	}
	q.Insert(pos, t)
	if s.st.busy[newCPU] != 0 {
		s.env.ArmTimer(newCPU, s.tightSlice())
	}
	return old
}

// ReregisterPrepare implements core.Scheduler: export a copy of the state.
func (s *Sched) ReregisterPrepare() *core.TransferOut {
	st := *s.st
	st.tasks = core.CloneRecords(s.st.tasks)
	st.queues = core.CloneQueues(s.st.queues, func(t *task) *task { return st.tasks[t.pid] })
	st.busy = slices.Clone(s.st.busy)
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
