// Package nest is an extension scheduler inspired by Nest (Lawall et al.,
// EuroSys '22), which the paper's §2 cites as motivation: "improves energy
// efficiency for jobs with fewer tasks than cores by reusing warm cores
// rather than spreading tasks across many cold cores".
//
// It is not part of the paper's evaluation; it exists to demonstrate the
// paper's thesis — that new research schedulers are quick to build on the
// framework. The policy: keep a small "nest" of warm cores and place
// wakeups there, expanding the nest only when it is saturated and shrinking
// it when cores go unused. On this substrate the win is directly
// measurable as consolidation: a light load runs on one or two cores and
// leaves the rest in deep C-states (the energy proxy), at latency
// comparable to CFS's spread placement.
package nest

import (
	"slices"
	"time"

	"enoki/internal/core"
)

// Tuning knobs.
const (
	// shrinkAfter is how many consecutive placement decisions that find
	// a nest core completely idle before it is demoted back to cold.
	shrinkAfter = 512
	// expandAt is the per-core occupancy (running + queued) that
	// triggers nest growth; tolerating one waiter is the policy's
	// compactness bias.
	expandAt = 2
)

type task struct {
	pid    int
	sched  *core.Schedulable
	cpu    int
	queued bool
}

type state struct {
	tasks  map[int]*task
	queues []core.Deque[*task]
	// running tracks the pid current on each core (module view).
	running []int
	// inNest marks the warm set; idleTicks counts demotion pressure.
	inNest    []bool
	idleTicks []int
	nestSize  int
}

// Sched is the Nest-style Enoki scheduler module.
type Sched struct {
	core.BaseScheduler
	env    core.Env
	policy int
	mu     core.Locker
	st     *state

	// Expansions and Shrinks count nest resizing decisions.
	Expansions uint64
	Shrinks    uint64
}

var _ core.Scheduler = (*Sched)(nil)

// New constructs the module with a one-core initial nest.
func New(env core.Env, policy int) *Sched {
	s := &Sched{env: env, policy: policy, mu: env.NewMutex("nest")}
	s.st = &state{
		tasks:     make(map[int]*task),
		queues:    make([]core.Deque[*task], env.NumCPUs()),
		running:   make([]int, env.NumCPUs()),
		inNest:    make([]bool, env.NumCPUs()),
		idleTicks: make([]int, env.NumCPUs()),
	}
	s.st.inNest[0] = true
	s.st.nestSize = 1
	return s
}

// GetPolicy implements core.Scheduler.
func (s *Sched) GetPolicy() int { return s.policy }

func (s *Sched) push(t *task, cpu int, sched *core.Schedulable) {
	t.cpu = cpu
	t.queued = true
	t.sched = sched
	s.st.queues[cpu].PushBack(t)
}

func (s *Sched) remove(t *task) {
	s.st.queues[t.cpu].Remove(t)
	t.queued = false
}

// place picks the emptiest nest core; when every nest core is saturated
// (running plus a waiter), the nest expands by promoting a cold core. Each
// placement decision also ages fully idle nest cores; cores that stay idle
// long enough demote back to cold.
func (s *Sched) place() int {
	best, bestLen := -1, 1<<30
	for cpu, in := range s.st.inNest {
		if !in {
			continue
		}
		n := s.st.queues[cpu].Len()
		if s.st.running[cpu] != 0 {
			n++
		}
		if n == 0 && s.st.nestSize > 1 {
			s.st.idleTicks[cpu]++
			if s.st.idleTicks[cpu] >= shrinkAfter {
				s.st.inNest[cpu] = false
				s.st.idleTicks[cpu] = 0
				s.st.nestSize--
				s.Shrinks++
				continue
			}
		} else {
			s.st.idleTicks[cpu] = 0
		}
		if n < bestLen {
			best, bestLen = cpu, n
		}
	}
	if best >= 0 && bestLen < expandAt {
		return best
	}
	// Saturated: expand the nest.
	for cpu, in := range s.st.inNest {
		if !in {
			s.st.inNest[cpu] = true
			s.st.idleTicks[cpu] = 0
			s.st.nestSize++
			s.Expansions++
			return cpu
		}
	}
	return best // whole machine is the nest
}

// NestSize reports the current warm-set size (tests/demos).
func (s *Sched) NestSize() int { return s.st.nestSize }

// TaskNew implements core.Scheduler.
func (s *Sched) TaskNew(pid int, runtime time.Duration, runnable bool, allowed []int, sched *core.Schedulable) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := &task{pid: pid}
	s.st.tasks[pid] = t
	if runnable && sched != nil {
		s.push(t, sched.CPU(), sched)
	}
}

// TaskWakeup implements core.Scheduler.
func (s *Sched) TaskWakeup(pid int, runtime time.Duration, deferrable bool, lastCPU, wakeCPU int, sched *core.Schedulable) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t := s.st.tasks[pid]; t != nil {
		s.push(t, wakeCPU, sched)
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
	if s.st.running[cpu] == pid {
		s.st.running[cpu] = 0
	}
	if t := s.st.tasks[pid]; t != nil {
		s.push(t, cpu, sched)
	}
}

// TaskBlocked implements core.Scheduler.
func (s *Sched) TaskBlocked(pid int, runtime time.Duration, cpu int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.st.running[cpu] == pid {
		s.st.running[cpu] = 0
	}
	if t := s.st.tasks[pid]; t != nil {
		t.sched = nil
	}
}

// TaskDead implements core.Scheduler.
func (s *Sched) TaskDead(pid int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.clearRunning(pid)
	if t := s.st.tasks[pid]; t != nil {
		if t.queued {
			s.remove(t)
		}
		delete(s.st.tasks, pid)
	}
}

// clearRunning drops a stale running marker for pid.
func (s *Sched) clearRunning(pid int) {
	for c, r := range s.st.running {
		if r == pid {
			s.st.running[c] = 0
		}
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
	s.clearRunning(pid)
	if t.queued {
		s.remove(t)
	}
	delete(s.st.tasks, pid)
	tok := t.sched
	t.sched = nil
	return tok
}

// PickNextTask implements core.Scheduler: FIFO per core.
func (s *Sched) PickNextTask(cpu int, curr *core.Schedulable, currRuntime time.Duration) *core.Schedulable {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.st.queues[cpu].PopFront()
	if !ok {
		return nil
	}
	t.queued = false
	tok := t.sched
	t.sched = nil
	s.st.running[cpu] = t.pid
	s.st.idleTicks[cpu] = 0
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

// TaskTick implements core.Scheduler: round-robin when peers wait.
func (s *Sched) TaskTick(cpu int, queued bool, currPID int, currRuntime time.Duration) {
	s.mu.Lock()
	resched := s.st.queues[cpu].Len() > 0
	s.mu.Unlock()
	if resched {
		s.env.Resched(cpu)
	}
}

// SelectTaskRQ implements core.Scheduler: always into the nest.
func (s *Sched) SelectTaskRQ(pid, prevCPU int, wakeup bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c := s.place(); c >= 0 {
		return c
	}
	return prevCPU
}

// MigrateTaskRQ implements core.Scheduler.
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
	s.push(t, newCPU, sched)
	return old
}

// ReregisterPrepare implements core.Scheduler: export a copy of the state.
func (s *Sched) ReregisterPrepare() *core.TransferOut {
	st := *s.st
	st.tasks = core.CloneRecords(s.st.tasks)
	st.queues = core.CloneQueues(s.st.queues, func(t *task) *task { return st.tasks[t.pid] })
	st.running, st.inNest, st.idleTicks = slices.Clone(st.running), slices.Clone(st.inNest), slices.Clone(st.idleTicks)
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
