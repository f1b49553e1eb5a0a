// Package fifo is the minimal Enoki scheduler: a per-core first-come,
// first-serve queue, the example walked through in §3.1 of the paper. It
// exists as the quickstart module and as the simplest possible exercise of
// the EnokiScheduler trait; every line is written against the public
// libEnoki API (internal/core) only.
package fifo

import (
	"time"

	"enoki/internal/core"
)

type entry struct {
	pid   int
	sched *core.Schedulable
}

// Sched is a per-core FIFO Enoki scheduler.
type Sched struct {
	core.BaseScheduler
	env    core.Env
	policy int
	mu     core.Locker
	queues []core.Deque[entry]
}

var _ core.Scheduler = (*Sched)(nil)

// New constructs the module for the given policy number.
func New(env core.Env, policy int) *Sched {
	s := &Sched{
		env:    env,
		policy: policy,
		mu:     env.NewMutex("fifo"),
		queues: make([]core.Deque[entry], env.NumCPUs()),
	}
	return s
}

// GetPolicy implements core.Scheduler.
func (s *Sched) GetPolicy() int { return s.policy }

func (s *Sched) push(cpu int, pid int, sched *core.Schedulable) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queues[cpu].PushBack(entry{pid: pid, sched: sched})
}

// TaskNew implements core.Scheduler: queue the new task at the back of its
// assigned core.
func (s *Sched) TaskNew(pid int, runtime time.Duration, runnable bool, allowed []int, sched *core.Schedulable) {
	if sched != nil {
		s.push(sched.CPU(), pid, sched)
	}
}

// TaskWakeup implements core.Scheduler.
func (s *Sched) TaskWakeup(pid int, runtime time.Duration, deferrable bool, lastCPU, wakeCPU int, sched *core.Schedulable) {
	s.push(wakeCPU, pid, sched)
}

// TaskPreempt implements core.Scheduler.
func (s *Sched) TaskPreempt(pid int, runtime time.Duration, cpu int, preempted bool, sched *core.Schedulable) {
	s.push(cpu, pid, sched)
}

// TaskYield implements core.Scheduler.
func (s *Sched) TaskYield(pid int, runtime time.Duration, cpu int, sched *core.Schedulable) {
	s.push(cpu, pid, sched)
}

// PickNextTask implements core.Scheduler: pop the head of this core's queue
// and return its proof.
func (s *Sched) PickNextTask(cpu int, curr *core.Schedulable, currRuntime time.Duration) *core.Schedulable {
	s.mu.Lock()
	defer s.mu.Unlock()
	head, _ := s.queues[cpu].PopFront()
	return head.sched
}

// SelectTaskRQ implements core.Scheduler: keep tasks where they were; place
// brand-new tasks on the shortest queue.
func (s *Sched) SelectTaskRQ(pid, prevCPU int, wakeup bool) int {
	if wakeup {
		return prevCPU
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	best, bestLen := prevCPU, 1<<30
	for cpu := range s.queues {
		if n := s.queues[cpu].Len(); n < bestLen {
			best, bestLen = cpu, n
		}
	}
	return best
}

// MigrateTaskRQ implements core.Scheduler: move the task's entry to the new
// core and hand back the old proof.
func (s *Sched) MigrateTaskRQ(pid, newCPU int, sched *core.Schedulable) *core.Schedulable {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Not queued (e.g. a wake-time move already covered by task_wakeup)
	// hands back nil; either way the new proof is queued so the task is
	// not lost.
	old := s.take(pid)
	s.queues[newCPU].PushBack(entry{pid: pid, sched: sched})
	return old
}

// take removes pid's entry from whichever queue holds it and returns its
// proof, nil when the task is not queued. Callers hold mu.
func (s *Sched) take(pid int) *core.Schedulable {
	for cpu := range s.queues {
		q := &s.queues[cpu]
		for i := 0; i < q.Len(); i++ {
			if q.At(i).pid == pid {
				return q.RemoveAt(i).sched
			}
		}
	}
	return nil
}

// TaskDeparted implements core.Scheduler.
func (s *Sched) TaskDeparted(pid, cpu int) *core.Schedulable {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.take(pid)
}

// PntErr implements core.Scheduler: take the rejected proof back and requeue
// the task at the head of its core's queue.
func (s *Sched) PntErr(cpu int, pid int, err core.PickError, sched *core.Schedulable) {
	if sched == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.queues[sched.CPU()].PushFront(entry{pid: pid, sched: sched})
}

// ReregisterPrepare implements core.Scheduler: export a copy of the queues.
func (s *Sched) ReregisterPrepare() *core.TransferOut {
	return &core.TransferOut{State: core.CloneQueues(s.queues, func(e entry) entry { return e })}
}

// ReregisterInit implements core.Scheduler: adopt the previous version's
// queues.
func (s *Sched) ReregisterInit(in *core.TransferIn) {
	if in == nil || in.State == nil {
		return
	}
	if qs, ok := in.State.([]core.Deque[entry]); ok && len(qs) == len(s.queues) {
		s.queues = qs
	}
}

// QueueLen reports the queue depth on cpu (for tests and examples).
func (s *Sched) QueueLen(cpu int) int { return s.queues[cpu].Len() }
