// Package locality is the Enoki locality-aware scheduler of §4.2.3 (203
// lines of Rust in the paper): it co-locates tasks that communicate heavily
// or share cache, steered entirely by userspace hints. The application sends
// (task id, locality value) hints through the Enoki hint queue; tasks with
// the same locality value are placed on the same core. Unlike cgroups, hints
// name only the co-location group, never a core, and the scheduler is free
// to ignore a hint when honouring it would overload a core.
//
// Run without hints it degenerates to random placement, which is the
// "Random" baseline in Table 6.
package locality

import (
	"encoding/gob"
	"maps"
	"time"

	"enoki/internal/core"
)

func init() {
	// Hints cross the record/replay log as gob-encoded interface values.
	gob.Register(HintMsg{})
}

// HintMsg is the scheduler's hint type: task PID plus an opaque locality
// value. Applications define what the value means (thread pools, message
// groups, NUMA-sharing sets).
type HintMsg struct {
	PID      int
	Locality int
}

// maxGroupQueue is the queue depth beyond which a locality hint is ignored
// ("which the scheduler can ignore if non-optimal, such as when there are
// too many tasks on a given core").
const maxGroupQueue = 8

type task struct {
	pid    int
	sched  *core.Schedulable
	cpu    int
	queued bool
	// home is the core the task's locality group maps to (-1 if none).
	home int
}

type state struct {
	tasks     map[int]*task
	queues    []core.Deque[*task]
	groupCore map[int]int // locality value → core
	taskGroup map[int]int // pid → locality value
	nextCore  int
	queue     *core.HintQueue
	rev       *core.RevQueue
}

// Sched is the locality-aware Enoki scheduler module.
type Sched struct {
	core.BaseScheduler
	env    core.Env
	policy int
	mu     core.Locker
	st     *state

	// HintsApplied and HintsIgnored count hint outcomes;
	// HintsRedirected counts hints honoured approximately — the group's
	// home core was overloaded, so placement spilled to an LLC sibling,
	// keeping the group cache-adjacent instead of falling back to random.
	HintsApplied    uint64
	HintsIgnored    uint64
	HintsRedirected uint64

	// degraded is the brownout mode (core.BrownoutMode): under overload
	// the module stops scanning LLC siblings for spillover — an
	// overloaded home core goes straight to random fallback, dropping
	// the O(siblings) scan from every placement while queues are deep.
	degraded bool
}

var (
	_ core.Scheduler    = (*Sched)(nil)
	_ core.BrownoutMode = (*Sched)(nil)
)

// New constructs the module.
func New(env core.Env, policy int) *Sched {
	s := &Sched{env: env, policy: policy, mu: env.NewMutex("locality")}
	s.st = &state{
		tasks:     make(map[int]*task),
		queues:    make([]core.Deque[*task], env.NumCPUs()),
		groupCore: make(map[int]int),
		taskGroup: make(map[int]int),
	}
	return s
}

// GetPolicy implements core.Scheduler.
func (s *Sched) GetPolicy() int { return s.policy }

// SetDegraded implements core.BrownoutMode: degraded locality gives up
// LLC-sibling spillover, keeping only the exact-home fast path of the
// hint. Placement quality degrades gracefully (spills land random, as if
// unhinted) and recovers when the overload plane exits brownout.
func (s *Sched) SetDegraded(on bool) {
	s.mu.Lock()
	s.degraded = on
	s.mu.Unlock()
}

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

// placeFor picks the CPU for a task: its locality group's core when one is
// hinted and not overloaded. An overloaded home core spills to the least-
// loaded sibling in its LLC domain — co-location's value is the shared
// cache, so the nearest core that still shares it is the best approximation
// of the hint — and only when the whole domain is saturated does placement
// fall back to random.
func (s *Sched) placeFor(pid, fallback int) int {
	if group, ok := s.st.taskGroup[pid]; ok {
		coreID, ok := s.st.groupCore[group]
		if !ok {
			// First placement of this group: claim the next core
			// round-robin so distinct groups land apart.
			coreID = s.st.nextCore % s.env.NumCPUs()
			s.st.nextCore++
			s.st.groupCore[group] = coreID
		}
		if s.st.queues[coreID].Len() < maxGroupQueue {
			s.HintsApplied++
			return coreID
		}
		if !s.degraded {
			best, bestLen := -1, 0
			for _, sib := range s.env.Topology().Siblings(coreID) {
				if sib == coreID {
					continue
				}
				if n := s.st.queues[sib].Len(); best == -1 || n < bestLen {
					best, bestLen = sib, n
				}
			}
			if best >= 0 && bestLen < maxGroupQueue {
				s.HintsRedirected++
				return best
			}
		}
		s.HintsIgnored++
	}
	return s.env.Rand().Intn(s.env.NumCPUs())
}

// TaskNew implements core.Scheduler.
func (s *Sched) TaskNew(pid int, runtime time.Duration, runnable bool, allowed []int, sched *core.Schedulable) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := &task{pid: pid, home: -1}
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
	if t := s.st.tasks[pid]; t != nil {
		s.push(t, cpu, sched)
	}
}

// TaskBlocked implements core.Scheduler.
func (s *Sched) TaskBlocked(pid int, runtime time.Duration, cpu int) {
	s.mu.Lock()
	defer s.mu.Unlock()
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
		delete(s.st.taskGroup, pid)
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
	delete(s.st.taskGroup, pid)
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

// TaskTick implements core.Scheduler: simple round-robin when peers wait.
func (s *Sched) TaskTick(cpu int, queued bool, currPID int, currRuntime time.Duration) {
	s.mu.Lock()
	waiting := s.st.queues[cpu].Len() > 0
	s.mu.Unlock()
	if waiting {
		s.env.Resched(cpu)
	}
}

// SelectTaskRQ implements core.Scheduler: the hint-driven placement.
func (s *Sched) SelectTaskRQ(pid, prevCPU int, wakeup bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.placeFor(pid, prevCPU)
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

// RegisterQueue implements core.Scheduler.
func (s *Sched) RegisterQueue(q *core.HintQueue) int {
	s.st.queue = q
	return 1
}

// RegisterReverseQueue implements core.Scheduler.
func (s *Sched) RegisterReverseQueue(q *core.RevQueue) int {
	s.st.rev = q
	return 2
}

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

// EnterQueue implements core.Scheduler: drain pending hints.
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

// ParseHint implements core.Scheduler: adopt a co-location hint.
func (s *Sched) ParseHint(hint core.Hint) {
	h, ok := hint.(HintMsg)
	if !ok {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.st.taskGroup[h.PID] = h.Locality
}

// GroupCore exposes the group→core map for tests.
func (s *Sched) GroupCore(group int) (int, bool) {
	c, ok := s.st.groupCore[group]
	return c, ok
}

// ReregisterPrepare implements core.Scheduler: export a copy of the state.
// Hint queues ride along in the capsule, as §3.3 prescribes for same-format
// upgrades.
func (s *Sched) ReregisterPrepare() *core.TransferOut {
	st := *s.st
	st.tasks = core.CloneRecords(s.st.tasks)
	st.queues = core.CloneQueues(s.st.queues, func(t *task) *task { return st.tasks[t.pid] })
	st.groupCore, st.taskGroup = maps.Clone(s.st.groupCore), maps.Clone(s.st.taskGroup)
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
