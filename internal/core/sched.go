// Package core is the Go analogue of libEnoki: the library that is "compiled
// with the scheduler code into a module". It defines the EnokiScheduler
// trait (Table 1 of the paper) as the Scheduler interface, the Schedulable
// proof-of-runnability token, the message structures that cross the
// framework boundary, the bidirectional user/kernel hint queues, the lock
// shims whose acquisition order the record system logs, and the state-
// transfer capsules live upgrade passes between module versions.
//
// Scheduler modules import only this package (plus the standard library);
// internal/enokic drives them inside the simulated kernel, and
// internal/replay drives the exact same code at userspace from a record log.
package core

import "time"

// PickError explains why a pick_next_task return value was rejected; it is
// delivered to the scheduler through PntErr so the module can recover the
// task (§3.1).
type PickError int

// Pick rejection causes.
const (
	// PickWrongCPU: the token's CPU does not match the CPU being picked
	// for. Running the task there would corrupt kernel state; this is
	// the crash the Schedulable type exists to prevent.
	PickWrongCPU PickError = iota + 1
	// PickStale: the token's generation is not current (the scheduler
	// held onto proof it had already returned).
	PickStale
	// PickNotQueued: the task is not runnable on this run queue at all.
	PickNotQueued
	// PickConsumed: the exact token object was already spent.
	PickConsumed
)

func (e PickError) String() string {
	switch e {
	case PickWrongCPU:
		return "wrong-cpu"
	case PickStale:
		return "stale-schedulable"
	case PickNotQueued:
		return "not-queued"
	case PickConsumed:
		return "consumed-schedulable"
	default:
		return "unknown"
	}
}

// Error makes each cause constant an errors.Is-able sentinel: code holding a
// wrapped pick failure can test it with errors.Is(err, core.PickWrongCPU)
// instead of unwrapping to the concrete type. PickError is a comparable
// value type, so errors.Is needs no Is method.
func (e PickError) Error() string { return "enoki: pick rejected: " + e.String() }

// TransferOut is the state capsule an outgoing module exports from
// reregister_prepare during live upgrade (§3.2). State is completely custom;
// the only contract is that the incoming module understands it.
type TransferOut struct {
	State any
}

// TransferIn delivers the previous module's capsule to reregister_init.
type TransferIn struct {
	State any
}

// CloneRecords copies a module's pid-indexed table of task records for a
// ReregisterPrepare capsule, each record shallowly: slices in it are shared.
func CloneRecords[R any](tab map[int]*R) map[int]*R {
	recs := make([]R, 0, len(tab))
	c := make(map[int]*R, len(tab))
	for pid, r := range tab {
		recs = append(recs, *r)
		c[pid] = &recs[len(recs)-1]
	}
	return c
}

// Hint is a userspace-to-kernel scheduling hint (§3.3). Schedulers define
// their own concrete types; record/replay serialises them with encoding/gob,
// so workload hint types must be gob-registered.
type Hint any

// RevMessage is a kernel-to-userspace message on a reverse queue (§3.3).
type RevMessage any

// Scheduler is the EnokiScheduler trait (Table 1): the API a scheduler
// module must implement to be loadable. Most functions manage task state in
// response to kernel events; the reregister pair handles live upgrade; the
// queue functions and ParseHint handle user communication.
//
// A scheduler is only expected to manage its own state in response to these
// calls: the kernel's core scheduling code decides when each is invoked, and
// Enoki-C (internal/enokic) owns all kernel state. Runtime values are
// tracked by the framework and passed in, so a correct module needs no
// timing source of its own — which is what makes record/replay exact.
type Scheduler interface {
	// GetPolicy returns the policy number the module registers under.
	GetPolicy() int

	// PickNextTask picks the task cpu should run, returning its
	// Schedulable as proof, or nil to leave the CPU to lower classes.
	// curr is the Schedulable of the task currently on the CPU, if any;
	// currRuntime is that task's total runtime.
	PickNextTask(cpu int, curr *Schedulable, currRuntime time.Duration) *Schedulable

	// PntErr reports that the chosen task could not be scheduled; sched
	// returns ownership of the rejected token.
	PntErr(cpu int, pid int, err PickError, sched *Schedulable)

	// TaskDead reports that a task died.
	TaskDead(pid int)

	// TaskBlocked reports that a task blocked on cpu with the given
	// total runtime.
	TaskBlocked(pid int, runtime time.Duration, cpu int)

	// TaskWakeup reports a wakeup: the task last ran on lastCPU and was
	// enqueued on wakeCPU; sched is the fresh proof for wakeCPU.
	// deferrable distinguishes interruptible sleeps.
	TaskWakeup(pid int, runtime time.Duration, deferrable bool, lastCPU, wakeCPU int, sched *Schedulable)

	// TaskNew reports a new task joining the scheduler with its proof;
	// allowed is the task's CPU affinity list (nil means all CPUs).
	TaskNew(pid int, runtime time.Duration, runnable bool, allowed []int, sched *Schedulable)

	// TaskPreempt reports that the task was descheduled on cpu and is
	// runnable again there; sched is fresh proof. preempted is true for
	// an involuntary preemption (a higher-priority class or resched took
	// the CPU) and false when the framework requeued the task for its own
	// reasons (affinity or policy moves), letting latency-sensitive
	// policies boost genuinely preempted tasks.
	TaskPreempt(pid int, runtime time.Duration, cpu int, preempted bool, sched *Schedulable)

	// TaskYield reports a voluntary yield; sched is fresh proof.
	TaskYield(pid int, runtime time.Duration, cpu int, sched *Schedulable)

	// TaskDeparted reports the task is leaving this scheduler (e.g.
	// sched_setscheduler away); the module returns the task's token.
	TaskDeparted(pid, cpu int) *Schedulable

	// TaskAffinityChanged reports a new allowed-CPU list for the task.
	TaskAffinityChanged(pid int, allowed []int)

	// TaskPrioChanged reports a priority (nice) change.
	TaskPrioChanged(pid, prio int)

	// TaskTick runs on every scheduler tick on cpu while one of the
	// module's tasks is current; currPID/currRuntime describe that task
	// (the framework tracks runtime on the module's behalf, §3.1).
	TaskTick(cpu int, queued bool, currPID int, currRuntime time.Duration)

	// SelectTaskRQ chooses the CPU for a waking or newly attached task.
	SelectTaskRQ(pid, prevCPU int, wakeup bool) int

	// MigrateTaskRQ reports the kernel moved the task to newCPU; sched
	// is the proof for the new CPU and the module must return the old
	// token so it holds proof for exactly one CPU.
	MigrateTaskRQ(pid, newCPU int, sched *Schedulable) *Schedulable

	// Balance asks the module for the pid of a task it wants migrated to
	// cpu; ok=false means no rebalancing is needed.
	Balance(cpu int) (pid uint64, ok bool)

	// BalanceErr reports the chosen task could not be moved; sched, when
	// non-nil, returns ownership of the task's token.
	BalanceErr(cpu int, pid uint64, sched *Schedulable)

	// ReregisterPrepare quiesces the module for live upgrade and exports
	// the state capsule handed to the next version. The capsule must share
	// nothing its successor could change with the module's own state: if
	// the swap rolls back, this module keeps serving from that state and
	// receives the deferred backlog the successor may have half applied.
	ReregisterPrepare() *TransferOut

	// ReregisterInit initialises the module from the previous version's
	// capsule (nil on first load).
	ReregisterInit(in *TransferIn)

	// RegisterQueue attaches a user-to-kernel hint queue; the module
	// returns the queue id it will be addressed by.
	RegisterQueue(q *HintQueue) int

	// RegisterReverseQueue attaches a kernel-to-user queue and returns
	// its id.
	RegisterReverseQueue(q *RevQueue) int

	// EnterQueue tells the module count hints await it on queue id.
	EnterQueue(id, count int)

	// UnregisterQueue detaches and returns the hint queue.
	UnregisterQueue(id int) *HintQueue

	// UnregisterRevQueue detaches and returns the reverse queue.
	UnregisterRevQueue(id int) *RevQueue

	// ParseHint synchronously processes a single hint.
	ParseHint(hint Hint)
}

// BaseScheduler provides default no-op implementations for the optional
// parts of the trait, mirroring Rust trait default methods: embed it and
// implement only what the policy needs.
type BaseScheduler struct{}

// PntErr implements Scheduler.
func (BaseScheduler) PntErr(cpu int, pid int, err PickError, sched *Schedulable) {}

// TaskDead implements Scheduler.
func (BaseScheduler) TaskDead(pid int) {}

// TaskBlocked implements Scheduler.
func (BaseScheduler) TaskBlocked(pid int, runtime time.Duration, cpu int) {}

// TaskAffinityChanged implements Scheduler.
func (BaseScheduler) TaskAffinityChanged(pid int, allowed []int) {}

// TaskPrioChanged implements Scheduler.
func (BaseScheduler) TaskPrioChanged(pid, prio int) {}

// TaskTick implements Scheduler.
func (BaseScheduler) TaskTick(cpu int, queued bool, currPID int, currRuntime time.Duration) {}

// Balance implements Scheduler: no rebalancing.
func (BaseScheduler) Balance(cpu int) (uint64, bool) { return 0, false }

// BalanceErr implements Scheduler.
func (BaseScheduler) BalanceErr(cpu int, pid uint64, sched *Schedulable) {}

// ReregisterPrepare implements Scheduler: no state to transfer.
func (BaseScheduler) ReregisterPrepare() *TransferOut { return &TransferOut{} }

// ReregisterInit implements Scheduler.
func (BaseScheduler) ReregisterInit(in *TransferIn) {}

// RegisterQueue implements Scheduler: queues unsupported by default.
func (BaseScheduler) RegisterQueue(q *HintQueue) int { return -1 }

// RegisterReverseQueue implements Scheduler.
func (BaseScheduler) RegisterReverseQueue(q *RevQueue) int { return -1 }

// EnterQueue implements Scheduler.
func (BaseScheduler) EnterQueue(id, count int) {}

// UnregisterQueue implements Scheduler.
func (BaseScheduler) UnregisterQueue(id int) *HintQueue { return nil }

// UnregisterRevQueue implements Scheduler.
func (BaseScheduler) UnregisterRevQueue(id int) *RevQueue { return nil }

// ParseHint implements Scheduler.
func (BaseScheduler) ParseHint(hint Hint) {}
