package kernel

import (
	"fmt"
	"math/bits"
	"time"

	"enoki/internal/ktime"
	"enoki/internal/sim"
)

// State is a task's lifecycle state, mirroring the subset of Linux task
// states the scheduler cares about.
type State uint8

// Task states.
const (
	StateNew State = iota
	StateRunnable
	StateRunning
	StateBlocked
	StateDead
)

func (s State) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateRunnable:
		return "runnable"
	case StateRunning:
		return "running"
	case StateBlocked:
		return "blocked"
	case StateDead:
		return "dead"
	default:
		return "invalid"
	}
}

// Op is what a task does when its current compute segment finishes.
type Op uint8

// Segment-completion operations.
const (
	// OpContinue fetches the next action immediately (the task keeps the
	// CPU unless a reschedule is pending).
	OpContinue Op = iota
	// OpBlock parks the task until Kernel.Wake.
	OpBlock
	// OpSleep parks the task for Action.SleepFor, then self-wakes.
	OpSleep
	// OpYield calls sched_yield: the task stays runnable but offers the
	// CPU.
	OpYield
	// OpExit terminates the task.
	OpExit
	// OpPoll is OpContinue for a busy-poll: Run is a string of polls on the
	// grid of the task's Behavior, which must be a Poller (poll.go).
	OpPoll
)

// Action is one step of a task's behaviour: compute for Run, then wake the
// listed tasks, then apply Op. Zero Run is allowed (pure wake/block steps).
type Action struct {
	Run      time.Duration
	Op       Op
	SleepFor time.Duration // used by OpSleep
	Wake     []*Task       // woken after Run completes, before Op applies
	// Recheck, when set on an OpBlock action, is evaluated at the moment
	// the kernel is about to park the task; returning true cancels the
	// block and the task continues with its next action instead. This is
	// futex_wait semantics: "sleep unless the world changed since I
	// decided to", and it is how workloads avoid lost wakeups that race
	// with an in-flight block decision.
	Recheck func() bool
}

// Behavior generates a task's next action each time the kernel asks. It is
// the workload model: pipe ping-pong, schbench trees, request servers, batch
// loops are all Behaviors.
type Behavior interface {
	Next(k *Kernel, t *Task) Action
}

// Exiter is an optional Behavior method, asserted once at Spawn: a workload
// whose per-task record is the Behavior learns of the task's death through
// it and needs neither a BehaviorFunc nor a WithExitObserver closure. It
// runs where an OnExit observer would, after it when both are set.
type Exiter interface {
	Exited(t *Task)
}

// BehaviorFunc adapts a function to the Behavior interface.
type BehaviorFunc func(k *Kernel, t *Task) Action

// Next calls f.
func (f BehaviorFunc) Next(k *Kernel, t *Task) Action { return f(k, t) }

// maskWords sizes CPUMask for the largest supported machine: the 1,000-CPU
// cluster-sim topology (16 × 64 = 1024 bits).
const maskWords = 16

// CPUMask is a set of allowed CPUs, wide enough for the 1,000-CPU
// cluster-sim machine.
type CPUMask struct {
	bits [maskWords]uint64
}

// AllCPUs returns a mask allowing CPUs [0, n).
func AllCPUs(n int) CPUMask {
	var m CPUMask
	for w := 0; w < n>>6; w++ {
		m.bits[w] = ^uint64(0)
	}
	if r := n & 63; r != 0 {
		m.bits[n>>6] = 1<<uint(r) - 1
	}
	return m
}

// SingleCPU returns a mask allowing only cpu.
func SingleCPU(cpu int) CPUMask {
	var m CPUMask
	m.Set(cpu)
	return m
}

// Set adds cpu to the mask.
func (m *CPUMask) Set(cpu int) { m.bits[cpu>>6] |= 1 << uint(cpu&63) }

// Clear removes cpu from the mask.
func (m *CPUMask) Clear(cpu int) { m.bits[cpu>>6] &^= 1 << uint(cpu&63) }

// Has reports whether cpu is allowed.
func (m CPUMask) Has(cpu int) bool { return m.has(cpu) }

// has is the pointer-receiver twin of Has for the kernel's own hot loops:
// calling the value-receiver method copies the whole 128-byte mask per call,
// which the placement scans would pay once per candidate CPU.
func (m *CPUMask) has(cpu int) bool {
	if cpu < 0 || cpu >= maskWords*64 {
		return false
	}
	return m.bits[cpu>>6]&(1<<uint(cpu&63)) != 0
}

// next returns the lowest CPU in the mask at or above cpu (cpu >= 0), or -1
// when there is none. Empty words are skipped whole.
func (m *CPUMask) next(cpu int) int {
	w := cpu >> 6
	if w >= maskWords {
		return -1
	}
	for b := m.bits[w] &^ (1<<uint(cpu&63) - 1); ; b = m.bits[w] {
		if b != 0 {
			return w<<6 | bits.TrailingZeros64(b)
		}
		if w++; w == maskWords {
			return -1
		}
	}
}

// List returns the allowed CPUs in ascending order.
func (m CPUMask) List() []int {
	return m.AppendTo(make([]int, 0, m.Count()))
}

// AppendTo appends the allowed CPUs in ascending order to dst and returns
// the extended slice. It allocates only when dst lacks capacity, which lets
// hot paths reuse one backing array across calls. Cost scales with the set
// bits, not the mask width: empty words are skipped whole.
func (m CPUMask) AppendTo(dst []int) []int {
	for i, w := range m.bits {
		base := i << 6
		for ; w != 0; w &= w - 1 {
			dst = append(dst, base+bits.TrailingZeros64(w))
		}
	}
	return dst
}

// Count returns the number of allowed CPUs.
func (m CPUMask) Count() int {
	n := 0
	for _, w := range m.bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// Task is the simulated task_struct. Fields are mutated only by the kernel
// (single-threaded over virtual time); workloads read public accessors.
//
// Like task_struct it is one record (DESIGN §4): the segment-completion
// event, the CFS entity and its run-queue node are embedded, and the task is
// its own event handler (taskRun, taskWake), so a task costs one allocation.
// A *Task Spawn returned stays that task, dead or alive; the record of a
// SpawnTransient task, which returns none, is reused once its exit hooks
// have run (DESIGN §4 has the contract). Fields run hot first — what every
// completion, wake and pick reads leads, roughly in the order the event path
// touches it.
type Task struct {
	// runEvent is the task's persistent segment-completion event, bound to
	// the task (taskRun) at Spawn and re-armed in place for every segment.
	runEvent sim.Event

	k     *Kernel
	cpu   int // cpu whose run queue holds (or last held) the task
	class Class
	state State
	// pending is an inline action slot, valid only while hasPending is set;
	// storing the Action by value keeps the segment hot path free of the
	// per-segment box the old *Action field required.
	hasPending  bool
	wakePending bool
	// transient marks a SpawnTransient task; wakesOut counts the OpSleep
	// self-wakes posted at the record and yet to fire, which a record put up
	// for reuse must have none of.
	transient bool
	wakesOut  uint32
	segLeft   time.Duration
	sumExec   time.Duration
	execStart ktime.Time // start of the currently running stretch
	pending   Action
	behavior  Behavior
	lastWake  ktime.Time
	// queuedAt is when the task last became queued-waiting (enqueue, yield,
	// put-prev); the metrics layer derives pick-wait latency from it.
	queuedAt ktime.Time

	// cfs is the task's CFS entity, live while a CFS class owns the task.
	// The fields above place its run-queue node at the start of a cache
	// line, so a tree walk reads one line per task passed (TestTaskLayout).
	cfs cfsEntity

	// allowed is never nil: the kernel's shared all-CPUs mask until the task
	// is given an affinity of its own, so unpinned tasks carry no mask.
	allowed *CPUMask

	// classData is private per-class state for classes whose entity is not
	// embedded above (RT, the verified tier, enokic's adapter).
	classData any

	pid    int
	name   string
	nice   int
	exiter Exiter // behavior's Exited hook, when it has one

	// OnWake, if set, observes each wakeup-to-running latency.
	OnWake func(lat time.Duration)
	// OnExit, if set, runs when the task dies.
	OnExit func()

	// UserData is free space for workload models.
	UserData any
}

// taskRun and taskWake are a *Task seen as the sim.Handler of one of its two
// timers: the embedded segment-completion event, and the fire-and-forget
// self-wake an OpSleep posts. A sleep cut short and followed by another
// leaves two wakes outstanding; both fire, and Wake ignores the one that
// finds the task not blocked.
type (
	taskRun  Task
	taskWake Task
)

// Fire completes the task's current compute segment.
func (h *taskRun) Fire() {
	t := (*Task)(h)
	t.k.segmentDone(&t.k.cpus[t.cpu], t)
}

// Fire ends an OpSleep.
func (h *taskWake) Fire() {
	t := (*Task)(h)
	t.wakesOut--
	t.k.Wake(t)
}

// PID returns the task's process ID.
func (t *Task) PID() int { return t.pid }

// Name returns the task's name.
func (t *Task) Name() string { return t.name }

// Nice returns the task's nice value (-20 highest priority .. 19 lowest).
func (t *Task) Nice() int { return t.nice }

// State returns the task's lifecycle state.
func (t *Task) State() State { return t.state }

// CPU returns the CPU whose run queue currently holds (or last held) the
// task.
func (t *Task) CPU() int { return t.cpu }

// SumExec returns the task's accumulated CPU time. The kernel tracks this on
// behalf of Enoki schedulers, as §3.1 describes; a running poll segment
// counts up to its latest poll, as if each poll were accounted.
func (t *Task) SumExec() time.Duration {
	if t.state == StateRunning && t.pending.Op == OpPoll {
		return t.pollSumExec()
	}
	return t.sumExec
}

// Allowed returns the task's CPU affinity mask.
func (t *Task) Allowed() CPUMask { return *t.allowed }

// AllowedOn reports whether cpu is in the task's affinity mask without
// copying the mask, for per-candidate checks on hot paths (the verified-tier
// shared-queue pop filters every scan step through it).
func (t *Task) AllowedOn(cpu int) bool { return t.allowed.has(cpu) }

// ClassData returns the class-private per-task state installed by the
// owning scheduler class, and SetClassData installs it. They exist for
// native classes that live outside this package (internal/vpol); a class
// must only touch entries it installed itself.
func (t *Task) ClassData() any { return t.classData }

// SetClassData installs class-private per-task state; see ClassData.
func (t *Task) SetClassData(v any) { t.classData = v }

// String renders a compact description for logs and test failures.
func (t *Task) String() string {
	return fmt.Sprintf("%s[%d](%s cpu%d)", t.name, t.pid, t.state, t.cpu)
}
