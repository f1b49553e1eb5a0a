// Package arachne models the Arachne user-level threading runtime (Qin et
// al., OSDI '18) that §4.2.4 and §5.6 build on: applications multiplex
// user-level threads over kernel "scheduler activations", and a core
// arbiter hands dedicated cores to processes based on load.
//
// The runtime here is shared by three configurations of Fig 3:
//
//   - Enoki-Arachne: the arbiter is the Enoki scheduler module
//     (internal/sched/arbiter); core requests travel on the user→kernel
//     hint queue and reclamation on the kernel→user queue.
//   - native Arachne: the arbiter is a userspace process reached over a
//     socket (modelled as a grant latency) that uses cpuset-style affinity
//     pinning.
//   - plain CFS: no runtime at all (built directly in the workload).
//
// User-level operations cost ~100 ns, which is what produces the Arachne
// rows of Tables 3 and 4 (0.1-0.2 µs pipe latency, ~1 µs schbench wakeup):
// the kernel is simply not involved in the common path.
package arachne

import (
	"fmt"
	"time"

	"enoki/internal/kernel"
)

// UserThread is one unit of user-level work: run Service worth of CPU, then
// call Done. Start, if set, fires when an activation picks the thread up
// (used to measure dispatch latency).
type UserThread struct {
	Service time.Duration
	Start   func()
	Done    func()
}

// Config tunes the runtime.
type Config struct {
	// SwitchCost is a user-level context switch.
	SwitchCost time.Duration
	// PollChunk is the poll interval of the first coarseAfter of an idle
	// stretch; polls are coarseChunk apart after that.
	PollChunk time.Duration
	// SpinLimit is how long an idle activation spins before blocking in
	// the kernel.
	SpinLimit time.Duration
	// MinCores and MaxCores bound the arbiter requests.
	MinCores, MaxCores int
	// EstimateEvery is the core-estimator period.
	EstimateEvery time.Duration
}

// DefaultConfig returns the calibrated runtime parameters.
func DefaultConfig() Config {
	return Config{
		SwitchCost:    90 * time.Nanosecond,
		PollChunk:     120 * time.Nanosecond,
		SpinLimit:     4 * time.Millisecond,
		MinCores:      2,
		MaxCores:      7,
		EstimateEvery: 2 * time.Millisecond,
	}
}

// The idle spin's poll grid: PollChunk apart while the stretch is young, for
// dispatch latency, then coarseChunk apart. This is the model's own grid —
// the paper cells are pinned to it — and costs no events while nothing
// changes: a stretch runs as one OpPoll segment, cut by Submit or a park.
const (
	coarseAfter = 20 * time.Microsecond
	coarseChunk = 2 * time.Microsecond
)

// activation is one kernel task hosting user threads. It is the task's
// Behavior and, while it spins, a kernel.Poller.
type activation struct {
	rt   *Runtime
	task *kernel.Task
	// spin is the idle time spun so far; while spinning, up to the start of
	// the running idle stretch, which began when the task's SumExec was
	// spinMark.
	spin        time.Duration
	spinMark    time.Duration
	spinning    bool
	idleBlocked bool
	parked      bool
	running     bool
	finish      func()
}

// Runtime is one process's Arachne runtime instance.
type Runtime struct {
	k    *kernel.Kernel
	cfg  Config
	acts []*activation

	// queue[head:] are the runnable user threads; the slice is rewound
	// to its start whenever it drains, so a steady load reuses one array.
	queue []UserThread
	head  int

	granted   int
	parkWant  int
	requested int
	lowStreak int

	// RequestCores, when set, sends a core request to the arbiter.
	RequestCores func(n int)

	// Submitted and Completed count user threads.
	Submitted uint64
	Completed uint64
}

// NewRuntime builds a runtime for the process.
func NewRuntime(k *kernel.Kernel, cfg Config) *Runtime {
	return &Runtime{k: k, cfg: cfg}
}

// Start spawns n activations into the scheduler class policyID and returns
// their kernel tasks (so arbiter clients can register them). All
// activations start parked: they run only once the arbiter grants cores
// (Arachne activations without a core stay blocked).
func (rt *Runtime) Start(policyID, n int, opts ...kernel.SpawnOption) []*kernel.Task {
	var tasks []*kernel.Task
	for i := 0; i < n; i++ {
		a := &activation{rt: rt, parked: true}
		rt.acts = append(rt.acts, a)
		allOpts := append([]kernel.SpawnOption{}, opts...)
		a.task = rt.k.Spawn("arachne-act", policyID, a, allOpts...)
		tasks = append(tasks, a.task)
	}
	return tasks
}

// InitialRequest asks the arbiter for the minimum grant; clients call it
// once the runtime is attached.
func (rt *Runtime) InitialRequest() {
	rt.requested = rt.cfg.MinCores
	if rt.RequestCores != nil {
		rt.RequestCores(rt.cfg.MinCores)
	}
}

// StartEstimator begins the periodic core estimator.
func (rt *Runtime) StartEstimator() {
	var tick func()
	tick = func() {
		rt.estimate()
		rt.k.Engine().After(rt.cfg.EstimateEvery, tick)
	}
	rt.k.Engine().After(rt.cfg.EstimateEvery, tick)
}

// estimate is the Arachne load estimator: request one more core when load
// outstrips the grant, release one when utilisation is low.
func (rt *Runtime) estimate() {
	busy := 0
	for _, a := range rt.acts {
		if a.running {
			busy++
		}
	}
	load := busy + rt.QueueLen()
	// Scale up promptly with one core of headroom; release slowly and
	// only after a sustained low-load streak (Arachne's hysteresis keeps
	// the grant from whipsawing on bursty load).
	want := load + 1
	if want > rt.granted+8 {
		want = rt.granted + 8
	}
	if want < rt.granted {
		rt.lowStreak++
		if rt.lowStreak >= 5 {
			want = rt.granted - 1
			rt.lowStreak = 0
		} else {
			want = rt.granted
		}
	} else {
		rt.lowStreak = 0
	}
	if want < rt.cfg.MinCores {
		want = rt.cfg.MinCores
	}
	if want > rt.cfg.MaxCores {
		want = rt.cfg.MaxCores
	}
	if want != rt.requested && rt.RequestCores != nil {
		rt.requested = want
		rt.RequestCores(want)
	}
}

// Granted returns the current core grant.
func (rt *Runtime) Granted() int { return rt.granted }

// QueueLen returns the runnable user-thread backlog.
func (rt *Runtime) QueueLen() int { return len(rt.queue) - rt.head }

// SetGranted applies a new grant from the arbiter, unparking activations to
// fill it.
func (rt *Runtime) SetGranted(n int) {
	rt.granted = n
	// The grant is authoritative: pending park requests are superseded.
	rt.parkWant = 0
	active := 0
	for _, a := range rt.acts {
		if !a.parked {
			active++
		}
	}
	for _, a := range rt.acts {
		if active >= n {
			break
		}
		if a.parked {
			a.parked = false
			a.idleBlocked = false
			active++
			rt.k.Wake(a.task)
		}
	}
}

// Reclaim handles an arbiter reclamation request for n cores: the grant
// shrinks and n activations park — idle ones immediately, busy ones when
// their current user thread finishes.
func (rt *Runtime) Reclaim(n int) {
	rt.granted -= n
	if rt.granted < 0 {
		rt.granted = 0
	}
	for i := 0; i < n; i++ {
		rt.parkOne()
	}
}

func (rt *Runtime) parkOne() {
	for _, a := range rt.acts {
		if a.idleBlocked && !a.parked {
			a.parked = true
			return
		}
	}
	rt.parkWant++
	rt.cutSpinners()
}

// cutSpinners ends every unparked spinning activation's idle stretch at its
// next poll that can see a change just made, reporting whether there was
// one.
func (rt *Runtime) cutSpinners() bool {
	found := false
	for _, a := range rt.acts {
		if !a.parked && a.spinning {
			rt.k.CutPoll(a.task)
			found = true
		}
	}
	return found
}

// Submit queues a user thread and ensures an activation will run it.
func (rt *Runtime) Submit(ut UserThread) {
	rt.Submitted++
	rt.queue = append(rt.queue, ut)
	// A spinning activation picks work up at its next poll; only wake the
	// kernel when no unparked activation is spinning.
	if rt.cutSpinners() {
		return
	}
	for _, a := range rt.acts {
		if a.idleBlocked && !a.parked {
			a.idleBlocked = false
			rt.k.Wake(a.task)
			return
		}
	}
}

// Next implements kernel.Behavior: the activation scheduling loop.
func (a *activation) Next(k *kernel.Kernel, t *kernel.Task) kernel.Action {
	rt := a.rt
	if a.spinning {
		a.spin += t.SumExec() - a.spinMark
	}
	if a.finish != nil {
		f := a.finish
		a.finish = nil
		a.running = false
		rt.Completed++
		f()
	}
	a.spinning = false
	if a.parked {
		a.idleBlocked = false
		// Recheck cancels the park if a grant unparked us while the
		// block was in flight (futex semantics).
		return kernel.Action{Op: kernel.OpBlock, Recheck: func() bool { return !a.parked }}
	}
	if rt.parkWant > 0 {
		rt.parkWant--
		a.parked = true
		return kernel.Action{Op: kernel.OpBlock, Recheck: func() bool { return !a.parked }}
	}
	if rt.QueueLen() > 0 {
		ut := rt.queue[rt.head]
		rt.queue[rt.head] = UserThread{}
		if rt.head++; rt.head == len(rt.queue) {
			rt.queue, rt.head = rt.queue[:0], 0
		}
		a.spin = 0
		a.running = true
		a.finish = ut.Done
		if ut.Start != nil {
			ut.Start()
		}
		return kernel.Action{Run: rt.cfg.SwitchCost + ut.Service, Op: kernel.OpContinue}
	}
	if a.spin < rt.cfg.SpinLimit {
		a.spinning = true
		a.spinMark = t.SumExec()
		_, end := a.grid()
		return kernel.Action{Run: end, Op: kernel.OpPoll}
	}
	a.spin = 0
	a.idleBlocked = true
	return kernel.Action{Op: kernel.OpBlock, Recheck: func() bool {
		if a.parked {
			return false
		}
		if rt.QueueLen() > 0 || !a.idleBlocked {
			a.idleBlocked = false
			return true
		}
		return false
	}}
}

// grid returns the idle stretch starting at spin: fine polls PollChunk apart
// end at offset fine, and the stretch, which spins until SpinLimit is
// reached, at end.
func (a *activation) grid() (fine, end time.Duration) {
	cfg := &a.rt.cfg
	if top := min(coarseAfter, cfg.SpinLimit-1); a.spin <= top {
		fine = ((top-a.spin)/cfg.PollChunk + 1) * cfg.PollChunk
	}
	end = fine
	if rest := cfg.SpinLimit - (a.spin + fine); rest > 0 {
		end += (rest + coarseChunk - 1) / coarseChunk * coarseChunk
	}
	return fine, end
}

// Polls implements kernel.Poller for the idle stretch.
func (a *activation) Polls(off time.Duration) (last, next, from time.Duration) {
	fine, _ := a.grid()
	if f := a.rt.cfg.PollChunk; off <= fine {
		next = (off + f - 1) / f * f
		return next - f, next, f
	}
	next = fine + (off-fine+coarseChunk-1)/coarseChunk*coarseChunk
	if from = fine; from == 0 || a.rt.cfg.PollChunk == coarseChunk {
		from = coarseChunk // one even grid from the first poll
	}
	return next - coarseChunk, next, from
}

// Debug renders internal activation state for tests.
func (rt *Runtime) Debug() string {
	s := fmt.Sprintf("granted=%d parkWant=%d q=%d |", rt.granted, rt.parkWant, rt.QueueLen())
	for _, a := range rt.acts {
		s += fmt.Sprintf(" {pid=%d parked=%v idle=%v running=%v st=%v}", a.task.PID(), a.parked, a.idleBlocked, a.running, a.task.State())
	}
	return s
}
