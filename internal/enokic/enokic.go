// Package enokic is the Go analogue of Enoki-C: the component "compiled
// into the kernel" that interfaces directly with the core scheduling code
// and the kernel scheduling data structures (§3). It registers,
// deregisters, and upgrades scheduler modules; translates every scheduler-
// class callback into a per-function message for libEnoki's processing
// function; performs the kernel-state updates on the module's behalf; issues
// and validates Schedulable proofs; and owns the plumbing for hint queues
// and the record channel.
//
// The Adapter implements kernel.Class, so a loaded Enoki scheduler slots
// into the simulated kernel exactly where a sched_class does, and every
// crossing charges the calibrated per-invocation framework overhead the
// paper measures at 100-150 ns.
package enokic

import (
	"errors"
	"fmt"
	"time"

	"enoki/internal/core"
	"enoki/internal/kernel"
	"enoki/internal/ktime"
	"enoki/internal/metrics"
	"enoki/internal/sim"
	"enoki/internal/trace"
)

// Sentinel errors for load and upgrade failures, testable with errors.Is.
var (
	// ErrPolicyMismatch: the module's GetPolicy disagrees with the policy
	// it was loaded under — the module would receive messages addressed to
	// a class it does not believe it is.
	ErrPolicyMismatch = errors.New("enokic: module policy does not match load policy")
	// ErrDuplicatePolicy: the kernel already has a class registered under
	// the requested policy id.
	ErrDuplicatePolicy = errors.New("enokic: policy id already registered")
	// ErrModuleKilled: the operation targets a module the fault layer has
	// killed; there is nothing left to upgrade or call.
	ErrModuleKilled = errors.New("enokic: module was killed by fault isolation")
	// ErrNoPreviousVersion: Rollback was asked to restore a module
	// generation that does not exist — no UpgradeTo has committed on this
	// adapter, so there is nothing to roll back to.
	ErrNoPreviousVersion = errors.New("enokic: no previous module version to roll back to")
)

// InitialVersion names the module generation Load installs, before any
// UpgradeTo renames it.
const InitialVersion = "v0"

// Config tunes the framework's modelled costs.
type Config struct {
	// CallOverhead is the framework overhead per scheduler invocation
	// (message build + RW-lock + FFI crossing). The paper measures
	// 100-150 ns; the default is 110 ns.
	CallOverhead time.Duration
	// UpgradeBase is the fixed part of the live-upgrade blackout
	// (write-lock acquisition, pointer swap, prepare/init).
	UpgradeBase time.Duration
	// UpgradePerCPU models draining in-flight read-locked calls: each
	// CPU may be mid-call when the write lock is requested, so the
	// blackout grows with core count (1.5 µs on 8 cores → ~10 µs on 80).
	UpgradePerCPU time.Duration
	// RandSeed seeds the module's deterministic random stream.
	RandSeed uint64
	// FallbackPolicy is the class id tasks are re-homed to if the module
	// is killed by the fault layer (default 0, conventionally CFS). The
	// class must be registered before the first fault trips.
	FallbackPolicy int
	// StarveWindow is how long a CPU may hold queued module tasks while
	// every PickNext comes back empty before the starvation watchdog
	// kills the module. Zero selects the 50ms default; negative disables
	// the watchdog.
	StarveWindow time.Duration
	// PntErrBudget is how many rejected pick_next_task results
	// (stale/forged/wrong-CPU/consumed Schedulables) the module may
	// accumulate before being killed. Zero selects the 5000 default;
	// negative disables the budget.
	PntErrBudget int
	// UpgradeRollback makes live upgrades transactional: the old module's
	// state is snapshotted before transfer, and when the new module faults
	// during the blackout window (factory or init panic, policy lie, or a
	// panic while the deferred backlog flushes) the old module is restored
	// from the snapshot and keeps serving — the upgrade aborts like a
	// failed transaction instead of killing the whole class to the
	// fallback. DefaultConfig enables it; a zero Config leaves upgrade
	// faults fatal, matching the pre-transactional behaviour.
	UpgradeRollback bool
}

// DefaultConfig returns the calibrated framework costs.
func DefaultConfig() Config {
	return Config{
		CallOverhead:    110 * time.Nanosecond,
		UpgradeBase:     600 * time.Nanosecond,
		UpgradePerCPU:   115 * time.Nanosecond,
		RandSeed:        0x5eed,
		StarveWindow:    50 * time.Millisecond,
		PntErrBudget:    5000,
		UpgradeRollback: true,
	}
}

// Stats counts framework-level events, mostly scheduler mistakes the
// framework caught.
type Stats struct {
	Messages    uint64
	PntErrs     uint64
	BalanceErrs uint64
	Migrations  uint64
	Upgrades    uint64
	Deferred    uint64
	// XLLCMoves counts runnable migrations that left the source LLC
	// domain; XNodeMoves is the subset that also crossed sockets. Together
	// with Migrations they show how much of a module's balancing is
	// cache-hostile.
	XLLCMoves  uint64
	XNodeMoves uint64
	// HintsDelivered counts hint pushes that landed (ring accepted, or the
	// synchronous parse_hint path); HintsDropped counts pushes lost to ring
	// overflow. Delivered + dropped = attempts, so a workload can tell
	// "module ignored my hints" from "my hints never arrived".
	HintsDelivered uint64
	HintsDropped   uint64
	// Faults counts module kills (0 or 1 per adapter lifetime).
	Faults uint64
}

// taskInfo is Enoki-C's authoritative view of one task: which queue holds
// it and which Schedulable generation is valid. Validation against it is
// what stops a buggy module from running a task on the wrong CPU. It lives
// in the task's class-data slot while the adapter owns the task (the hooks,
// which arrive with the task, read it there) and every token issued for the
// task points back at origin (a token the module returns resolves through
// it), so no hook hashes a pid. A dead task's record goes on the adapter's
// free list for the next TaskNew.
type taskInfo struct {
	// origin.Record is this taskInfo until the task dies or departs.
	origin   core.Origin
	a        *Adapter
	t        *kernel.Task
	gen      uint64
	queued   bool
	queuedOn int
	running  bool
	newSent  bool
	// moveInFlight marks the window between Dequeue(sleep=false) and the
	// Migrate hook during a runnable migration.
	moveInFlight bool
	// migrated marks that the following Enqueue belongs to a migration
	// whose migrate_task_rq message was already sent.
	migrated bool
}

// Adapter connects one Enoki scheduler module to the kernel.
type Adapter struct {
	k      *kernel.Kernel
	policy int
	cfg    Config
	sched  core.Scheduler
	env    *kernelEnv

	nqueued []int
	tokens  core.TokenArena
	// infoFree holds the records of dead tasks, LIFO, for TaskNew to reuse.
	// A departed task's record never goes here (Detach).
	infoFree []*taskInfo

	seq      uint64
	lockSeq  uint64
	recorder core.Recorder
	thread   int // kernel thread id of the in-flight call

	// Observability taps (observe.go). sink caches the TraceSink handed to
	// SafeDispatchTraced — a, when any tap is live, else nil.
	tracer *trace.Tracer
	met    *metrics.ClassMetrics
	sink   core.TraceSink

	upgrading       bool
	deferred        []*core.Message
	kickPending     []bool
	pendingUpgrades []pendingUpgrade

	// Version lineage (upgrade.go). version names the module generation
	// currently serving; factory rebuilds it. prevVersion/prevFactory
	// remember the generation a committed UpgradeTo replaced, which is what
	// Rollback re-upgrades to — the fleet rollout machinery drives both as
	// cluster actions.
	version     string
	factory     func(core.Env) core.Scheduler
	prevVersion string
	prevFactory func(core.Env) core.Scheduler

	// Fault-isolation state. killed flips once, on the first fault; every
	// crossing into the module checks it so a dead module is never called
	// again (not even by the rehome migration it triggers).
	killed   bool
	fault    core.ModuleFault
	faultLag time.Duration
	report   *FailureReport
	onFault  func(*FailureReport)
	fallback int

	// Starvation watchdog: wdFailing[cpu] is set while the CPU's last
	// pick attempt found queued tasks but got nothing runnable,
	// wdFailAt[cpu] timestamps the first such failure, and wdEvent is a
	// persistent timer armed only while some CPU is failing (so the
	// healthy hot path never touches the event queue).
	wdWindow  time.Duration
	pntBudget uint64
	wdFailing []bool
	wdFailAt  []ktime.Time
	wdEvent   *sim.Event
	wdArmed   bool

	// msgFree recycles Message structs: every crossing draws from it and
	// returns the message once the dispatch (and any reply read) completes,
	// so the message path allocates nothing in steady state. Deferred
	// messages return to the pool after the post-upgrade flush.
	msgFree []*core.Message

	queues    map[int]*core.HintQueue
	revQueues map[int]*core.RevQueue

	recordCost time.Duration

	stats Stats
}

var _ kernel.Class = (*Adapter)(nil)

// Load builds an adapter, constructs the module via factory (handing it the
// kernel environment), and registers it with the kernel under policy. It
// panics on a policy mismatch or duplicate registration; use TryLoad to get
// those as errors instead.
func Load(k *kernel.Kernel, policy int, cfg Config, factory func(core.Env) core.Scheduler) *Adapter {
	a, err := TryLoad(k, policy, cfg, factory)
	if err != nil {
		panic(fmt.Sprintf("enokic: %v", err))
	}
	return a
}

// TryLoad is Load with typed failure values: ErrDuplicatePolicy when the
// kernel already has a class under policy, and ErrPolicyMismatch (wrapped
// with both ids) when the constructed module's GetPolicy disagrees with the
// policy it is being loaded under. On error no class is registered and the
// partially built module is discarded.
func TryLoad(k *kernel.Kernel, policy int, cfg Config, factory func(core.Env) core.Scheduler) (*Adapter, error) {
	if k.ClassByID(policy) != nil {
		return nil, fmt.Errorf("%w: %d", ErrDuplicatePolicy, policy)
	}
	a := &Adapter{
		k:           k,
		policy:      policy,
		cfg:         cfg,
		nqueued:     make([]int, k.NumCPUs()),
		kickPending: make([]bool, k.NumCPUs()),
		queues:      make(map[int]*core.HintQueue),
		revQueues:   make(map[int]*core.RevQueue),
		thread:      -1,
		fallback:    cfg.FallbackPolicy,
		wdFailing:   make([]bool, k.NumCPUs()),
		wdFailAt:    make([]ktime.Time, k.NumCPUs()),
	}
	a.wdEvent = k.Engine().NewEvent(a.wdCheck)
	switch {
	case cfg.StarveWindow > 0:
		a.wdWindow = cfg.StarveWindow
	case cfg.StarveWindow == 0:
		a.wdWindow = 50 * time.Millisecond
	}
	switch {
	case cfg.PntErrBudget > 0:
		a.pntBudget = uint64(cfg.PntErrBudget)
	case cfg.PntErrBudget == 0:
		a.pntBudget = 5000
	}
	a.env = &kernelEnv{a: a, rand: ktime.NewRand(cfg.RandSeed)}
	a.version = InitialVersion
	a.factory = factory
	s := factory(a.env)
	if s.GetPolicy() != policy {
		return nil, fmt.Errorf("%w: module says %d, loaded under %d",
			ErrPolicyMismatch, s.GetPolicy(), policy)
	}
	a.sched = s
	k.RegisterClass(policy, a)
	return a, nil
}

// Scheduler returns the currently loaded module (changes across upgrades).
func (a *Adapter) Scheduler() core.Scheduler { return a.sched }

// Policy returns the adapter's policy id.
func (a *Adapter) Policy() int { return a.policy }

// Env returns the kernel environment handed to modules.
func (a *Adapter) Env() core.Env { return a.env }

// Stats returns a copy of the framework counters.
func (a *Adapter) Stats() Stats { return a.stats }

// SetRecorder installs (or removes, with nil) the record-mode sink. If the
// recorder reports a per-call cost, the framework charges it on every
// crossing — this is what makes record mode measurably slower (§5.8).
func (a *Adapter) SetRecorder(r core.Recorder) {
	a.recorder = r
	a.recordCost = 0
	if c, ok := r.(interface{ PerCallCost() time.Duration }); ok {
		a.recordCost = c.PerCallCost()
	}
}

// Kernel returns the kernel this adapter is loaded into.
func (a *Adapter) Kernel() *kernel.Kernel { return a.k }

// --- message plumbing ------------------------------------------------------

// getMsg returns a zeroed Message from the free list (its Allowed backing
// array is retained across reuses). Pair with putMsg once the dispatch and
// every reply read are done.
func (a *Adapter) getMsg() *core.Message {
	if n := len(a.msgFree); n > 0 {
		m := a.msgFree[n-1]
		a.msgFree[n-1] = nil
		a.msgFree = a.msgFree[:n-1]
		return m
	}
	return &core.Message{}
}

// putMsg resets m and returns it to the free list. The caller must have
// finished with every field — including reply refs — and the recorder must
// already have taken its deep snapshot (record.Recorder clones).
func (a *Adapter) putMsg(m *core.Message) {
	m.Reset()
	a.msgFree = append(a.msgFree, m)
}

// dispatch sends one message through libEnoki's processing function,
// recording it afterwards so the log contains the reply. Every crossing is
// panic-contained: a module panic surfaces as a ModuleFault and kills the
// module instead of unwinding into the scheduler core. A panicked (or
// dead-module) message is not recorded — it produced no reply, and the log
// instead carries the module_fault entry the kill emits. Callers reading
// reply fields from a guarded message see the zero values, which every
// reply path treats as "module declined".
func (a *Adapter) dispatch(m *core.Message) {
	if a.killed {
		return
	}
	if fault := a.deliver(m); fault != nil {
		a.trip(*fault, 0)
	}
}

// deliver is dispatch's bookkeeping core: it performs the crossing (seq
// stamp, panic containment, unregister completion, record) but hands a
// contained fault back to the caller instead of tripping the kill path. The
// upgrade commit flush uses this to roll the swap back when the new module
// faults; everything else goes through dispatch, where a fault is fatal.
// (finishUnregister can still trip internally on a queue lie — callers that
// must not kill check a.killed after each delivery.)
func (a *Adapter) deliver(m *core.Message) *core.ModuleFault {
	m.Seq = a.seq
	a.seq++
	m.Now = int64(a.k.Now())
	a.stats.Messages++
	prev := a.thread
	a.thread = m.Thread
	fault := core.SafeDispatchTraced(a.sched, m, a.sink)
	a.thread = prev
	if fault != nil {
		return fault
	}
	switch m.Kind {
	case core.MsgUnregisterQueue, core.MsgUnregisterRevQueue:
		a.finishUnregister(m)
	}
	if a.recorder != nil {
		a.recorder.RecordMessage(m)
	}
	return nil
}

// defer1 queues a notification for delivery after an in-flight upgrade.
func (a *Adapter) defer1(m *core.Message) {
	a.stats.Deferred++
	a.deferred = append(a.deferred, m)
}

// notify sends a reply-less message now, or defers it during an upgrade.
// Either way it owns the message: immediate sends recycle it here, deferred
// ones after the post-upgrade flush. A dead module gets nothing.
func (a *Adapter) notify(m *core.Message) {
	if a.killed {
		a.putMsg(m)
		return
	}
	if a.upgrading {
		a.defer1(m)
		return
	}
	a.dispatch(m)
	a.putMsg(m)
}

func (a *Adapter) issue(ti *taskInfo, cpu int) *core.Schedulable {
	ti.gen++
	return a.tokens.Issue(ti.t.PID(), cpu, ti.gen, &ti.origin)
}

// own narrows what a class-data slot or a token's origin holds to this
// adapter's record of the task, nil when it is anything else.
func (a *Adapter) own(v any) *taskInfo {
	ti, _ := v.(*taskInfo)
	if ti == nil || ti.a != a {
		return nil
	}
	return ti
}

// infoOf returns the adapter's record of t from the task's class-data slot,
// nil when t is not (or no longer) this adapter's task.
func (a *Adapter) infoOf(t *kernel.Task) *taskInfo { return a.own(t.ClassData()) }

// infoByPID is the pid-keyed route, for what names a task by number only:
// a balance reply, and a token this framework did not issue.
func (a *Adapter) infoByPID(pid int) *taskInfo {
	if t := a.k.TaskByPID(pid); t != nil {
		return a.infoOf(t)
	}
	return nil
}

// infoOfToken resolves a token to the record of the task it vouches for,
// nil when that task is not (or no longer) this adapter's. The pid check
// matters once a dead task's record serves another: a token kept from the
// first tenant still reaches the record through its origin, but names a pid
// the kernel never hands out again.
func (a *Adapter) infoOfToken(tok *core.Schedulable) *taskInfo {
	if o := tok.Origin(); o != nil {
		if ti := a.own(o.Record); ti != nil && ti.t.PID() == tok.PID() {
			return ti
		}
		return nil
	}
	return a.infoByPID(tok.PID())
}

// forget ends the adapter's ownership of ti's task: the class-data slot is
// handed back empty, and every token still out for the task resolves to
// nothing from here on.
func (a *Adapter) forget(ti *taskInfo) {
	a.unmarkQueued(ti)
	ti.origin.Record = nil
	ti.t.SetClassData(nil)
	ti.t = nil // the record may be another task's by the time a kept token finds ti
}

func (a *Adapter) markQueued(ti *taskInfo, cpu int) {
	ti.queued = true
	ti.queuedOn = cpu
	a.nqueued[cpu]++
}

func (a *Adapter) unmarkQueued(ti *taskInfo) {
	if ti.queued {
		a.nqueued[ti.queuedOn]--
		if a.nqueued[ti.queuedOn] == 0 {
			// Empty queue cannot starve; stop the CPU's clock.
			a.wdPickServed(ti.queuedOn)
		}
		ti.queued = false
	}
}

// --- kernel.Class implementation -------------------------------------------

// Name implements kernel.Class.
func (a *Adapter) Name() string { return fmt.Sprintf("enoki:%d", a.policy) }

// OverheadPerCall implements kernel.Class: the paper's per-invocation
// framework cost, plus record-mode overhead when a recorder is installed.
func (a *Adapter) OverheadPerCall() time.Duration { return a.cfg.CallOverhead + a.recordCost }

// CrossingTier implements kernel.CrossingTierer: the adapter is the full
// message-crossing module tier.
func (a *Adapter) CrossingTier() string { return "module" }

// TaskNew implements kernel.Class. The module's task_new message is sent at
// the first enqueue, when a Schedulable for a concrete run queue exists. A
// reused record starts over, generation included, so the record log is the
// one a fresh record would write.
func (a *Adapter) TaskNew(t *kernel.Task) {
	var ti *taskInfo
	if n := len(a.infoFree); n > 0 {
		ti, a.infoFree = a.infoFree[n-1], a.infoFree[:n-1]
	} else {
		ti = new(taskInfo)
	}
	*ti = taskInfo{a: a, t: t}
	ti.origin.Record = ti
	t.SetClassData(ti)
}

// TaskDead implements kernel.Class.
func (a *Adapter) TaskDead(t *kernel.Task) {
	ti := a.infoOf(t)
	if ti == nil {
		return
	}
	a.forget(ti)
	a.infoFree = append(a.infoFree, ti)
	m := a.getMsg()
	m.Kind, m.Thread, m.PID = core.MsgTaskDead, t.CPU(), t.PID()
	a.notify(m)
}

// Detach implements kernel.Class: the task leaves for another class; the
// module returns its token through task_departed. The record is not reused:
// the task may come back under the same pid, and a restarted generation would
// let a token it held before leaving validate again. Unlike notifications this
// needs a reply, so during an upgrade window it enters the module
// synchronously — the quiesce contract trusts setscheduler calls to be rare
// enough not to matter inside a ~10µs blackout (§3.2's "trusted to upgrade
// quickly").
func (a *Adapter) Detach(t *kernel.Task) {
	ti := a.infoOf(t)
	if ti == nil {
		return
	}
	a.forget(ti)
	m := a.getMsg()
	m.Kind, m.Thread, m.PID, m.CPU = core.MsgTaskDeparted, t.CPU(), t.PID(), t.CPU()
	a.dispatch(m)
	tok := m.TakeRetSched()
	a.putMsg(m)
	if tok != nil {
		tok.Consume()
	}
}

// Enqueue implements kernel.Class.
func (a *Adapter) Enqueue(cpu int, t *kernel.Task, wakeup bool) {
	ti := a.infoOf(t)
	if ti == nil {
		return
	}
	if ti.migrated {
		// The migrate_task_rq message already covered this move.
		ti.migrated = false
		return
	}
	tok := a.issue(ti, cpu)
	a.markQueued(ti, cpu)
	m := a.getMsg()
	m.Thread, m.PID, m.CPU = cpu, t.PID(), cpu
	m.Runtime = t.SumExec()
	isNew := !ti.newSent
	if isNew {
		ti.newSent = true
		m.Kind = core.MsgTaskNew
		m.Runnable = true
		m.Allowed = t.Allowed().AppendTo(m.Allowed[:0])
		m.Prio = t.Nice()
	} else {
		m.Kind = core.MsgTaskWakeup
		m.Deferrable = wakeup
		m.LastCPU = t.CPU()
		m.WakeCPU = cpu
	}
	m.AttachSched(tok)
	a.notify(m)
	if isNew && t.Nice() != 0 {
		// Deliver the initial priority right after task_new.
		pm := a.getMsg()
		pm.Kind, pm.Thread = core.MsgTaskPrioChanged, cpu
		pm.PID, pm.Prio = t.PID(), t.Nice()
		a.notify(pm)
	}
}

// Dequeue implements kernel.Class.
func (a *Adapter) Dequeue(cpu int, t *kernel.Task, sleep bool) {
	ti := a.infoOf(t)
	if ti == nil {
		return
	}
	if ti.running {
		ti.running = false
	} else if ti.queued {
		a.unmarkQueued(ti)
		ti.moveInFlight = true
	}
	if sleep {
		ti.moveInFlight = false
		m := a.getMsg()
		m.Kind, m.Thread = core.MsgTaskBlocked, cpu
		m.PID, m.CPU, m.Runtime = t.PID(), cpu, t.SumExec()
		a.notify(m)
	}
}

// Migrate implements kernel.Class: for a runnable migration the module gets
// migrate_task_rq with fresh proof for the new CPU and must return the old
// token. Wake-time CPU changes are covered by task_wakeup instead.
func (a *Adapter) Migrate(t *kernel.Task, src, dst int) {
	ti := a.infoOf(t)
	if ti == nil || !ti.moveInFlight {
		return
	}
	ti.moveInFlight = false
	ti.migrated = true
	a.stats.Migrations++
	switch a.k.Topo().Distance(src, dst) {
	case core.DistCrossNode:
		a.stats.XNodeMoves++
		a.stats.XLLCMoves++
	case core.DistSameNode:
		a.stats.XLLCMoves++
	}
	tok := a.issue(ti, dst)
	a.markQueued(ti, dst)
	m := a.getMsg()
	m.Kind, m.Thread = core.MsgMigrateTaskRQ, dst
	m.PID, m.NewCPU, m.Runtime = t.PID(), dst, t.SumExec()
	m.AttachSched(tok)
	a.dispatch(m)
	old := m.TakeRetSched()
	a.putMsg(m)
	if old != nil {
		old.Consume()
	}
}

// Yield implements kernel.Class.
func (a *Adapter) Yield(cpu int, t *kernel.Task) {
	a.requeueCurrent(core.MsgTaskYield, cpu, t, false)
}

// PutPrev implements kernel.Class: the kernel's preempted flag travels in
// the message, so modules can tell an involuntary preemption from a
// framework-initiated requeue.
func (a *Adapter) PutPrev(cpu int, t *kernel.Task, preempted bool) {
	a.requeueCurrent(core.MsgTaskPreempt, cpu, t, preempted)
}

func (a *Adapter) requeueCurrent(kind core.Kind, cpu int, t *kernel.Task, preempted bool) {
	ti := a.infoOf(t)
	if ti == nil {
		return
	}
	ti.running = false
	tok := a.issue(ti, cpu)
	a.markQueued(ti, cpu)
	m := a.getMsg()
	m.Kind, m.Thread = kind, cpu
	m.PID, m.CPU, m.Runtime = t.PID(), cpu, t.SumExec()
	m.Preempted = preempted
	m.AttachSched(tok)
	a.notify(m)
}

// PickNext implements kernel.Class: ask the module, then validate its proof
// against the authoritative table before letting the kernel act (§3.1).
func (a *Adapter) PickNext(cpu int) *kernel.Task {
	if a.killed {
		return nil
	}
	if a.upgrading {
		a.kickAfterUpgrade(cpu)
		return nil
	}
	m := a.getMsg()
	m.Kind, m.Thread, m.CPU = core.MsgPickNextTask, cpu, cpu
	a.dispatch(m)
	tok := m.TakeRetSched()
	a.putMsg(m)
	if tok == nil {
		if a.nqueued[cpu] > 0 {
			// Queued tasks but nothing offered: a starvation candidate.
			a.wdPickFailed(cpu)
		}
		return nil
	}
	ti := a.infoOfToken(tok)
	var perr core.PickError
	switch {
	case ti == nil || !ti.queued:
		perr = core.PickNotQueued
	case tok.Consumed():
		perr = core.PickConsumed
	case tok.Gen() != ti.gen:
		perr = core.PickStale
	case tok.CPU() != cpu || ti.queuedOn != cpu:
		perr = core.PickWrongCPU
	}
	if perr != 0 {
		a.stats.PntErrs++
		em := a.getMsg()
		em.Kind, em.Thread = core.MsgPntErr, cpu
		em.CPU, em.PID, em.ErrCode = cpu, tok.PID(), int(perr)
		em.AttachSched(tok)
		a.dispatch(em)
		a.putMsg(em)
		if a.pntBudget > 0 && a.stats.PntErrs >= a.pntBudget {
			a.trip(core.ModuleFault{
				Cause:   core.FaultPickErrors,
				MsgKind: core.MsgPickNextTask,
				CPU:     cpu,
			}, 0)
			return nil
		}
		if a.nqueued[cpu] > 0 {
			a.wdPickFailed(cpu)
		}
		return nil
	}
	tok.Consume()
	a.wdPickServed(cpu)
	a.unmarkQueued(ti)
	ti.running = true
	return ti.t
}

// Tick implements kernel.Class. Ticks during an upgrade window are dropped,
// not deferred: they carry no state.
func (a *Adapter) Tick(cpu int, t *kernel.Task) {
	if a.upgrading {
		return
	}
	m := a.getMsg()
	m.Kind, m.Thread, m.CPU = core.MsgTaskTick, cpu, cpu
	m.PID, m.Runtime = t.PID(), t.SumExec()
	a.dispatch(m)
	a.putMsg(m)
}

// SelectRQ implements kernel.Class.
func (a *Adapter) SelectRQ(t *kernel.Task, prevCPU int, wakeup bool) int {
	if a.killed || a.upgrading {
		return prevCPU
	}
	m := a.getMsg()
	m.Kind, m.Thread = core.MsgSelectTaskRQ, prevCPU
	m.PID, m.PrevCPU, m.Wakeup = t.PID(), prevCPU, wakeup
	a.dispatch(m)
	ret := m.RetCPU
	a.putMsg(m)
	if ret < 0 || ret >= a.k.NumCPUs() {
		return prevCPU
	}
	return ret
}

// CheckPreempt implements kernel.Class: Enoki modules request wakeup
// preemption themselves via Env.Resched from task_wakeup, so the kernel-side
// hook does nothing.
func (a *Adapter) CheckPreempt(cpu int, t *kernel.Task) {}

// Balance implements kernel.Class: ask the module which task to pull toward
// cpu, attempt the move, and report failures through balance_err.
func (a *Adapter) Balance(cpu int) {
	if a.upgrading {
		return
	}
	m := a.getMsg()
	m.Kind, m.Thread, m.CPU = core.MsgBalance, cpu, cpu
	a.dispatch(m)
	retOK, retPID := m.RetOK, m.RetPID
	a.putMsg(m)
	if !retOK {
		return
	}
	ti := a.infoByPID(int(retPID))
	if ti == nil || !ti.queued || ti.queuedOn == cpu || !a.k.MoveTask(ti.t, cpu) {
		a.stats.BalanceErrs++
		em := a.getMsg()
		em.Kind, em.Thread = core.MsgBalanceErr, cpu
		em.CPU, em.BalancePID = cpu, retPID
		a.dispatch(em)
		a.putMsg(em)
	}
}

// PrioChanged implements kernel.Class.
func (a *Adapter) PrioChanged(t *kernel.Task) {
	if a.infoOf(t) == nil {
		return
	}
	m := a.getMsg()
	m.Kind, m.Thread = core.MsgTaskPrioChanged, t.CPU()
	m.PID, m.Prio = t.PID(), t.Nice()
	a.notify(m)
}

// AffinityChanged implements kernel.Class.
func (a *Adapter) AffinityChanged(t *kernel.Task) {
	if a.infoOf(t) == nil {
		return
	}
	m := a.getMsg()
	m.Kind, m.Thread, m.PID = core.MsgTaskAffinityChanged, t.CPU(), t.PID()
	m.Allowed = t.Allowed().AppendTo(m.Allowed[:0])
	a.notify(m)
}

// NRunnable implements kernel.Class from the authoritative table.
func (a *Adapter) NRunnable(cpu int) int { return a.nqueued[cpu] }
