package wfq

import (
	"testing"
	"time"

	"enoki/internal/core"
	"enoki/internal/ktime"
)

// fakeEnv drives the module directly, without a kernel: the unit-test
// harness a module developer would use before loading anything.
type fakeEnv struct {
	cpus     int
	rescheds []int
	timers   []int
	rand     *ktime.Rand
	now      ktime.Time
}

type fakeLock struct{ held bool }

func (l *fakeLock) Lock() {
	if l.held {
		panic("recursive lock")
	}
	l.held = true
}
func (l *fakeLock) Unlock() {
	if !l.held {
		panic("unlock of unlocked")
	}
	l.held = false
}

func (e *fakeEnv) Now() ktime.Time                   { return e.now }
func (e *fakeEnv) NumCPUs() int                      { return e.cpus }
func (e *fakeEnv) SameNode(a, b int) bool            { return true }
func (e *fakeEnv) Topology() *core.Topology          { return core.FlatTopology(e.cpus) }
func (e *fakeEnv) ArmTimer(cpu int, d time.Duration) { e.timers = append(e.timers, cpu) }
func (e *fakeEnv) Resched(cpu int)                   { e.rescheds = append(e.rescheds, cpu) }
func (e *fakeEnv) Rand() *ktime.Rand                 { return e.rand }
func (e *fakeEnv) NewMutex(name string) core.Locker  { return &fakeLock{} }

func newEnv(cpus int) *fakeEnv { return &fakeEnv{cpus: cpus, rand: ktime.NewRand(1)} }

func tok(pid, cpu int, gen uint64) *core.Schedulable {
	return core.NewSchedulable(pid, cpu, gen)
}

func TestPickReturnsIssuedToken(t *testing.T) {
	s := New(newEnv(4), 1)
	proof := tok(10, 2, 1)
	s.TaskNew(10, 0, true, nil, proof)
	got := s.PickNextTask(2, nil, 0)
	if got != proof {
		t.Fatalf("pick returned %v, want the issued token", got)
	}
	if s.PickNextTask(2, nil, 0) != nil {
		t.Fatal("second pick should be empty")
	}
}

func TestPickOrderIsVruntime(t *testing.T) {
	s := New(newEnv(1), 1)
	// Three tasks; run the first for a while so its vruntime grows.
	s.TaskNew(1, 0, true, nil, tok(1, 0, 1))
	s.TaskNew(2, 0, true, nil, tok(2, 0, 1))
	if got := s.PickNextTask(0, nil, 0); got.PID() != 1 {
		t.Fatalf("first pick = %d", got.PID())
	}
	// Task 1 ran 10ms, got preempted: it should requeue behind task 2.
	s.TaskPreempt(1, 10*time.Millisecond, 0, true, tok(1, 0, 2))
	if got := s.PickNextTask(0, nil, 0); got.PID() != 2 {
		t.Fatalf("pick after preempt = %d, want the unrun task", got.PID())
	}
}

func TestSleeperCreditIsBounded(t *testing.T) {
	s := New(newEnv(1), 1)
	s.TaskNew(1, 0, true, nil, tok(1, 0, 1))
	s.TaskNew(2, 0, true, nil, tok(2, 0, 1))
	s.PickNextTask(0, nil, 0)
	// Task 1 runs 10ms then blocks; task 2 accumulates 50ms meanwhile.
	s.TaskBlocked(1, 10*time.Millisecond, 0)
	s.PickNextTask(0, nil, 0)
	s.TaskPreempt(2, 50*time.Millisecond, 0, true, tok(2, 0, 2))
	// Task 1 wakes with bounded sleeper credit: it runs next, but only
	// a few ms ahead — not its whole 40ms sleep.
	s.TaskWakeup(1, 10*time.Millisecond, true, 0, 0, tok(1, 0, 2))
	if got := s.PickNextTask(0, nil, 0); got.PID() != 1 {
		t.Fatalf("woken sleeper should run first, got %d", got.PID())
	}
	// After a short run the sleeper must NOT still be ahead by its full
	// sleep: 5ms of running exceeds the ~3ms credit, so task 2 is next.
	s.TaskPreempt(1, 15*time.Millisecond, 0, true, tok(1, 0, 3))
	if got := s.PickNextTask(0, nil, 0); got.PID() != 2 {
		t.Fatalf("sleeper credit not bounded: picked %d", got.PID())
	}
}

func TestWakeupPreemptionRequested(t *testing.T) {
	env := newEnv(2)
	s := New(env, 1)
	s.TaskNew(1, 0, true, nil, tok(1, 0, 1))
	s.TaskNew(2, 0, false, nil, nil) // created while minV is still 0
	s.PickNextTask(0, nil, 0)
	// Charge lots of runtime to the running task via a tick.
	s.TaskTick(0, false, 1, 20*time.Millisecond)
	// The old task wakes far behind in vruntime: preemption requested.
	s.TaskWakeup(2, 0, true, 0, 0, tok(2, 0, 1))
	found := false
	for _, c := range env.rescheds {
		if c == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no preemption requested for far-behind wakeup")
	}
}

func TestBalanceStealsFromBusiestOnly(t *testing.T) {
	s := New(newEnv(4), 1)
	// CPU 0: running task + two waiting; CPU 1 busy with one waiting.
	for pid := 1; pid <= 3; pid++ {
		s.TaskNew(pid, 0, true, nil, tok(pid, 0, 1))
	}
	s.PickNextTask(0, nil, 0)
	s.TaskNew(4, 0, true, nil, tok(4, 1, 1))
	s.TaskNew(5, 0, true, nil, tok(5, 1, 1))
	s.PickNextTask(1, nil, 0)

	pid, ok := s.Balance(2)
	if !ok {
		t.Fatal("idle cpu did not steal")
	}
	if got := int(pid); got != 2 && got != 3 {
		t.Fatalf("stole pid %d, want one of cpu 0's waiters", got)
	}
	// A busy queue must not steal.
	if _, ok := s.Balance(0); ok {
		t.Fatal("busy cpu stole work")
	}
}

func TestBalanceLeavesLoneWakeups(t *testing.T) {
	s := New(newEnv(4), 1)
	// One task queued on an idle cpu (it is about to run there).
	s.TaskNew(1, 0, true, nil, tok(1, 0, 1))
	if _, ok := s.Balance(2); ok {
		t.Fatal("stole the only waiting task from an idle core")
	}
}

func TestMigrateReturnsOldToken(t *testing.T) {
	s := New(newEnv(4), 1)
	old := tok(1, 0, 1)
	s.TaskNew(1, 0, true, nil, old)
	newTok := tok(1, 2, 2)
	got := s.MigrateTaskRQ(1, 2, newTok)
	if got != old {
		t.Fatalf("migrate returned %v, want the old token", got)
	}
	if picked := s.PickNextTask(2, nil, 0); picked != newTok {
		t.Fatalf("task did not move to new queue: %v", picked)
	}
}

func TestDepartedReturnsToken(t *testing.T) {
	s := New(newEnv(2), 1)
	proof := tok(1, 0, 1)
	s.TaskNew(1, 0, true, nil, proof)
	if got := s.TaskDeparted(1, 0); got != proof {
		t.Fatalf("departed returned %v", got)
	}
	if s.PickNextTask(0, nil, 0) != nil {
		t.Fatal("departed task still queued")
	}
	if s.TaskDeparted(99, 0) != nil {
		t.Fatal("unknown departed returned a token")
	}
}

func TestPntErrRequeues(t *testing.T) {
	s := New(newEnv(2), 1)
	proof := tok(1, 0, 1)
	s.TaskNew(1, 0, true, nil, proof)
	got := s.PickNextTask(0, nil, 0)
	// The kernel rejects the pick and hands the proof back.
	s.PntErr(0, 1, core.PickWrongCPU, got)
	if again := s.PickNextTask(0, nil, 0); again != got {
		t.Fatalf("task not requeued after pnt_err: %v", again)
	}
}

func TestPrioChangedReweights(t *testing.T) {
	s := New(newEnv(1), 1)
	s.TaskNew(1, 0, true, nil, tok(1, 0, 1))
	s.TaskNew(2, 0, true, nil, tok(2, 0, 1))
	s.TaskPrioChanged(2, 19) // minimum priority
	s.PickNextTask(0, nil, 0)
	// pid 1 at nice 0 runs 10ms: its vruntime grows ~10ms-worth;
	// pid 2's weight is 15, so had pid 2 run the same wall time its
	// vruntime would be ~68x larger. After requeue, pid 2 (never ran)
	// still goes first, then running it briefly sends it far back.
	s.TaskPreempt(1, 10*time.Millisecond, 0, true, tok(1, 0, 2))
	if got := s.PickNextTask(0, nil, 0); got.PID() != 2 {
		t.Fatalf("unrun low-prio task should still pick first, got %d", got.PID())
	}
	s.TaskPreempt(2, time.Millisecond, 0, true, tok(2, 0, 2))
	if got := s.PickNextTask(0, nil, 0); got.PID() != 1 {
		t.Fatalf("after 1ms at weight 15, pid 2 should be far behind; got %d", got.PID())
	}
}

func TestUpgradeStateTransfer(t *testing.T) {
	env := newEnv(2)
	s1 := New(env, 1)
	s1.TaskNew(1, 0, true, nil, tok(1, 0, 1))
	s1.TaskNew(2, 0, true, nil, tok(2, 1, 1))
	out := s1.ReregisterPrepare()
	if out == nil || out.State == nil {
		t.Fatal("no state exported")
	}
	s2 := New(env, 1)
	s2.ReregisterInit(&core.TransferIn{State: out.State})
	if got := s2.PickNextTask(0, nil, 0); got == nil || got.PID() != 1 {
		t.Fatalf("new version lost cpu0 task: %v", got)
	}
	if got := s2.PickNextTask(1, nil, 0); got == nil || got.PID() != 2 {
		t.Fatalf("new version lost cpu1 task: %v", got)
	}
	if got := s1.PickNextTask(0, nil, 0); got == nil || got.PID() != 1 {
		t.Fatal("the capsule shares the exporter's queues: a rollback would resume from changed state")
	}
}

func TestAffinityRestrictsStealing(t *testing.T) {
	s := New(newEnv(4), 1)
	// Two tasks pinned to cpu 0, queued there with one running.
	s.TaskNew(1, 0, true, []int{0}, tok(1, 0, 1))
	s.TaskNew(2, 0, true, []int{0}, tok(2, 0, 1))
	s.TaskNew(3, 0, true, []int{0}, tok(3, 0, 1))
	s.PickNextTask(0, nil, 0)
	if _, ok := s.Balance(2); ok {
		t.Fatal("stole a task pinned elsewhere")
	}
}

func TestSelectPrefersIdlePrev(t *testing.T) {
	s := New(newEnv(4), 1)
	s.TaskNew(1, 0, false, nil, nil)
	if got := s.SelectTaskRQ(1, 3, true); got != 3 {
		t.Fatalf("wakeup select = %d, want idle prev 3", got)
	}
	// Make cpu 3 busy; select should move off it for fork placement.
	s.TaskNew(2, 0, true, nil, tok(2, 3, 1))
	s.PickNextTask(3, nil, 0)
	if got := s.SelectTaskRQ(1, 3, false); got == 3 {
		t.Fatal("fork select kept the busy cpu despite idle ones")
	}
}

func TestTickSliceExpiry(t *testing.T) {
	env := newEnv(1)
	s := New(env, 1)
	if s.GetPolicy() != 1 {
		t.Fatal("policy")
	}
	s.TaskNew(1, 0, true, nil, tok(1, 0, 1))
	s.TaskNew(2, 0, true, nil, tok(2, 0, 1))
	s.PickNextTask(0, nil, 0)
	// Before the slice is used up: no resched.
	s.TaskTick(0, false, 1, time.Millisecond)
	if len(env.rescheds) != 0 {
		t.Fatalf("early resched: %v", env.rescheds)
	}
	// After exceeding the fair slice (6ms/2 tasks = 3ms): resched.
	s.TaskTick(0, false, 1, 10*time.Millisecond)
	if len(env.rescheds) == 0 {
		t.Fatal("slice expiry did not resched")
	}
	// Tick for a stale pid is ignored.
	env.rescheds = nil
	s.TaskTick(0, false, 99, time.Second)
	if len(env.rescheds) != 0 {
		t.Fatal("stale tick resched")
	}
}

func TestYieldDeadAndCounters(t *testing.T) {
	s := New(newEnv(2), 1)
	s.TaskNew(1, 0, true, nil, tok(1, 0, 1))
	got := s.PickNextTask(0, nil, 0)
	_ = got
	s.TaskYield(1, time.Millisecond, 0, tok(1, 0, 2))
	if s.NRunnable(0) != 1 {
		t.Fatalf("NRunnable = %d", s.NRunnable(0))
	}
	s.TaskDead(1)
	if s.NRunnable(0) != 0 {
		t.Fatal("dead task still queued")
	}
	s.TaskDead(1) // idempotent
	s.TaskAffinityChanged(99, nil)
	s.TaskAffinityChanged(1, []int{0})
}

func TestPeriodScaling(t *testing.T) {
	if period(4) != targetLatency {
		t.Fatal("small period")
	}
	if period(20) != 20*minGranularity {
		t.Fatal("scaled period")
	}
}

func TestRunqNr(t *testing.T) {
	rq := &newRunqs(1)[0]
	if rq.nr() != 0 {
		t.Fatal("empty nr")
	}
	tk := &task{pid: 1, weight: 1024}
	rq.tree.InsertNode(&tk.node, 0, tk)
	rq.curr = &task{pid: 2, weight: 1024}
	if rq.nr() != 2 {
		t.Fatalf("nr = %d", rq.nr())
	}
}
