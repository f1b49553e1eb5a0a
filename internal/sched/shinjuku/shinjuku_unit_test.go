package shinjuku

import (
	"testing"
	"time"

	"enoki/internal/core"
	"enoki/internal/schedtest"
)

func unit() (*Sched, *schedtest.Env) {
	env := schedtest.NewEnv(4)
	return New(env, 8, 10*time.Microsecond), env
}

func TestUnitFCFSAcrossQueues(t *testing.T) {
	s, _ := unit()
	s.TaskNew(1, 0, true, nil, schedtest.Tok(1, 0, 1))
	s.TaskNew(2, 0, true, nil, schedtest.Tok(2, 1, 1))
	s.TaskNew(3, 0, true, nil, schedtest.Tok(3, 0, 1))
	// An empty cpu pulls the globally oldest waiting task from a BUSY
	// queue (cpu0 has two waiting, so its head is stealable).
	pid, ok := s.Balance(3)
	if !ok || pid != 1 {
		t.Fatalf("balance = %d,%v; want oldest (1)", pid, ok)
	}
	// Busy queues don't pull.
	if _, ok := s.Balance(0); ok {
		t.Fatal("non-empty cpu pulled")
	}
}

func TestUnitBalanceLeavesLoneWakeOnIdleCore(t *testing.T) {
	s, _ := unit()
	s.TaskNew(1, 0, true, nil, schedtest.Tok(1, 1, 1))
	if _, ok := s.Balance(2); ok {
		t.Fatal("stole a lone wakeup racing its own core's C-state exit")
	}
}

func TestUnitTimerArming(t *testing.T) {
	s, env := unit()
	s.TaskNew(1, 0, true, nil, schedtest.Tok(1, 0, 1))
	s.PickNextTask(0, nil, 0)
	if len(env.Timers) != 1 {
		t.Fatalf("timers = %d", len(env.Timers))
	}
	// Uncontended pick arms the long quantum.
	if env.Timers[0].D != time.Millisecond {
		t.Fatalf("uncontended quantum = %v", env.Timers[0].D)
	}
	// A wakeup behind the running task re-arms the tight quantum.
	s.TaskNew(2, 0, false, nil, nil)
	s.TaskWakeup(2, 0, true, 0, 0, schedtest.Tok(2, 0, 1))
	last := env.Timers[len(env.Timers)-1]
	if last.CPU != 0 || last.D != 10*time.Microsecond {
		t.Fatalf("contended re-arm = %+v", last)
	}
	// Contended pick arms the tight quantum too.
	s.TaskPreempt(1, 0, 0, true, schedtest.Tok(1, 0, 2))
	s.PickNextTask(0, nil, 0)
	last = env.Timers[len(env.Timers)-1]
	if last.D != 10*time.Microsecond {
		t.Fatalf("contended pick quantum = %v", last.D)
	}
}

func TestUnitPreemptGoesToGlobalTail(t *testing.T) {
	s, _ := unit()
	s.TaskNew(1, 0, true, nil, schedtest.Tok(1, 0, 1))
	s.PickNextTask(0, nil, 0)
	s.TaskNew(2, 0, true, nil, schedtest.Tok(2, 0, 1))
	s.TaskPreempt(1, 10*time.Microsecond, 0, true, schedtest.Tok(1, 0, 2))
	if got := s.PickNextTask(0, nil, 0); got.PID() != 2 {
		t.Fatalf("preempted task kept its slot: %d", got.PID())
	}
	if s.Preemptions != 1 {
		t.Fatalf("Preemptions = %d", s.Preemptions)
	}
}

func TestUnitMigratePreservesArrivalOrder(t *testing.T) {
	s, _ := unit()
	s.TaskNew(1, 0, true, nil, schedtest.Tok(1, 0, 1)) // oldest
	s.TaskNew(2, 0, true, nil, schedtest.Tok(2, 1, 1))
	// Move task 1 to cpu1: it must insert AHEAD of task 2 (older seq).
	old := s.MigrateTaskRQ(1, 1, schedtest.Tok(1, 1, 2))
	if old == nil || old.PID() != 1 {
		t.Fatalf("old token = %v", old)
	}
	if got := s.PickNextTask(1, nil, 0); got.PID() != 1 {
		t.Fatalf("arrival order lost on migrate: %d", got.PID())
	}
}

func TestUnitLifecycle(t *testing.T) {
	s, _ := unit()
	s.TaskNew(1, 0, true, nil, schedtest.Tok(1, 0, 1))
	got := s.PickNextTask(0, nil, 0)
	s.PntErr(0, 1, core.PickStale, got)
	if s.PickNextTask(0, nil, 0) != got {
		t.Fatal("pnt_err token lost")
	}
	s.TaskBlocked(1, 0, 0)
	s.TaskWakeup(1, 0, true, 0, 2, schedtest.Tok(1, 2, 2))
	if dep := s.TaskDeparted(1, 2); dep == nil || dep.Gen() != 2 {
		t.Fatalf("departed = %v", dep)
	}
	s.TaskDead(99) // unknown: no-op
	// Yield requeues.
	s.TaskNew(5, 0, true, nil, schedtest.Tok(5, 0, 1))
	s.PickNextTask(0, nil, 0)
	s.TaskYield(5, 0, 0, schedtest.Tok(5, 0, 2))
	if got := s.PickNextTask(0, nil, 0); got == nil || got.PID() != 5 {
		t.Fatal("yield lost the task")
	}
	s.TaskDead(5)
	if _, ok := s.Balance(1); ok {
		t.Fatal("dead task still balancing")
	}
}

func TestUnitAffinityRespected(t *testing.T) {
	s, _ := unit()
	s.TaskNew(1, 0, true, []int{2}, schedtest.Tok(1, 2, 1))
	if got := s.SelectTaskRQ(1, 0, true); got != 2 {
		t.Fatalf("select ignored affinity: %d", got)
	}
	if _, ok := s.Balance(3); ok {
		t.Fatal("balance ignored affinity")
	}
	s.TaskAffinityChanged(1, nil) // widen
	s.TaskNew(2, 0, true, nil, schedtest.Tok(2, 2, 1))
	if _, ok := s.Balance(3); !ok {
		t.Fatal("widened affinity still restricted")
	}
}

func TestUnitUpgradeCarriesQueues(t *testing.T) {
	s, env := unit()
	s.TaskNew(1, 0, true, nil, schedtest.Tok(1, 0, 1))
	out := s.ReregisterPrepare()
	s2 := New(env, 8, 0)
	s2.ReregisterInit(&core.TransferIn{State: out.State})
	if got := s2.PickNextTask(0, nil, 0); got == nil || got.PID() != 1 {
		t.Fatal("queue lost across upgrade")
	}
	if got := s.PickNextTask(0, nil, 0); got == nil || got.PID() != 1 {
		t.Fatal("the capsule shares the exporter's queues: a rollback would resume from changed state")
	}
}

func TestUnitDefaultSlice(t *testing.T) {
	env := schedtest.NewEnv(2)
	s := New(env, 8, 0)
	if s.slice != DefaultSlice {
		t.Fatalf("default slice = %v", s.slice)
	}
}

func TestUnitDegradedDropsTightSlice(t *testing.T) {
	s, env := unit()
	// Two tasks waiting on cpu 0: a contended pick arms the tight quantum.
	s.TaskNew(1, 0, true, nil, schedtest.Tok(1, 0, 1))
	s.TaskNew(2, 0, true, nil, schedtest.Tok(2, 0, 1))
	s.PickNextTask(0, nil, 0)
	if got := env.Timers[len(env.Timers)-1].D; got != 10*time.Microsecond {
		t.Fatalf("contended healthy quantum = %v, want 10µs", got)
	}

	// Degraded: the same contended pick runs at the long quantum, and a
	// wakeup behind a running task no longer slices it tightly.
	s.SetDegraded(true)
	s.TaskNew(3, 0, true, nil, schedtest.Tok(3, 0, 1))
	s.PickNextTask(0, nil, 0)
	if got := env.Timers[len(env.Timers)-1].D; got != time.Millisecond {
		t.Fatalf("contended degraded quantum = %v, want 1ms", got)
	}
	s.TaskNew(4, 0, true, nil, schedtest.Tok(4, 0, 1))
	s.TaskWakeup(4, 0, false, 0, 0, schedtest.Tok(4, 0, 1))
	if got := env.Timers[len(env.Timers)-1].D; got != time.Millisecond {
		t.Fatalf("degraded wakeup slice = %v, want 1ms", got)
	}

	// Recovery restores the tight quantum.
	s.SetDegraded(false)
	s.TaskWakeup(4, 0, false, 0, 0, schedtest.Tok(4, 0, 1))
	if got := env.Timers[len(env.Timers)-1].D; got != 10*time.Microsecond {
		t.Fatalf("recovered wakeup slice = %v, want 10µs", got)
	}
}
