package locality

import (
	"testing"

	"enoki/internal/core"
	"enoki/internal/schedtest"
)

func unit() (*Sched, *schedtest.Env) {
	env := schedtest.NewEnv(4)
	return New(env, 9), env
}

func TestUnitPickFIFO(t *testing.T) {
	s, _ := unit()
	s.TaskNew(1, 0, true, nil, schedtest.Tok(1, 2, 1))
	s.TaskNew(2, 0, true, nil, schedtest.Tok(2, 2, 1))
	if got := s.PickNextTask(2, nil, 0); got.PID() != 1 {
		t.Fatalf("first = %d", got.PID())
	}
	if got := s.PickNextTask(2, nil, 0); got.PID() != 2 {
		t.Fatalf("second = %d", got.PID())
	}
	if s.PickNextTask(2, nil, 0) != nil {
		t.Fatal("empty pick")
	}
}

func TestUnitHintedPlacementSticksPerGroup(t *testing.T) {
	s, _ := unit()
	s.TaskNew(1, 0, false, nil, nil)
	s.TaskNew(2, 0, false, nil, nil)
	s.ParseHint(HintMsg{PID: 1, Locality: 5})
	s.ParseHint(HintMsg{PID: 2, Locality: 5})
	c1 := s.SelectTaskRQ(1, 3, true)
	c2 := s.SelectTaskRQ(2, 0, true)
	if c1 != c2 {
		t.Fatalf("group split: %d vs %d", c1, c2)
	}
	if got, ok := s.GroupCore(5); !ok || got != c1 {
		t.Fatalf("GroupCore = %d/%v", got, ok)
	}
	if s.HintsApplied < 2 {
		t.Fatalf("HintsApplied = %d", s.HintsApplied)
	}
}

func TestUnitDistinctGroupsSpread(t *testing.T) {
	s, _ := unit()
	for pid := 1; pid <= 3; pid++ {
		s.TaskNew(pid, 0, false, nil, nil)
		s.ParseHint(HintMsg{PID: pid, Locality: pid})
	}
	cores := map[int]bool{}
	for pid := 1; pid <= 3; pid++ {
		cores[s.SelectTaskRQ(pid, 0, true)] = true
	}
	if len(cores) != 3 {
		t.Fatalf("3 groups on %d cores", len(cores))
	}
}

func TestUnitIgnoresBadHintType(t *testing.T) {
	s, _ := unit()
	s.ParseHint("not a hint") // must not panic or record anything
	if s.HintsApplied != 0 {
		t.Fatal("bad hint applied")
	}
}

func TestUnitTickRoundRobins(t *testing.T) {
	s, env := unit()
	s.TaskNew(1, 0, true, nil, schedtest.Tok(1, 0, 1))
	s.TaskNew(2, 0, true, nil, schedtest.Tok(2, 0, 1))
	s.PickNextTask(0, nil, 0)
	s.TaskTick(0, false, 1, 0)
	if len(env.Rescheds) == 0 {
		t.Fatal("tick with waiter did not resched")
	}
	// Empty queue: no resched.
	env.Rescheds = nil
	s.PickNextTask(0, nil, 0)
	s.TaskTick(0, false, 2, 0)
	if len(env.Rescheds) != 0 {
		t.Fatal("tick without waiter resched")
	}
}

func TestUnitLifecycleHooks(t *testing.T) {
	s, _ := unit()
	proof := schedtest.Tok(1, 1, 1)
	s.TaskNew(1, 0, true, nil, proof)
	s.ParseHint(HintMsg{PID: 1, Locality: 3})

	// Preempt/yield requeue.
	got := s.PickNextTask(1, nil, 0)
	s.TaskPreempt(1, 0, 1, true, schedtest.Tok(1, 1, 2))
	got = s.PickNextTask(1, nil, 0)
	s.TaskYield(1, 0, 1, schedtest.Tok(1, 1, 3))
	got = s.PickNextTask(1, nil, 0)
	if got == nil || got.PID() != 1 {
		t.Fatalf("requeue chain broke: %v", got)
	}

	// Blocked clears the held token.
	s.TaskBlocked(1, 0, 1)

	// Wake, migrate, depart.
	s.TaskWakeup(1, 0, true, 1, 2, schedtest.Tok(1, 2, 4))
	old := s.MigrateTaskRQ(1, 3, schedtest.Tok(1, 3, 5))
	if old == nil || old.Gen() != 4 {
		t.Fatalf("migrate returned %v", old)
	}
	dep := s.TaskDeparted(1, 3)
	if dep == nil || dep.Gen() != 5 {
		t.Fatalf("departed returned %v", dep)
	}
	// Dead on an unknown pid is a no-op.
	s.TaskDead(99)
}

func TestUnitPntErrRestores(t *testing.T) {
	s, _ := unit()
	s.TaskNew(1, 0, true, nil, schedtest.Tok(1, 0, 1))
	got := s.PickNextTask(0, nil, 0)
	s.PntErr(0, 1, core.PickWrongCPU, got)
	if s.PickNextTask(0, nil, 0) != got {
		t.Fatal("pnt_err token lost")
	}
}

func TestUnitQueueRegistration(t *testing.T) {
	s, _ := unit()
	q := core.NewHintQueue(4)
	if id := s.RegisterQueue(q); id != 1 {
		t.Fatalf("id = %d", id)
	}
	rq := core.NewRevQueue(4)
	if id := s.RegisterReverseQueue(rq); id != 2 {
		t.Fatalf("rev id = %d", id)
	}
	q.Push(HintMsg{PID: 1, Locality: 1})
	s.TaskNew(1, 0, false, nil, nil)
	s.EnterQueue(1, 5) // count > queued: drains what exists
	if _, ok := s.GroupCore(1); ok {
		// Group core assigned only on placement, not on hint.
		t.Fatal("hint should not place eagerly")
	}
	s.SelectTaskRQ(1, 0, true)
	if _, ok := s.GroupCore(1); !ok {
		t.Fatal("hint not recorded via queue")
	}
	if s.UnregisterQueue(1) != q {
		t.Fatal("unregister queue")
	}
	if s.UnregisterRevQueue(2) != rq {
		t.Fatal("unregister rev queue")
	}
	// EnterQueue with no queue attached must not panic.
	s.EnterQueue(1, 1)
}

func TestUnitUpgradeKeepsGroups(t *testing.T) {
	s, env := unit()
	s.TaskNew(1, 0, false, nil, nil)
	s.ParseHint(HintMsg{PID: 1, Locality: 8})
	s.SelectTaskRQ(1, 0, true)
	out := s.ReregisterPrepare()
	s2 := New(env, 9)
	s2.ReregisterInit(&core.TransferIn{State: out.State})
	if _, ok := s2.GroupCore(8); !ok {
		t.Fatal("group map lost across upgrade")
	}
	s2.TaskNew(2, 0, false, nil, nil)
	s2.ParseHint(HintMsg{PID: 2, Locality: 9})
	s2.SelectTaskRQ(2, 0, true)
	if _, ok := s.GroupCore(9); ok {
		t.Fatal("the capsule shares the exporter's maps: a rollback would resume from changed state")
	}
}

func TestUnitDegradedDropsSpillover(t *testing.T) {
	s, _ := unit()
	// Occupy the group's home core (round-robin claim lands on cpu 0)
	// past maxGroupQueue so a hinted placement must spill.
	for pid := 1; pid <= maxGroupQueue; pid++ {
		s.TaskNew(pid, 0, true, nil, schedtest.Tok(pid, 0, 1))
	}
	s.TaskNew(100, 0, false, nil, nil)
	s.ParseHint(HintMsg{PID: 100, Locality: 5})
	s.TaskNew(101, 0, false, nil, nil)
	s.ParseHint(HintMsg{PID: 101, Locality: 5})

	// Claim the home core for the group, overloaded from the start: the
	// first placement already spills to an LLC sibling.
	if s.SelectTaskRQ(100, 0, true) == 0 {
		t.Fatal("placement landed on the saturated home core")
	}
	if s.HintsRedirected != 1 || s.HintsIgnored != 0 {
		t.Fatalf("healthy spill: redirected=%d ignored=%d", s.HintsRedirected, s.HintsIgnored)
	}

	// Degraded mode gives the sibling scan up: same overload now falls
	// straight through to the random path and counts an ignored hint.
	s.SetDegraded(true)
	s.SelectTaskRQ(101, 0, true)
	if s.HintsRedirected != 1 || s.HintsIgnored != 1 {
		t.Fatalf("degraded spill: redirected=%d ignored=%d", s.HintsRedirected, s.HintsIgnored)
	}

	// Recovery restores spillover.
	s.SetDegraded(false)
	s.TaskNew(102, 0, false, nil, nil)
	s.ParseHint(HintMsg{PID: 102, Locality: 5})
	s.SelectTaskRQ(102, 0, true)
	if s.HintsRedirected != 2 {
		t.Fatalf("recovered spill: redirected=%d", s.HintsRedirected)
	}
}
