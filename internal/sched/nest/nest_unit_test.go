package nest

import (
	"testing"

	"enoki/internal/core"
	"enoki/internal/schedtest"
)

func unit() (*Sched, *schedtest.Env) {
	env := schedtest.NewEnv(4)
	return New(env, 3), env
}

func TestUnitStartsWithOneCore(t *testing.T) {
	s, _ := unit()
	if s.NestSize() != 1 {
		t.Fatalf("initial nest = %d", s.NestSize())
	}
	// First placements go to core 0 while it has headroom.
	s.TaskNew(1, 0, false, nil, nil)
	if got := s.SelectTaskRQ(1, 3, true); got != 0 {
		t.Fatalf("first placement = %d", got)
	}
}

func TestUnitExpandsWhenSaturated(t *testing.T) {
	s, _ := unit()
	// Fill core 0: one running, one queued.
	s.TaskNew(1, 0, true, nil, schedtest.Tok(1, 0, 1))
	s.TaskNew(2, 0, true, nil, schedtest.Tok(2, 0, 1))
	s.PickNextTask(0, nil, 0)
	s.TaskNew(3, 0, false, nil, nil)
	got := s.SelectTaskRQ(3, 0, true)
	if got == 0 {
		t.Fatal("placed onto a saturated core")
	}
	if s.NestSize() != 2 || s.Expansions != 1 {
		t.Fatalf("nest = %d, expansions = %d", s.NestSize(), s.Expansions)
	}
}

func TestUnitToleratesOneWaiter(t *testing.T) {
	s, _ := unit()
	s.TaskNew(1, 0, true, nil, schedtest.Tok(1, 0, 1))
	s.PickNextTask(0, nil, 0)
	// One running, none queued: next placement shares core 0.
	s.TaskNew(2, 0, false, nil, nil)
	if got := s.SelectTaskRQ(2, 1, true); got != 0 {
		t.Fatalf("compactness bias broken: placed on %d", got)
	}
	if s.NestSize() != 1 {
		t.Fatalf("nest grew prematurely: %d", s.NestSize())
	}
}

func TestUnitShrinksAfterIdleSelects(t *testing.T) {
	s, _ := unit()
	// Expand to two cores.
	s.TaskNew(1, 0, true, nil, schedtest.Tok(1, 0, 1))
	s.TaskNew(2, 0, true, nil, schedtest.Tok(2, 0, 1))
	s.PickNextTask(0, nil, 0)
	s.TaskNew(3, 0, false, nil, nil)
	s.SelectTaskRQ(3, 0, true)
	if s.NestSize() != 2 {
		t.Fatalf("setup: nest = %d", s.NestSize())
	}
	// Drain everything; repeated placements of a single light task age
	// the now-idle second core until it demotes.
	s.TaskDead(1)
	s.TaskDead(2)
	for i := 0; i < 2000 && s.NestSize() > 1; i++ {
		s.SelectTaskRQ(3, 0, true)
	}
	if s.NestSize() != 1 || s.Shrinks == 0 {
		t.Fatalf("nest did not shrink: size=%d shrinks=%d", s.NestSize(), s.Shrinks)
	}
}

func TestUnitLifecycle(t *testing.T) {
	s, _ := unit()
	proof := schedtest.Tok(1, 0, 1)
	s.TaskNew(1, 0, true, nil, proof)
	got := s.PickNextTask(0, nil, 0)
	if got != proof {
		t.Fatalf("pick = %v", got)
	}
	s.PntErr(0, 1, core.PickWrongCPU, got)
	if s.PickNextTask(0, nil, 0) != got {
		t.Fatal("pnt_err token lost")
	}
	s.TaskPreempt(1, 0, 0, true, schedtest.Tok(1, 0, 2))
	s.PickNextTask(0, nil, 0)
	s.TaskYield(1, 0, 0, schedtest.Tok(1, 0, 3))
	s.PickNextTask(0, nil, 0)
	s.TaskBlocked(1, 0, 0)
	s.TaskWakeup(1, 0, true, 0, 0, schedtest.Tok(1, 0, 4))
	old := s.MigrateTaskRQ(1, 1, schedtest.Tok(1, 1, 5))
	if old == nil || old.Gen() != 4 {
		t.Fatalf("migrate old = %v", old)
	}
	dep := s.TaskDeparted(1, 1)
	if dep == nil || dep.Gen() != 5 {
		t.Fatalf("departed = %v", dep)
	}
	s.TaskDead(99)
}

func TestUnitUpgradeKeepsNest(t *testing.T) {
	s, env := unit()
	s.TaskNew(1, 0, true, nil, schedtest.Tok(1, 0, 1))
	out := s.ReregisterPrepare()
	s2 := New(env, 3)
	s2.ReregisterInit(&core.TransferIn{State: out.State})
	if got := s2.PickNextTask(0, nil, 0); got == nil || got.PID() != 1 {
		t.Fatal("state lost across upgrade")
	}
	if got := s.PickNextTask(0, nil, 0); got == nil || got.PID() != 1 {
		t.Fatal("the capsule shares the exporter's queues: a rollback would resume from changed state")
	}
}
