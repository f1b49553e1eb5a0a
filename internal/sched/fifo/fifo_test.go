package fifo

import (
	"testing"
	"time"

	"enoki/internal/core"
	"enoki/internal/ktime"
)

type fakeEnv struct{ cpus int }

type nopLock struct{}

func (nopLock) Lock()   {}
func (nopLock) Unlock() {}

func (e *fakeEnv) Now() ktime.Time                   { return 0 }
func (e *fakeEnv) NumCPUs() int                      { return e.cpus }
func (e *fakeEnv) SameNode(a, b int) bool            { return true }
func (e *fakeEnv) Topology() *core.Topology          { return core.FlatTopology(e.cpus) }
func (e *fakeEnv) ArmTimer(cpu int, d time.Duration) {}
func (e *fakeEnv) Resched(cpu int)                   {}
func (e *fakeEnv) Rand() *ktime.Rand                 { return ktime.NewRand(1) }
func (e *fakeEnv) NewMutex(string) core.Locker       { return nopLock{} }

func tok(pid, cpu int) *core.Schedulable { return core.NewSchedulable(pid, cpu, 1) }

func TestFIFOOrder(t *testing.T) {
	s := New(&fakeEnv{cpus: 2}, 1)
	for pid := 1; pid <= 3; pid++ {
		s.TaskNew(pid, 0, true, nil, tok(pid, 0))
	}
	for want := 1; want <= 3; want++ {
		got := s.PickNextTask(0, nil, 0)
		if got == nil || got.PID() != want {
			t.Fatalf("pick %d = %v", want, got)
		}
	}
	if s.PickNextTask(0, nil, 0) != nil {
		t.Fatal("empty queue returned a task")
	}
}

func TestWakeupGoesToBack(t *testing.T) {
	s := New(&fakeEnv{cpus: 1}, 1)
	s.TaskNew(1, 0, true, nil, tok(1, 0))
	s.TaskNew(2, 0, false, nil, nil)
	s.TaskWakeup(2, 0, true, 0, 0, tok(2, 0))
	if got := s.PickNextTask(0, nil, 0); got.PID() != 1 {
		t.Fatalf("first = %d", got.PID())
	}
	if got := s.PickNextTask(0, nil, 0); got.PID() != 2 {
		t.Fatalf("second = %d", got.PID())
	}
}

func TestSelectPicksShortestQueue(t *testing.T) {
	s := New(&fakeEnv{cpus: 3}, 1)
	s.TaskNew(1, 0, true, nil, tok(1, 0))
	s.TaskNew(2, 0, true, nil, tok(2, 0))
	s.TaskNew(3, 0, true, nil, tok(3, 1))
	if got := s.SelectTaskRQ(9, 0, false); got != 2 {
		t.Fatalf("fork select = %d, want empty cpu 2", got)
	}
	if got := s.SelectTaskRQ(9, 1, true); got != 1 {
		t.Fatalf("wakeup select = %d, want prev", got)
	}
}

func TestMigrateMovesEntry(t *testing.T) {
	s := New(&fakeEnv{cpus: 2}, 1)
	old := tok(1, 0)
	s.TaskNew(1, 0, true, nil, old)
	got := s.MigrateTaskRQ(1, 1, tok(1, 1))
	if got != old {
		t.Fatalf("migrate returned %v", got)
	}
	if s.QueueLen(0) != 0 || s.QueueLen(1) != 1 {
		t.Fatalf("queues = %d/%d", s.QueueLen(0), s.QueueLen(1))
	}
}

func TestPntErrRequeuesAtHead(t *testing.T) {
	s := New(&fakeEnv{cpus: 1}, 1)
	s.TaskNew(1, 0, true, nil, tok(1, 0))
	s.TaskNew(2, 0, true, nil, tok(2, 0))
	first := s.PickNextTask(0, nil, 0)
	s.PntErr(0, first.PID(), core.PickStale, first)
	if got := s.PickNextTask(0, nil, 0); got != first {
		t.Fatalf("pnt_err should requeue at head, got %v", got)
	}
}

func TestUpgradeTransfersQueues(t *testing.T) {
	env := &fakeEnv{cpus: 2}
	s1 := New(env, 1)
	s1.TaskNew(1, 0, true, nil, tok(1, 0))
	out := s1.ReregisterPrepare()
	s2 := New(env, 1)
	s2.ReregisterInit(&core.TransferIn{State: out.State})
	if got := s2.PickNextTask(0, nil, 0); got == nil || got.PID() != 1 {
		t.Fatalf("state not adopted: %v", got)
	}
	if got := s1.PickNextTask(0, nil, 0); got == nil || got.PID() != 1 {
		t.Fatal("the capsule shares the exporter's queues: a rollback would resume from changed state")
	}
}

func TestDepartedRemoves(t *testing.T) {
	s := New(&fakeEnv{cpus: 2}, 1)
	proof := tok(1, 1)
	s.TaskNew(1, 0, true, nil, proof)
	if got := s.TaskDeparted(1, 1); got != proof {
		t.Fatalf("departed = %v", got)
	}
	if s.QueueLen(1) != 0 {
		t.Fatal("entry not removed")
	}
}
