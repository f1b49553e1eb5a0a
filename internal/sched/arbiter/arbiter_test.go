package arbiter

import (
	"testing"
	"time"

	"enoki/internal/core"
	"enoki/internal/ktime"
)

type fakeEnv struct {
	cpus     int
	rescheds []int
}

type nopLock struct{}

func (nopLock) Lock()   {}
func (nopLock) Unlock() {}

func (e *fakeEnv) Now() ktime.Time                   { return 0 }
func (e *fakeEnv) NumCPUs() int                      { return e.cpus }
func (e *fakeEnv) SameNode(a, b int) bool            { return true }
func (e *fakeEnv) Topology() *core.Topology          { return core.FlatTopology(e.cpus) }
func (e *fakeEnv) ArmTimer(cpu int, d time.Duration) {}
func (e *fakeEnv) Resched(cpu int)                   { e.rescheds = append(e.rescheds, cpu) }
func (e *fakeEnv) Rand() *ktime.Rand                 { return ktime.NewRand(1) }
func (e *fakeEnv) NewMutex(string) core.Locker       { return nopLock{} }

func tok(pid, cpu int, gen uint64) *core.Schedulable {
	return core.NewSchedulable(pid, cpu, gen)
}

// rig builds an arbiter managing cores 1..3 of a 4-cpu machine, with queues
// attached and one registered process.
func rig(t *testing.T) (*Sched, *core.HintQueue, *core.RevQueue, *fakeEnv) {
	t.Helper()
	env := &fakeEnv{cpus: 4}
	s := New(env, 1, []int{1, 2, 3})
	uq := core.NewHintQueue(16)
	if s.RegisterQueue(uq) < 0 {
		t.Fatal("queue rejected")
	}
	rq := core.NewRevQueue(16)
	if s.RegisterReverseQueue(rq) < 0 {
		t.Fatal("rev queue rejected")
	}
	return s, uq, rq, env
}

func TestGrantFlow(t *testing.T) {
	s, _, rq, _ := rig(t)
	// Register two activations for proc 7, then request 2 cores.
	s.TaskNew(10, 0, false, nil, nil)
	s.TaskNew(11, 0, false, nil, nil)
	s.ParseHint(RegisterActivation{ProcID: 7, PID: 10})
	s.ParseHint(RegisterActivation{ProcID: 7, PID: 11})
	s.ParseHint(CoreRequest{ProcID: 7, Cores: 2})

	if got := s.GrantedCores(7); got != 2 {
		t.Fatalf("granted = %d", got)
	}
	msgs := rq.Drain()
	if len(msgs) != 2 {
		t.Fatalf("grant messages = %d", len(msgs))
	}
	if g, ok := msgs[1].(GrantMsg); !ok || g.Cores != 2 {
		t.Fatalf("last grant = %+v", msgs[1])
	}

	// A waking activation gets routed to a granted core.
	target := s.SelectTaskRQ(10, 0, true)
	if target != 1 && target != 2 && target != 3 {
		t.Fatalf("activation routed to unmanaged core %d", target)
	}
}

func TestUngrantedActivationsShareCoreZero(t *testing.T) {
	s, _, _, _ := rig(t)
	s.TaskNew(10, 0, false, nil, nil)
	s.ParseHint(RegisterActivation{ProcID: 7, PID: 10})
	// No cores requested: activation lands on the unmanaged core.
	if got := s.SelectTaskRQ(10, 2, true); got != 0 {
		t.Fatalf("ungranted activation routed to %d, want shared core 0", got)
	}
}

func TestReclaimCollectsWhenParked(t *testing.T) {
	s, _, rq, _ := rig(t)
	s.TaskNew(10, 0, false, nil, nil)
	s.TaskNew(11, 0, false, nil, nil)
	s.ParseHint(RegisterActivation{ProcID: 7, PID: 10})
	s.ParseHint(RegisterActivation{ProcID: 7, PID: 11})
	s.ParseHint(CoreRequest{ProcID: 7, Cores: 2})
	// Bind both activations by waking them onto their cores.
	c1 := s.SelectTaskRQ(10, 0, true)
	s.TaskWakeup(10, 0, true, 0, c1, tok(10, c1, 1))
	c2 := s.SelectTaskRQ(11, 0, true)
	s.TaskWakeup(11, 0, true, 0, c2, tok(11, c2, 1))
	rq.Drain()

	// Shrink to 1 core: a reclaim message flows; nothing frees until an
	// activation parks.
	s.ParseHint(CoreRequest{ProcID: 7, Cores: 1})
	reclaims := 0
	for _, m := range rq.Drain() {
		if _, ok := m.(ReclaimMsg); ok {
			reclaims++
		}
	}
	if reclaims != 1 {
		t.Fatalf("reclaim messages = %d", reclaims)
	}
	if got := s.GrantedCores(7); got != 2 {
		t.Fatalf("core freed before the runtime parked: granted=%d", got)
	}
	// The runtime parks activation 11 (it blocks): the core frees.
	s.TaskBlocked(11, 0, c2)
	if got := s.GrantedCores(7); got != 1 {
		t.Fatalf("granted after park = %d, want 1", got)
	}
}

func TestReclaimCancelledOnReRequest(t *testing.T) {
	s, _, rq, _ := rig(t)
	s.TaskNew(10, 0, false, nil, nil)
	s.ParseHint(RegisterActivation{ProcID: 7, PID: 10})
	s.ParseHint(CoreRequest{ProcID: 7, Cores: 2})
	c1 := s.SelectTaskRQ(10, 0, true)
	s.TaskWakeup(10, 0, true, 0, c1, tok(10, c1, 1))
	rq.Drain()
	s.ParseHint(CoreRequest{ProcID: 7, Cores: 1}) // owe one back
	s.ParseHint(CoreRequest{ProcID: 7, Cores: 2}) // changed our mind
	// The cancel must be announced as a grant restoring the count.
	found := false
	for _, m := range rq.Drain() {
		if g, ok := m.(GrantMsg); ok && g.Cores == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("re-request did not cancel the owed reclaim")
	}
	if got := s.GrantedCores(7); got != 2 {
		t.Fatalf("granted = %d", got)
	}
}

func TestTwoProcsShareManagedCores(t *testing.T) {
	s, _, _, _ := rig(t)
	s.ParseHint(CoreRequest{ProcID: 1, Cores: 2})
	s.ParseHint(CoreRequest{ProcID: 2, Cores: 2})
	if a, b := s.GrantedCores(1), s.GrantedCores(2); a != 2 || b != 1 {
		t.Fatalf("grants = %d,%d; want first-come 2,1 of 3 managed", a, b)
	}
	// Proc 1 shrinks with nothing running: proc 2 gets the remainder.
	s.ParseHint(CoreRequest{ProcID: 1, Cores: 1})
	if a, b := s.GrantedCores(1), s.GrantedCores(2); a != 1 || b != 2 {
		t.Fatalf("after shrink = %d,%d", a, b)
	}
}

func TestEnterQueueDrainsHints(t *testing.T) {
	s, uq, _, _ := rig(t)
	uq.Push(CoreRequest{ProcID: 3, Cores: 1})
	uq.Push(RegisterActivation{ProcID: 3, PID: 55})
	s.EnterQueue(1, 2)
	if got := s.GrantedCores(3); got != 1 {
		t.Fatalf("hints not applied: granted=%d", got)
	}
}

func TestUpgradeCarriesQueuesAndState(t *testing.T) {
	s, _, _, env := rig(t)
	s.ParseHint(CoreRequest{ProcID: 7, Cores: 2})
	out := s.ReregisterPrepare()
	s2 := New(env, 1, []int{1, 2, 3})
	s2.ReregisterInit(&core.TransferIn{State: out.State})
	if got := s2.GrantedCores(7); got != 2 {
		t.Fatalf("grants lost across upgrade: %d", got)
	}
	s2.ParseHint(CoreRequest{ProcID: 7, Cores: 0})
	if got := s.GrantedCores(7); got != 2 {
		t.Fatalf("the capsule shares the exporter's grants: %d after the successor released them", got)
	}
}
