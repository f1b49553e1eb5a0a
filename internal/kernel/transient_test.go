package kernel

import (
	"testing"
	"time"

	"enoki/internal/sim"
)

// exitCounter is a one-segment transient task body that counts its exits.
type exitCounter struct {
	run   time.Duration
	exits int
}

func (b *exitCounter) Next(*Kernel, *Task) Action { return Action{Run: b.run, Op: OpExit} }
func (b *exitCounter) Exited(*Task)               { b.exits++ }

// TestTransientRecordReusedWithFreshIdentity: the record is reused, the
// identity is not — a dense, never-reused pid, and none of the previous
// tenant's UserData, class data, observers, accounting or pending Wake list.
func TestTransientRecordReusedWithFreshIdentity(t *testing.T) {
	k, _ := newTestKernel(Machine8())
	sleeper := k.Spawn("sleeper", testPolicyCFS, &scriptBehavior{actions: []Action{{Op: OpBlock}}})
	observed := 0
	k.SpawnTransient("first", testPolicyCFS, BehaviorFunc(func(_ *Kernel, t *Task) Action {
		t.UserData = "first tenant"
		t.SetClassData("first tenant")
		t.OnWake = func(time.Duration) { observed++ }
		t.OnExit = func() { observed++ }
		return Action{Run: 5 * time.Microsecond, Op: OpExit, Wake: []*Task{sleeper}}
	}))
	rec := k.TaskByPID(2)
	k.RunFor(time.Millisecond)
	if observed != 1 || len(k.free) != 1 || k.free[0] != rec {
		t.Fatalf("first tenant: %d observer calls, free list %v", observed, k.free)
	}

	second := &exitCounter{run: 5 * time.Microsecond}
	k.SpawnTransient("second", testPolicyCFS, second)
	if got := k.TaskByPID(3); got != rec {
		t.Fatalf("second tenant got record %p, want the recycled %p", got, rec)
	}
	if k.TaskByPID(2) != nil {
		t.Fatal("the first tenant's pid still resolves")
	}
	if rec.UserData != nil || rec.classData != nil || rec.OnWake != nil || rec.OnExit != nil ||
		rec.pending.Wake != nil || rec.hasPending || rec.sumExec != 0 || rec.name != "second" {
		t.Fatalf("recycled record carries the previous tenant: %+v", rec)
	}
	k.RunFor(time.Millisecond)
	if second.exits != 1 || observed != 1 {
		t.Fatalf("second tenant: %d exits, %d calls into the first tenant's observers", second.exits, observed)
	}
}

// TestTransientRecordNotReusedUnderOutstandingWake: a sleep cut short by
// Kernel.Wake leaves its self-wake posted at the record. The task exits, and
// the next transient task blocks. Were the record reused, the first tenant's
// late wake would wake the second.
func TestTransientRecordNotReusedUnderOutstandingWake(t *testing.T) {
	k, _ := newTestKernel(Machine8())
	k.SpawnTransient("napper", testPolicyCFS, &scriptBehavior{actions: []Action{
		{Run: time.Microsecond, Op: OpSleep, SleepFor: 200 * time.Microsecond},
		{Run: time.Microsecond, Op: OpExit},
	}})
	napper := k.TaskByPID(1)
	k.RunFor(20 * time.Microsecond)
	if napper.state != StateBlocked || napper.wakesOut != 1 {
		t.Fatalf("napper %s with %d wakes out, want blocked with 1", napper, napper.wakesOut)
	}
	k.Wake(napper)
	k.RunFor(20 * time.Microsecond)
	if napper.state != StateDead || k.NumTasks() != 0 {
		t.Fatalf("napper did not exit after the early wake: %s", napper)
	}
	if len(k.free) != 0 {
		t.Fatal("record on the free list with a self-wake still posted at it")
	}

	k.SpawnTransient("blocker", testPolicyCFS, &scriptBehavior{actions: []Action{{Op: OpBlock}}})
	blocker := k.TaskByPID(2)
	if blocker == napper {
		t.Fatal("record reused while the first tenant's wake is outstanding")
	}
	wakeups := k.Wakeups
	k.RunFor(time.Millisecond) // the late wake fires in here
	if napper.wakesOut != 0 {
		t.Fatalf("late wake never fired: %d out", napper.wakesOut)
	}
	if blocker.state != StateBlocked || k.Wakeups != wakeups {
		t.Fatalf("the first tenant's late wake reached the second: %s, %d wakeups", blocker, k.Wakeups-wakeups)
	}
	if len(k.free) != 0 {
		t.Fatal("a record whose wake fired late belongs to the collector, not the free list")
	}

	// A sleep that runs its course leaves nothing outstanding: recycled.
	k.SpawnTransient("sleeper", testPolicyCFS, &scriptBehavior{actions: []Action{
		{Run: time.Microsecond, Op: OpSleep, SleepFor: 50 * time.Microsecond},
		{Run: time.Microsecond, Op: OpExit},
	}})
	sleeper := k.TaskByPID(3)
	k.RunFor(time.Millisecond)
	if len(k.free) != 1 || k.free[0] != sleeper {
		t.Fatalf("a task whose sleep ran out was not recycled: free list %v", k.free)
	}
}

// TestRecycledRecordKeepsEventSequence is the Bind-rewinds-seq hazard. The
// engine's very first arming (sequence 0) is a transient task's completion
// event; the task is preempted before it has run and re-picked at a lower
// overhead, so the re-armed completion lands before the first, whose entry
// stays in the wheel, stale. The task exits, its record is reused, and the
// stale entry comes due before the new tenant's first arming. The wheel
// knows stale entries only by sequence number: an event rewound to 0 on
// reuse would match, and the entry would fire the new tenant's completion.
func TestRecycledRecordKeepsEventSequence(t *testing.T) {
	drive := func(transient bool) (fired uint64, pending int, exits int) {
		costs := DefaultCosts()
		costs.IdleExitShallow = 5 * time.Microsecond // the new tenant starts after the stale entry is due
		eng := sim.New()
		k := New(eng, Machine8(), costs)
		k.RegisterClass(testPolicyCFS, NewCFS(k))
		first := &exitCounter{run: 20 * time.Microsecond}
		second := &exitCounter{run: 50 * time.Microsecond}

		k.beginBatch() // hold the kicks back: the completion event is the first thing armed
		var rec *Task
		if transient {
			k.SpawnTransient("first", testPolicyCFS, first)
			rec = k.TaskByPID(1)
		} else {
			rec = k.Spawn("first", testPolicyCFS, first)
		}
		k.schedule(rec.cpu) // arming 0: a context switch, then 20µs
		stale := rec.runEvent.Time()
		if eng.QueueLen() != 2 { // the completion and the CPU's tick
			t.Fatalf("queue holds %d entries after the first pick, want 2", eng.QueueLen())
		}
		k.Resched(rec.cpu)
		k.schedule(rec.cpu) // preempted at once and re-picked: no switch this time
		if !rec.runEvent.Time().Before(stale) {
			t.Fatalf("re-armed completion at %v, not before the stale entry at %v", rec.runEvent.Time(), stale)
		}
		k.flushBatch()

		// The second tenant arrives between the first one's exit and the
		// stale entry (a peek past the exit would otherwise find the entry
		// at the head of the queue and drop it while it is still stale).
		eng.PostAt(rec.runEvent.Time().Add(100*time.Nanosecond), func() {
			if first.exits != 1 {
				t.Fatalf("first tenant exited %d times", first.exits)
			}
			k.SpawnTransient("second", testPolicyCFS, second)
			if reused := k.TaskByPID(2) == rec; reused != transient {
				t.Fatalf("record reused = %v, want %v", reused, transient)
			}
		})
		eng.Run()
		return eng.Fired(), eng.Pending(), second.exits
	}
	fired, pending, exits := drive(true)
	wantFired, _, _ := drive(false)
	if exits != 1 || pending != 0 || fired != wantFired {
		t.Fatalf("over a recycled record: %d exits, %d pending, %d events fired; want 1, 0, %d",
			exits, pending, fired, wantFired)
	}
}

// arrivalOrderCFS is a CFS that notes the order tasks are handed to it in.
type arrivalOrderCFS struct {
	*CFS
	pids []int
}

func (c *arrivalOrderCFS) TaskNew(t *Task) {
	c.pids = append(c.pids, t.pid)
	c.CFS.TaskNew(t)
}

// TestPIDTableSlidesPastDeadTasks: 100,000 transient tasks come and go, one
// in a hundred of them longer-lived with 50 of those alive at any time. The
// pid table must stay sized to the span from the oldest live pid to the
// newest, not to every task ever spawned, and keep its contracts: dense
// never-reused pids, TaskByPID right for live pids, dead ones inside the
// window and ones slid past, RehomeTasks over exactly the live tasks in pid
// order.
func TestPIDTableSlidesPastDeadTasks(t *testing.T) {
	k, cfs := newTestKernel(Machine8())
	second := &arrivalOrderCFS{CFS: NewCFS(k)}
	k.RegisterClass(1, second)
	type resident struct {
		t    *Task
		stay bool
	}
	var live []*resident
	maxCap := 0
	for i := 1; i <= 100_000; i++ {
		if i%100 == 0 {
			r := &resident{stay: true}
			r.t = k.Spawn("resident", testPolicyCFS, BehaviorFunc(func(*Kernel, *Task) Action {
				if r.stay {
					return Action{Run: time.Microsecond, Op: OpBlock}
				}
				return Action{Op: OpExit}
			}))
			if live = append(live, r); len(live) > 50 {
				live[0].stay = false
				k.Wake(live[0].t)
				live = live[1:]
			}
		} else {
			k.SpawnTransient("transient", testPolicyCFS, &exitCounter{run: time.Microsecond})
		}
		if got := k.pidBase + len(k.tasks) - 1; got != i {
			t.Fatalf("spawn %d took pid %d", i, got)
		}
		k.RunFor(20 * time.Microsecond)
		maxCap = max(maxCap, cap(k.tasks))
	}
	k.RunFor(time.Millisecond)
	if k.NumTasks() != len(live) {
		t.Fatalf("%d tasks live, want the %d residents", k.NumTasks(), len(live))
	}
	// 50 residents a hundred pids apart: the window is ~5,000 pids, and the
	// table slides before the dead prefix outgrows it.
	if maxCap > 16_384 {
		t.Fatalf("pid table grew to %d slots for a live window of ~5,000 pids", maxCap)
	}
	if k.pidBase < 90_000 {
		t.Fatalf("pid window starts at %d after 100,000 spawns", k.pidBase)
	}
	for _, r := range live {
		if k.TaskByPID(r.t.pid) != r.t {
			t.Fatalf("live pid %d does not resolve", r.t.pid)
		}
	}
	oldest := live[0].t.pid
	for _, pid := range []int{-1, 0, 1, k.pidBase - 1, oldest + 1, 99_999, 100_001} {
		if got := k.TaskByPID(pid); got != nil {
			t.Fatalf("dead or unknown pid %d resolves to %s", pid, got)
		}
	}
	if n := k.RehomeTasks(cfs, 1); n != len(live) || len(second.pids) != n {
		t.Fatalf("RehomeTasks moved %d tasks (%d reached the new class), want %d", n, len(second.pids), len(live))
	}
	for i, r := range live {
		if second.pids[i] != r.t.pid {
			t.Fatalf("rehomed pids %v, want the residents in pid order", second.pids)
		}
	}
	k.DeregisterClass(testPolicyCFS, 1) // walks the same window: must find no stragglers
}
