package enokic

import (
	"testing"
	"time"

	"enoki/internal/core"
	"enoki/internal/kernel"
	"enoki/internal/schedtest"
	"enoki/internal/sim"
)

// hoarder is the clumsy module of §3.1 at its worst: it keeps every proof it
// was ever handed, never gives one back on a migration, and returns from
// pick_next_task whatever the test scripts into next.
type hoarder struct {
	core.BaseScheduler
	seen []*core.Schedulable
	next *core.Schedulable
	errs []core.PickError
}

func (h *hoarder) GetPolicy() int { return policyEnoki }
func (h *hoarder) TaskNew(pid int, rt time.Duration, runnable bool, allowed []int, s *core.Schedulable) {
	h.seen = append(h.seen, s)
}
func (h *hoarder) TaskPreempt(pid int, rt time.Duration, cpu int, preempted bool, s *core.Schedulable) {
	h.seen = append(h.seen, s)
}
func (h *hoarder) TaskWakeup(pid int, rt time.Duration, d bool, l, w int, s *core.Schedulable) {}
func (h *hoarder) TaskYield(pid int, rt time.Duration, cpu int, s *core.Schedulable)           {}
func (h *hoarder) TaskDeparted(pid, cpu int) *core.Schedulable                                 { return nil }
func (h *hoarder) SelectTaskRQ(pid, prev int, wakeup bool) int                                 { return prev }
func (h *hoarder) MigrateTaskRQ(pid, newCPU int, s *core.Schedulable) *core.Schedulable {
	h.seen = append(h.seen, s)
	return nil
}
func (h *hoarder) PickNextTask(cpu int, curr *core.Schedulable, rt time.Duration) *core.Schedulable {
	tok := h.next
	h.next = nil
	return tok
}
func (h *hoarder) PntErr(cpu, pid int, err core.PickError, s *core.Schedulable) {
	h.errs = append(h.errs, err)
}

// TestRetainedTokensStillFailAfterThousandsOfIssues is the reason tokens are
// chunk-allocated but never recycled: a consumed pointer and a superseded
// one, both kept by the module, are re-presented after thousands of later
// issues have filled and left their chunk, and each still fails validation
// for what it is. Only the live proof on its own CPU gets the task run. The
// class hooks are driven by hand (the engine never runs), so the test
// decides exactly which pointer comes back when.
func TestRetainedTokensStillFailAfterThousandsOfIssues(t *testing.T) {
	h := &hoarder{}
	k, a := newRig(t, func(core.Env) core.Scheduler { return h })
	var mask kernel.CPUMask
	mask.Set(2)
	mask.Set(3)
	task := k.Spawn("t", policyEnoki, spin(time.Millisecond, time.Millisecond), kernel.WithAffinity(mask))
	home := task.CPU()

	// An honest pick consumes the first proof; the preemption that follows
	// issues a second, which the migration right after supersedes while the
	// module hangs on to it.
	consumed := h.seen[0]
	h.next = consumed
	if got := a.PickNext(home); got != task {
		t.Fatalf("honest pick returned %v, want %v", got, task)
	}
	a.PutPrev(home, task, true)
	stale := h.seen[1]
	for i := 0; i < 3000; i++ {
		if !k.MoveTask(task, 5-task.CPU()) {
			t.Fatalf("move %d refused", i)
		}
	}
	live := h.seen[len(h.seen)-1]
	if !consumed.Consumed() || stale.Consumed() || stale.Gen() == live.Gen() {
		t.Fatalf("setup: consumed=%v stale=%v live=%v", consumed, stale, live)
	}

	cpu := task.CPU()
	for _, c := range []struct {
		tok  *core.Schedulable
		cpu  int
		want core.PickError
	}{
		{consumed, cpu, core.PickConsumed},
		{stale, cpu, core.PickStale},
		{live, 5 - cpu, core.PickWrongCPU},
		{core.NewSchedulable(task.PID(), cpu, live.Gen()+1), cpu, core.PickStale},
	} {
		h.next = c.tok
		if got := a.PickNext(c.cpu); got != nil {
			t.Fatalf("%v on cpu %d validated and picked %v", c.tok, c.cpu, got)
		}
		if last := h.errs[len(h.errs)-1]; last != c.want {
			t.Errorf("%v on cpu %d: pnt_err %v, want %v", c.tok, c.cpu, last, c.want)
		}
	}
	if n := a.Stats().PntErrs; n != 4 {
		t.Errorf("PntErrs = %d, want 4", n)
	}
	h.next = live
	if got := a.PickNext(cpu); got != task {
		t.Fatalf("live proof on its own cpu picked %v, want %v", got, task)
	}
	// The task dies: everything still out for it resolves to nothing.
	a.Dequeue(cpu, task, false)
	a.TaskDead(task)
	h.next = live
	if got := a.PickNext(cpu); got != nil || h.errs[len(h.errs)-1] != core.PickNotQueued {
		t.Errorf("proof of a dead task: picked %v, pnt_err %v", got, h.errs[len(h.errs)-1])
	}
}

// spyClass is a fallback class that notes whether a task ever arrived with
// another class's data still in its class-data slot.
type spyClass struct {
	kernel.Class
	foreign int
}

func (s *spyClass) TaskNew(t *kernel.Task) {
	if t.ClassData() != nil {
		s.foreign++
	}
	s.Class.TaskNew(t)
}

func spyRig(cfg Config, factory func(core.Env) core.Scheduler) (*kernel.Kernel, *Adapter, *spyClass) {
	k := kernel.New(sim.New(), kernel.Machine8(), kernel.DefaultCosts())
	a := Load(k, policyEnoki, cfg, factory)
	spy := &spyClass{Class: kernel.NewCFS(k)}
	k.RegisterClass(policyCFS, spy)
	return k, a, spy
}

// TestClassDataSlotOwnership walks a task out of the module and back: the
// slot is empty when the next class takes the task, the record the module
// tier had is dead to its old tokens, and the return trip starts from a
// fresh record (task_new again, generation 1), never the old one.
func TestClassDataSlotOwnership(t *testing.T) {
	k, a, spy := spyRig(DefaultConfig(), fifoFactory)
	task := k.Spawn("t", policyEnoki, spin(10*time.Millisecond, 100*time.Microsecond))
	k.RunFor(time.Millisecond)
	first := a.infoOf(task)
	if first == nil || first.gen == 0 {
		t.Fatalf("no adapter record in the class-data slot: %+v", first)
	}
	tok := a.issue(first, task.CPU())

	k.SetScheduler(task, policyCFS)
	if _, mine := task.ClassData().(*taskInfo); mine || a.infoOf(task) != nil {
		t.Fatal("adapter record still in the slot after Detach")
	}
	if a.infoOfToken(tok) != nil || a.infoByPID(task.PID()) != nil {
		t.Fatal("a departed task still resolves through its old token or its pid")
	}
	k.RunFor(time.Millisecond)

	k.SetScheduler(task, policyEnoki)
	second := a.infoOf(task)
	if second == nil || second == first {
		t.Fatalf("round trip reused the old record: first=%p second=%p", first, second)
	}
	if second.gen != 1 || !second.newSent {
		t.Errorf("fresh record: gen=%d newSent=%v, want 1 and true", second.gen, second.newSent)
	}
	if a.infoOfToken(tok) != nil {
		t.Error("a token of the first stay resolves to the second")
	}
	k.RunFor(50 * time.Millisecond)
	if task.State() != kernel.StateDead || task.ClassData() != nil {
		t.Errorf("task %v, slot %v after exit; want dead and empty", task, task.ClassData())
	}
	if spy.foreign != 0 || a.Stats().PntErrs != 0 {
		t.Errorf("foreign slot data seen %d times, %d pick errors", spy.foreign, a.Stats().PntErrs)
	}
}

// TestClassDataSlotAcrossRollbackAndKill: a rolled-back upgrade leaves every
// task with the adapter, so the records stay where they are; the kill that
// follows rehomes them, and the fallback class must find every slot empty.
func TestClassDataSlotAcrossRollbackAndKill(t *testing.T) {
	var inj *schedtest.Injector
	k, a, spy := spyRig(DefaultConfig(), func(env core.Env) core.Scheduler {
		inj = &schedtest.Injector{Scheduler: fifoFactory(env)}
		return inj
	})
	done := 0
	var tasks []*kernel.Task
	for i := 0; i < 12; i++ {
		tasks = append(tasks, k.Spawn("w", policyEnoki, sleeper(40, 100*time.Microsecond, 200*time.Microsecond),
			kernel.WithExitObserver(func() { done++ })))
	}
	k.RunFor(time.Millisecond)
	before := make([]*taskInfo, len(tasks))
	for i, task := range tasks {
		before[i] = a.infoOf(task)
	}
	var report UpgradeReport
	a.Upgrade(faultyFactory, func(r UpgradeReport) { report = r })
	k.RunFor(time.Millisecond)
	if !report.RolledBack || a.Killed() {
		t.Fatalf("upgrade did not roll back cleanly: %+v", report)
	}
	for i, task := range tasks {
		if got := a.infoOf(task); got == nil || got != before[i] {
			t.Fatalf("task %v: record %p after rollback, was %p", task, got, before[i])
		}
	}

	inj.PanicSite, inj.PanicAt = core.MsgPickNextTask, 0
	k.RunFor(100 * time.Millisecond)
	if !a.Killed() {
		t.Fatal("module survived the injected pick panic")
	}
	if spy.foreign != 0 {
		t.Errorf("fallback TaskNew saw the dead module's record in %d slots", spy.foreign)
	}
	for _, task := range tasks {
		if _, mine := task.ClassData().(*taskInfo); mine {
			t.Errorf("task %v still carries the dead module's record", task)
		}
	}
	if done != len(tasks) {
		t.Errorf("%d/%d tasks completed under the fallback", done, len(tasks))
	}
}
