package enokic

import (
	"bytes"
	"testing"
	"time"

	"enoki/internal/core"
	"enoki/internal/kernel"
	"enoki/internal/record"
)

// keeper is FIFO with a long memory: it schedules honestly, but it keeps
// every proof it is handed, gives none back on migrate_task_rq or
// task_departed, and returns from pick_next_task whatever the test scripts
// into next (once) ahead of its queues. A scripted proof never came out of
// FIFO's queues, so its pnt_err is noted and goes no further. It is what a
// dead task's record meets when it is reused.
type keeper struct {
	core.Scheduler
	seen []*core.Schedulable
	next *core.Schedulable
	errs []core.PickError
}

func keeperRig(t *testing.T) (*kernel.Kernel, *Adapter, *keeper) {
	kp := &keeper{}
	k, a := newRig(t, func(env core.Env) core.Scheduler {
		kp.Scheduler = fifoFactory(env)
		return kp
	})
	return k, a, kp
}

func (kp *keeper) TaskNew(pid int, rt time.Duration, runnable bool, allowed []int, s *core.Schedulable) {
	kp.seen = append(kp.seen, s)
	kp.Scheduler.TaskNew(pid, rt, runnable, allowed, s)
}
func (kp *keeper) TaskWakeup(pid int, rt time.Duration, d bool, l, w int, s *core.Schedulable) {
	kp.seen = append(kp.seen, s)
	kp.Scheduler.TaskWakeup(pid, rt, d, l, w, s)
}
func (kp *keeper) TaskPreempt(pid int, rt time.Duration, cpu int, preempted bool, s *core.Schedulable) {
	kp.seen = append(kp.seen, s)
	kp.Scheduler.TaskPreempt(pid, rt, cpu, preempted, s)
}
func (kp *keeper) TaskYield(pid int, rt time.Duration, cpu int, s *core.Schedulable) {
	kp.seen = append(kp.seen, s)
	kp.Scheduler.TaskYield(pid, rt, cpu, s)
}
func (kp *keeper) MigrateTaskRQ(pid, newCPU int, s *core.Schedulable) *core.Schedulable {
	kp.seen = append(kp.seen, s)
	kp.Scheduler.MigrateTaskRQ(pid, newCPU, s)
	return nil
}
func (kp *keeper) TaskDeparted(pid, cpu int) *core.Schedulable {
	kp.Scheduler.TaskDeparted(pid, cpu)
	return nil
}
func (kp *keeper) PickNextTask(cpu int, curr *core.Schedulable, rt time.Duration) *core.Schedulable {
	if tok := kp.next; tok != nil {
		kp.next = nil
		return tok
	}
	return kp.Scheduler.PickNextTask(cpu, curr, rt)
}
func (kp *keeper) PntErr(cpu, pid int, err core.PickError, s *core.Schedulable) {
	kp.errs = append(kp.errs, err)
}

// pickWith returns tok from the module's next pick on cpu and reports what
// the adapter made of it: the task it let run, and the last pick error.
func (kp *keeper) pickWith(a *Adapter, tok *core.Schedulable, cpu int) (*kernel.Task, core.PickError) {
	n := len(kp.errs)
	kp.next = tok
	got := a.PickNext(cpu)
	if len(kp.errs) == n {
		return got, 0
	}
	return got, kp.errs[len(kp.errs)-1]
}

// TestRecycledRecordRejectsFormerTenantsToken is the pid check's hazard. A
// transient task's first proof is superseded by a migration before it is
// ever returned, so the module holds it unconsumed when the task exits. The
// next SpawnTransient takes the dead task's record, restarts its generation
// and queues on the CPU the old proof names: without the pid check the old
// proof, which still reaches the record through its origin, would validate
// and run the new task.
func TestRecycledRecordRejectsFormerTenantsToken(t *testing.T) {
	k, a, kp := keeperRig(t)
	k.SpawnTransient("first", policyEnoki, spin(20*time.Microsecond, 20*time.Microsecond))
	kept := kp.seen[0]
	if !k.MoveTask(k.TaskByPID(kept.PID()), kept.CPU()+1) {
		t.Fatal("setup: migration refused")
	}
	k.RunUntilIdle()
	if k.NumTasks() != 0 || len(a.infoFree) != 1 || kept.Consumed() {
		t.Fatalf("setup: %d tasks live, %d free records, kept proof consumed=%v",
			k.NumTasks(), len(a.infoFree), kept.Consumed())
	}

	k.SpawnTransient("second", policyEnoki, spin(20*time.Microsecond, 20*time.Microsecond))
	live := kp.seen[len(kp.seen)-1]
	if len(a.infoFree) != 0 || live.PID() == kept.PID() || live.CPU() != kept.CPU() || live.Gen() != kept.Gen() {
		t.Fatalf("setup: %d free records; kept %v, live %v (want the record reused, same cpu and gen)",
			len(a.infoFree), kept, live)
	}
	if got, perr := kp.pickWith(a, kept, kept.CPU()); got != nil || perr != core.PickNotQueued {
		t.Fatalf("the former tenant's proof: picked %v, pnt_err %v; want nothing and %v",
			got, perr, core.PickNotQueued)
	}
	k.RunUntilIdle()
	if k.NumTasks() != 0 || a.Stats().PntErrs != 1 {
		t.Errorf("%d tasks left, %d pick errors; want the second task run by its own proof", k.NumTasks(), a.Stats().PntErrs)
	}
}

// TestRecycledRecordRestartsGeneration is the generation reset's hazard: a
// reused record must issue the tokens a fresh one would, or the record log
// (which carries every token's generation) would tell the two apart. The
// first task sleeps twice, so its record dies at generation 3 or more.
func TestRecycledRecordRestartsGeneration(t *testing.T) {
	run := func(reuse bool) ([]byte, *core.Schedulable) {
		k, a, kp := keeperRig(t)
		var buf bytes.Buffer
		rec := record.New(k, &buf, policyCFS, record.DefaultCosts())
		a.SetRecorder(rec)
		k.SpawnTransient("first", policyEnoki, sleeper(3, 20*time.Microsecond, 30*time.Microsecond))
		k.RunFor(time.Millisecond)
		if len(a.infoFree) != 1 || kp.seen[len(kp.seen)-1].Gen() < 3 {
			t.Fatalf("setup: %d free records, last proof %v", len(a.infoFree), kp.seen[len(kp.seen)-1])
		}
		if !reuse {
			a.infoFree = nil // the second task gets a fresh record
		}
		n := len(kp.seen)
		k.SpawnTransient("second", policyEnoki, sleeper(3, 20*time.Microsecond, 30*time.Microsecond))
		if len(a.infoFree) != 0 {
			t.Fatal("setup: the dead task's record was not reused")
		}
		k.RunFor(time.Millisecond)
		rec.Close()
		return buf.Bytes(), kp.seen[n]
	}
	reused, first := run(true)
	fresh, _ := run(false)
	if first.Gen() != 1 {
		t.Errorf("a reused record's first proof has generation %d, want 1", first.Gen())
	}
	if !bytes.Equal(reused, fresh) {
		t.Errorf("record logs differ: %d bytes with the record reused, %d with a fresh one", len(reused), len(fresh))
	}
}

// TestDepartedRecordNotRecycled is the hazard Detach avoids by not recycling.
// A task leaves the module while the module still holds its unconsumed first
// proof, and comes back under the same pid. Had its old record gone on the
// free list, the return trip's TaskNew would take it back with the
// generation restarted, and the pre-departure proof (same pid, same
// generation, same CPU) would validate.
func TestDepartedRecordNotRecycled(t *testing.T) {
	k, a, kp := keeperRig(t)
	task := k.Spawn("t", policyEnoki, spin(50*time.Microsecond, 50*time.Microsecond))
	kept := kp.seen[0]
	k.SetScheduler(task, policyCFS)
	k.SetScheduler(task, policyEnoki)
	live := kp.seen[len(kp.seen)-1]
	if kept.Consumed() || live.CPU() != kept.CPU() || live.Gen() != kept.Gen() {
		t.Fatalf("setup: kept %v (consumed=%v), live %v; want the same cpu and generation", kept, kept.Consumed(), live)
	}
	if got, perr := kp.pickWith(a, kept, kept.CPU()); got != nil || perr != core.PickNotQueued {
		t.Fatalf("the pre-departure proof: picked %v, pnt_err %v; want nothing and %v",
			got, perr, core.PickNotQueued)
	}
	k.RunUntilIdle()
	if task.State() != kernel.StateDead {
		t.Errorf("task %v did not finish under its own proof", task)
	}
}
