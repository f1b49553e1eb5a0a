package kernel

import (
	"testing"
	"time"

	"enoki/internal/sim"
)

const testPolicyRT = 5

func rtRig() (*Kernel, *RT) {
	eng := sim.New()
	k := New(eng, Machine8(), DefaultCosts())
	rt := NewRT(k, 10*time.Millisecond)
	k.RegisterClass(testPolicyRT, rt) // above CFS
	k.RegisterClass(testPolicyCFS, NewCFS(k))
	return k, rt
}

func TestRTPreemptsCFS(t *testing.T) {
	k, _ := rtRig()
	batch := k.Spawn("batch", testPolicyCFS, spinFor(time.Hour, time.Millisecond),
		WithAffinity(SingleCPU(0)))
	k.RunFor(time.Millisecond)
	if batch.State() != StateRunning {
		t.Fatalf("batch state = %v", batch.State())
	}
	var lat time.Duration
	rtTask := k.Spawn("rt", testPolicyRT, spinFor(5*time.Millisecond, time.Millisecond),
		WithAffinity(SingleCPU(0)),
		WithWakeObserver(func(d time.Duration) { lat = d }))
	k.RunFor(100 * time.Microsecond)
	if rtTask.State() != StateRunning {
		t.Fatalf("RT task did not preempt CFS: %v", rtTask.State())
	}
	_ = lat
	k.RunFor(20 * time.Millisecond)
	if rtTask.State() != StateDead {
		t.Fatal("RT task unfinished")
	}
	if batch.SumExec() < 10*time.Millisecond {
		t.Fatalf("CFS starved beyond the RT task's needs: %v", batch.SumExec())
	}
}

func TestRTPriorityOrdering(t *testing.T) {
	k, rt := rtRig()
	var order []int
	mk := func(id, prio int) *Task {
		task := k.Spawn("rt", testPolicyRT, BehaviorFunc(
			func(kk *Kernel, tk *Task) Action {
				order = append(order, id)
				return Action{Run: time.Millisecond, Op: OpExit}
			}), WithAffinity(SingleCPU(0)))
		rt.SetRTParams(task, RTParams{Prio: prio})
		return task
	}
	// Created low-prio first; the high-prio must run first regardless.
	mk(1, 10)
	mk(2, 50)
	mk(3, 30)
	k.RunFor(50 * time.Millisecond)
	if len(order) != 3 || order[0] != 2 || order[1] != 3 || order[2] != 1 {
		t.Fatalf("RT order = %v, want [2 3 1]", order)
	}
}

func TestRTFIFORunsToCompletion(t *testing.T) {
	// Equal-priority SCHED_FIFO: first runs until it blocks/exits.
	k, _ := rtRig()
	var second *Task
	firstDone := false
	k.Spawn("f1", testPolicyRT, BehaviorFunc(func(kk *Kernel, tk *Task) Action {
		if second != nil && second.SumExec() > 0 && !firstDone {
			// Should never happen before first finishes.
			t.Error("FIFO peer ran before first completed")
		}
		if tk.SumExec() >= 30*time.Millisecond {
			firstDone = true
			return Action{Op: OpExit}
		}
		return Action{Run: time.Millisecond, Op: OpContinue}
	}), WithAffinity(SingleCPU(0)))
	second = k.Spawn("f2", testPolicyRT, spinFor(5*time.Millisecond, time.Millisecond),
		WithAffinity(SingleCPU(0)))
	k.RunFor(100 * time.Millisecond)
	if !firstDone || second.State() != StateDead {
		t.Fatalf("FIFO completion broken: firstDone=%v second=%v", firstDone, second.State())
	}
}

func TestRTRoundRobinShares(t *testing.T) {
	k, rt := rtRig()
	var a, b *Task
	a = k.Spawn("rr1", testPolicyRT, spinFor(time.Hour, time.Millisecond), WithAffinity(SingleCPU(0)))
	b = k.Spawn("rr2", testPolicyRT, spinFor(time.Hour, time.Millisecond), WithAffinity(SingleCPU(0)))
	rt.SetRTParams(a, RTParams{Prio: 20, RoundRobin: true})
	rt.SetRTParams(b, RTParams{Prio: 20, RoundRobin: true})
	k.RunFor(200 * time.Millisecond)
	ra, rb := a.SumExec(), b.SumExec()
	if ra == 0 || rb == 0 {
		t.Fatalf("RR starved a peer: %v / %v", ra, rb)
	}
	ratio := float64(ra) / float64(rb)
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("RR share ratio = %.2f", ratio)
	}
}

func TestRTSleepWakeCycle(t *testing.T) {
	k, rt := rtRig()
	n := 0
	task := k.Spawn("period", testPolicyRT, BehaviorFunc(func(kk *Kernel, tk *Task) Action {
		n++
		if n > 100 {
			return Action{Op: OpExit}
		}
		return Action{Run: 100 * time.Microsecond, Op: OpSleep, SleepFor: 400 * time.Microsecond}
	}))
	rt.SetRTParams(task, RTParams{Prio: 80})
	k.RunFor(time.Second)
	if task.State() != StateDead {
		t.Fatalf("periodic RT task stalled at %d rounds", n)
	}
}

// TestRTQueueZeroAlloc pins the builtin floor the other tiers are measured
// against: RT's enqueue, pick, requeue and dequeue cycle on a warm run queue
// allocates nothing (the old pop resliced the queue off its backing array,
// so every enqueue after a pick reallocated).
func TestRTQueueZeroAlloc(t *testing.T) {
	_, rt := rtRig()
	var tasks [3]*Task
	for i := range tasks {
		tasks[i] = &Task{pid: i + 1}
		rt.TaskNew(tasks[i])
		rt.Enqueue(0, tasks[i], false)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		t0 := rt.PickNext(0)
		rt.PutPrev(0, t0, true)
		rt.Dequeue(0, tasks[1], true)
		rt.Enqueue(0, tasks[1], true)
	}); avg != 0 {
		t.Errorf("RT queue cycle: %v allocs/op, want 0", avg)
	}
}
