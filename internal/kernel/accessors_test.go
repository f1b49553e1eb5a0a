package kernel

import (
	"strings"
	"testing"
	"time"
	"unsafe"
)

func TestAccessorsAndSetScheduler(t *testing.T) {
	k, cfs := newTestKernel(Machine8())
	second := NewCFS(k)
	k.RegisterClass(1, second)

	if k.Engine() == nil || k.ClassByID(testPolicyCFS) != cfs || k.ClassByID(99) != nil {
		t.Fatal("kernel accessors broken")
	}
	if cfs.Name() != "CFS" {
		t.Fatal("class name")
	}

	marker := "payload"
	task := k.Spawn("acc", testPolicyCFS, spinFor(5*time.Millisecond, time.Millisecond),
		WithUserData(marker), WithAffinity(SingleCPU(3)))
	if task.PID() == 0 || task.Name() != "acc" || task.UserData != marker {
		t.Fatal("task accessors broken")
	}
	if !strings.Contains(task.String(), "acc") {
		t.Fatalf("task String = %q", task.String())
	}
	if got := task.Allowed().List(); len(got) != 1 || got[0] != 3 {
		t.Fatalf("List = %v", got)
	}
	if StateRunnable.String() != "runnable" || State(99).String() != "invalid" {
		t.Fatal("state strings")
	}

	k.RunFor(time.Millisecond)
	if k.CPUSwitches(3) == 0 {
		t.Fatal("no switches counted on cpu3")
	}

	// Move the (running) task to the second CFS instance and back.
	k.SetScheduler(task, 1)
	k.SetScheduler(task, 1) // same class: no-op
	k.RunFor(time.Millisecond)
	if task.State() == StateDead {
		t.Fatal("task died prematurely")
	}
	k.SetScheduler(task, testPolicyCFS)
	k.RunUntilIdle()
	if task.State() != StateDead {
		t.Fatalf("task did not finish after class moves: %v", task.State())
	}

	// Blocked-task class move.
	blocked := k.Spawn("blk", testPolicyCFS, &scriptBehavior{actions: []Action{
		{Run: time.Microsecond, Op: OpBlock},
		{Run: time.Microsecond, Op: OpExit},
	}})
	k.RunFor(time.Millisecond)
	if blocked.State() != StateBlocked {
		t.Fatalf("state = %v", blocked.State())
	}
	k.SetScheduler(blocked, 1)
	k.Wake(blocked)
	k.RunFor(time.Millisecond)
	if blocked.State() != StateDead {
		t.Fatalf("blocked move lost the task: %v", blocked.State())
	}

	// ArmResched re-arm path: second arm cancels the first.
	k.ArmResched(0, time.Millisecond)
	k.ArmResched(0, 2*time.Millisecond)
	k.RunFor(5 * time.Millisecond)

	if k.cpus[0].ID() != 0 {
		t.Fatal("CPU ID")
	}
}

// TestTaskLayout pins the two placements the one-record Task is laid out
// for: the completion event and the kernel back-pointer share the record's
// first cache line (the timer wheel's liveness check on the event is the
// first touch of a firing task, and the handler's t.k the second), and the
// CFS run-queue node sits inside one line of its own, so walking a run
// queue costs one line per task passed. The recycling state (transient,
// wakesOut) rides in the padding after the state bools, so the record is
// the 416 bytes it was without it — a malloc size class of its own.
func TestTaskLayout(t *testing.T) {
	const line = 64
	var task Task
	if size := unsafe.Sizeof(task); size != 416 {
		t.Errorf("Task is %d bytes, want 416", size)
	}
	word := unsafe.Offsetof(task.state) / 8
	if end := unsafe.Offsetof(task.wakesOut) + unsafe.Sizeof(task.wakesOut); unsafe.Offsetof(task.transient)/8 != word || (end-1)/8 != word {
		t.Errorf("transient at %d and wakesOut ending at %d left the state word at %d",
			unsafe.Offsetof(task.transient), end, unsafe.Offsetof(task.state))
	}
	if off := unsafe.Offsetof(task.runEvent); off != 0 {
		t.Errorf("runEvent at offset %d, want 0", off)
	}
	if end := unsafe.Offsetof(task.k) + unsafe.Sizeof(task.k); end > line {
		t.Errorf("k ends at offset %d, outside the first cache line", end)
	}
	node := unsafe.Offsetof(task.cfs) + unsafe.Offsetof(task.cfs.node)
	if node%line != 0 || unsafe.Sizeof(task.cfs.node) > line {
		t.Errorf("cfs.node at offset %d, size %d: want line-aligned and within one %d-byte line",
			node, unsafe.Sizeof(task.cfs.node), line)
	}
}
