package kernel

import (
	"slices"
	"testing"
	"time"

	"enoki/internal/sim"
)

const testPolicyCFS = 0

func newTestKernel(m Machine) (*Kernel, *CFS) {
	eng := sim.New()
	k := New(eng, m, DefaultCosts())
	cfs := NewCFS(k)
	k.RegisterClass(testPolicyCFS, cfs)
	return k, cfs
}

// scriptBehavior replays a fixed list of actions, then exits.
type scriptBehavior struct {
	actions []Action
	i       int
}

func (s *scriptBehavior) Next(k *Kernel, t *Task) Action {
	if s.i >= len(s.actions) {
		return Action{Op: OpExit}
	}
	a := s.actions[s.i]
	s.i++
	return a
}

// spinFor returns a behavior that computes for total CPU time in chunk-sized
// segments, then exits.
func spinFor(total, chunk time.Duration) Behavior {
	remaining := total
	return BehaviorFunc(func(k *Kernel, t *Task) Action {
		if remaining <= 0 {
			return Action{Op: OpExit}
		}
		c := chunk
		if c > remaining {
			c = remaining
		}
		remaining -= c
		return Action{Run: c, Op: OpContinue}
	})
}

func TestSpawnRunExit(t *testing.T) {
	k, _ := newTestKernel(Machine8())
	done := false
	task := k.Spawn("solo", testPolicyCFS, spinFor(10*time.Millisecond, time.Millisecond),
		WithExitObserver(func() { done = true }))
	k.RunFor(time.Second)
	if !done {
		t.Fatal("task did not exit")
	}
	if task.State() != StateDead {
		t.Fatalf("state = %v", task.State())
	}
	if task.SumExec() != 10*time.Millisecond {
		t.Fatalf("SumExec = %v", task.SumExec())
	}
	if k.NumTasks() != 0 {
		t.Fatalf("NumTasks = %d", k.NumTasks())
	}
}

func TestTasksSpreadAcrossIdleCPUs(t *testing.T) {
	k, _ := newTestKernel(Machine8())
	var tasks []*Task
	for i := 0; i < 8; i++ {
		tasks = append(tasks, k.Spawn("spin", testPolicyCFS, spinFor(50*time.Millisecond, time.Millisecond)))
	}
	k.RunFor(5 * time.Millisecond)
	cpus := map[int]bool{}
	for _, task := range tasks {
		if task.State() != StateRunning {
			t.Fatalf("%v not running", task)
		}
		cpus[task.CPU()] = true
	}
	if len(cpus) != 8 {
		t.Fatalf("tasks on %d CPUs, want 8", len(cpus))
	}
}

func TestFairShareOneCPU(t *testing.T) {
	// Appendix A.1 shape: 5 equal CPU-bound tasks pinned to one core
	// should each get ~1/5 of the CPU.
	k, _ := newTestKernel(Machine8())
	var tasks []*Task
	for i := 0; i < 5; i++ {
		tasks = append(tasks, k.Spawn("fair", testPolicyCFS,
			spinFor(time.Hour, time.Millisecond), WithAffinity(SingleCPU(0))))
	}
	k.RunFor(2 * time.Second)
	for _, task := range tasks {
		share := float64(task.SumExec()) / float64(2*time.Second)
		if share < 0.17 || share > 0.23 {
			t.Fatalf("%v share = %.3f, want ~0.20", task, share)
		}
	}
}

func TestNiceWeighting(t *testing.T) {
	// A nice-0 task vs a nice-5 task on one CPU: weight ratio
	// 1024/335 ≈ 3.06, so shares should be ~75%/25%.
	k, _ := newTestKernel(Machine8())
	hi := k.Spawn("hi", testPolicyCFS, spinFor(time.Hour, time.Millisecond), WithAffinity(SingleCPU(0)))
	lo := k.Spawn("lo", testPolicyCFS, spinFor(time.Hour, time.Millisecond),
		WithAffinity(SingleCPU(0)), WithNice(5))
	k.RunFor(2 * time.Second)
	ratio := float64(hi.SumExec()) / float64(lo.SumExec())
	if ratio < 2.5 || ratio > 3.7 {
		t.Fatalf("share ratio = %.2f, want ~3.06", ratio)
	}
}

func TestPipePingPong(t *testing.T) {
	// Two tasks wake each other 1000 times; verify liveness and sane
	// per-message latency (CFS one-core baseline is ~3µs/wakeup).
	k, _ := newTestKernel(Machine8())
	const rounds = 1000
	var a, b *Task
	count := 0
	var finished time.Duration
	mk := func(peer **Task, starts bool) Behavior {
		first := true
		return BehaviorFunc(func(k *Kernel, t *Task) Action {
			if first && starts {
				first = false
				return Action{Run: 200 * time.Nanosecond, Wake: []*Task{*peer}, Op: OpBlock}
			}
			first = false
			count++
			if count >= 2*rounds {
				finished = time.Duration(k.Now())
				return Action{Op: OpExit}
			}
			return Action{Run: 200 * time.Nanosecond, Wake: []*Task{*peer}, Op: OpBlock}
		})
	}
	a = k.Spawn("a", testPolicyCFS, mk(&b, true), WithAffinity(SingleCPU(0)))
	b = k.Spawn("b", testPolicyCFS, mk(&a, false), WithAffinity(SingleCPU(0)))
	k.RunFor(time.Second)
	if count < 2*rounds {
		t.Fatalf("ping-pong stalled at %d/%d", count, 2*rounds)
	}
	perMsg := finished / (2 * rounds)
	if perMsg < time.Microsecond || perMsg > 20*time.Microsecond {
		t.Fatalf("per-message time = %v, want low µs", perMsg)
	}
}

func TestWakeupLatencyObserved(t *testing.T) {
	k, _ := newTestKernel(Machine8())
	var lat []time.Duration
	sleeper := k.Spawn("sleeper", testPolicyCFS, &scriptBehavior{actions: []Action{
		{Op: OpBlock},
		{Run: time.Microsecond, Op: OpExit},
	}}, WithWakeObserver(func(d time.Duration) { lat = append(lat, d) }))
	k.RunFor(time.Millisecond)
	if sleeper.State() != StateBlocked {
		t.Fatalf("state = %v", sleeper.State())
	}
	k.Wake(sleeper)
	k.RunFor(time.Millisecond)
	if sleeper.State() != StateDead {
		t.Fatalf("task did not finish: %v", sleeper.State())
	}
	// Spawn + wake both count.
	if len(lat) == 0 {
		t.Fatal("no wakeup latency observed")
	}
	last := lat[len(lat)-1]
	if last <= 0 || last > 100*time.Microsecond {
		t.Fatalf("wake latency = %v", last)
	}
}

func TestSleepWakes(t *testing.T) {
	k, _ := newTestKernel(Machine8())
	task := k.Spawn("napper", testPolicyCFS, &scriptBehavior{actions: []Action{
		{Run: time.Microsecond, Op: OpSleep, SleepFor: 5 * time.Millisecond},
		{Run: time.Microsecond, Op: OpExit},
	}})
	k.RunFor(2 * time.Millisecond)
	if task.State() != StateBlocked {
		t.Fatalf("not sleeping: %v", task.State())
	}
	k.RunFor(10 * time.Millisecond)
	if task.State() != StateDead {
		t.Fatalf("did not wake from sleep: %v", task.State())
	}
}

func TestYieldAlternation(t *testing.T) {
	// Two yielding tasks on one CPU should interleave, not starve.
	k, _ := newTestKernel(Machine8())
	counts := [2]int{}
	mk := func(idx int) Behavior {
		return BehaviorFunc(func(k *Kernel, t *Task) Action {
			counts[idx]++
			if counts[idx] >= 100 {
				return Action{Op: OpExit}
			}
			return Action{Run: 10 * time.Microsecond, Op: OpYield}
		})
	}
	k.Spawn("y0", testPolicyCFS, mk(0), WithAffinity(SingleCPU(0)))
	k.Spawn("y1", testPolicyCFS, mk(1), WithAffinity(SingleCPU(0)))
	k.RunFor(time.Second)
	if counts[0] < 100 || counts[1] < 100 {
		t.Fatalf("yield starved a task: %v", counts)
	}
}

func TestPreemptionByTick(t *testing.T) {
	// A long-running task must not starve a competitor on the same CPU:
	// CFS tick preemption bounds the competitor's wait.
	k, _ := newTestKernel(Machine8())
	hog := k.Spawn("hog", testPolicyCFS, spinFor(time.Hour, 100*time.Millisecond), WithAffinity(SingleCPU(0)))
	other := k.Spawn("other", testPolicyCFS, spinFor(50*time.Millisecond, time.Millisecond), WithAffinity(SingleCPU(0)))
	k.RunFor(500 * time.Millisecond)
	if other.SumExec() < 40*time.Millisecond {
		t.Fatalf("competitor starved: ran %v", other.SumExec())
	}
	if hog.SumExec() < 100*time.Millisecond {
		t.Fatalf("hog overly throttled: %v", hog.SumExec())
	}
}

func TestNewidleBalancePullsWork(t *testing.T) {
	// Queue several tasks on CPU 0; when other CPUs go idle they should
	// pull work rather than stay idle.
	k, _ := newTestKernel(Machine8())
	var tasks []*Task
	for i := 0; i < 6; i++ {
		tk := k.Spawn("w", testPolicyCFS, spinFor(20*time.Millisecond, time.Millisecond))
		tasks = append(tasks, tk)
	}
	// Force them all onto CPU 0 first.
	for _, tk := range tasks {
		k.SetAffinity(tk, SingleCPU(0))
	}
	for _, tk := range tasks {
		k.SetAffinity(tk, AllCPUs(8))
	}
	k.RunFor(40 * time.Millisecond)
	busyCPUs := 0
	for i := 0; i < 8; i++ {
		if k.CPUBusy(i) > 5*time.Millisecond {
			busyCPUs++
		}
	}
	if busyCPUs < 4 {
		t.Fatalf("balancing spread work across only %d CPUs", busyCPUs)
	}
}

func TestAffinityPinning(t *testing.T) {
	k, _ := newTestKernel(Machine8())
	task := k.Spawn("pinned", testPolicyCFS, spinFor(20*time.Millisecond, 100*time.Microsecond),
		WithAffinity(SingleCPU(3)))
	for i := 0; i < 100; i++ {
		k.RunFor(200 * time.Microsecond)
		if task.State() == StateDead {
			break
		}
		if cpu := task.CPU(); cpu != 3 {
			t.Fatalf("pinned task on CPU %d", cpu)
		}
	}
}

func TestSetAffinityMovesRunningTask(t *testing.T) {
	k, _ := newTestKernel(Machine8())
	task := k.Spawn("mover", testPolicyCFS, spinFor(50*time.Millisecond, time.Millisecond),
		WithAffinity(SingleCPU(0)))
	k.RunFor(5 * time.Millisecond)
	if task.CPU() != 0 {
		t.Fatalf("task on %d", task.CPU())
	}
	k.SetAffinity(task, SingleCPU(5))
	k.RunFor(5 * time.Millisecond)
	if task.CPU() != 5 || task.State() != StateRunning {
		t.Fatalf("task = %v after affinity move", task)
	}
	k.RunFor(100 * time.Millisecond)
	if task.State() != StateDead {
		t.Fatalf("task did not finish after move: %v", task)
	}
}

func TestSetNiceTakesEffect(t *testing.T) {
	k, _ := newTestKernel(Machine8())
	a := k.Spawn("a", testPolicyCFS, spinFor(time.Hour, time.Millisecond), WithAffinity(SingleCPU(0)))
	b := k.Spawn("b", testPolicyCFS, spinFor(time.Hour, time.Millisecond), WithAffinity(SingleCPU(0)))
	k.RunFor(100 * time.Millisecond)
	k.SetNice(b, 19)
	aStart, bStart := a.SumExec(), b.SumExec()
	k.RunFor(2 * time.Second)
	aGain := a.SumExec() - aStart
	bGain := b.SumExec() - bStart
	// weight ratio 1024/15 ≈ 68; allow a loose band.
	if aGain < 20*bGain {
		t.Fatalf("nice 19 not throttled: a=%v b=%v", aGain, bGain)
	}
	if bGain == 0 {
		t.Fatal("nice 19 task fully starved")
	}
}

func TestCrossCPUWake(t *testing.T) {
	k, _ := newTestKernel(Machine8())
	var lat time.Duration
	sleeper := k.Spawn("s", testPolicyCFS, &scriptBehavior{actions: []Action{
		{Op: OpBlock},
		{Run: time.Microsecond, Op: OpExit},
	}}, WithAffinity(SingleCPU(4)), WithWakeObserver(func(d time.Duration) { lat = d }))
	waker := k.Spawn("w", testPolicyCFS, &scriptBehavior{}, WithAffinity(SingleCPU(0)))
	_ = waker
	k.RunFor(time.Millisecond)
	start := k.Now()
	k.Wake(sleeper)
	k.RunFor(time.Millisecond)
	if sleeper.State() != StateDead {
		t.Fatalf("sleeper state = %v", sleeper.State())
	}
	if lat <= 0 {
		t.Fatalf("no cross-cpu wake latency, start=%v", start)
	}
}

func TestMoveTaskRejectsRunningAndForbidden(t *testing.T) {
	k, _ := newTestKernel(Machine8())
	task := k.Spawn("t", testPolicyCFS, spinFor(time.Second, time.Millisecond), WithAffinity(SingleCPU(0)))
	k.RunFor(time.Millisecond)
	if task.State() != StateRunning {
		t.Fatalf("state = %v", task.State())
	}
	if k.MoveTask(task, 1) {
		t.Fatal("moved a running task")
	}
	blocked := k.Spawn("b", testPolicyCFS, &scriptBehavior{actions: []Action{{Op: OpBlock}}})
	k.RunFor(time.Millisecond)
	if k.MoveTask(blocked, 1) {
		t.Fatal("moved a blocked task")
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (time.Duration, uint64) {
		k, _ := newTestKernel(Machine8())
		for i := 0; i < 10; i++ {
			k.Spawn("w", testPolicyCFS, spinFor(15*time.Millisecond, 500*time.Microsecond))
		}
		k.RunFor(100 * time.Millisecond)
		return k.CPUBusy(0), k.CtxSwitches
	}
	b1, s1 := run()
	b2, s2 := run()
	if b1 != b2 || s1 != s2 {
		t.Fatalf("nondeterministic: (%v,%d) vs (%v,%d)", b1, s1, b2, s2)
	}
}

func TestCPUShareAccounting(t *testing.T) {
	k, _ := newTestKernel(Machine8())
	task := k.Spawn("acct", testPolicyCFS, spinFor(30*time.Millisecond, time.Millisecond), WithAffinity(SingleCPU(2)))
	k.RunFor(100 * time.Millisecond)
	if task.SumExec() != 30*time.Millisecond {
		t.Fatalf("SumExec = %v", task.SumExec())
	}
	busy := k.CPUBusy(2)
	if busy < 30*time.Millisecond || busy > 35*time.Millisecond {
		t.Fatalf("CPU busy = %v, want 30ms + small overhead", busy)
	}
}

func TestDuplicateClassPanics(t *testing.T) {
	k, _ := newTestKernel(Machine8())
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate class id did not panic")
		}
	}()
	k.RegisterClass(testPolicyCFS, NewCFS(k))
}

func TestSpawnUnknownClassPanics(t *testing.T) {
	k, _ := newTestKernel(Machine8())
	defer func() {
		if recover() == nil {
			t.Fatal("unknown class did not panic")
		}
	}()
	k.Spawn("x", 99, &scriptBehavior{})
}

func TestMachine80Topology(t *testing.T) {
	m := Machine80()
	if m.NumCPUs != 80 || m.NumNodes != 2 {
		t.Fatalf("bad topology: %+v", m)
	}
	if m.SameNode(0, 79) || !m.SameNode(0, 39) || !m.SameNode(40, 79) {
		t.Fatal("node mapping wrong")
	}
}

func TestCPUMask(t *testing.T) {
	m := AllCPUs(80)
	if m.Count() != 80 || !m.Has(79) || m.Has(80) || m.Has(-1) {
		t.Fatalf("AllCPUs broken: %+v", m)
	}
	m.Clear(79)
	if m.Has(79) || m.Count() != 79 {
		t.Fatal("Clear broken")
	}
	s := SingleCPU(65)
	if !s.Has(65) || s.Count() != 1 {
		t.Fatal("SingleCPU broken")
	}

	// next at the word boundaries, on an empty mask and from past the end.
	var empty, b CPUMask
	for _, cpu := range []int{0, 63, 64, 1023} {
		b.Set(cpu)
	}
	for _, c := range []struct {
		m        *CPUMask
		from, to int
	}{
		{&empty, 0, -1}, {&empty, 500, -1},
		{&b, 0, 0}, {&b, 1, 63}, {&b, 63, 63}, {&b, 64, 64}, {&b, 65, 1023},
		{&b, 1023, 1023}, {&b, 1024, -1}, {&b, 5000, -1},
	} {
		if got := c.m.next(c.from); got != c.to {
			t.Errorf("next(%d) = %d, want %d", c.from, got, c.to)
		}
	}
	var got []int
	for cpu := b.next(0); cpu >= 0; cpu = b.next(cpu + 1) {
		got = append(got, cpu)
	}
	if !slices.Equal(got, b.List()) {
		t.Errorf("walking next gives %v, List %v", got, b.List())
	}
}

func TestWeightTable(t *testing.T) {
	if WeightOf(0) != 1024 || WeightOf(-20) != 88761 || WeightOf(19) != 15 {
		t.Fatal("weight table wrong")
	}
	if WeightOf(-100) != WeightOf(-20) || WeightOf(100) != WeightOf(19) {
		t.Fatal("weight clamping wrong")
	}
	for n := -20; n < 19; n++ {
		if WeightOf(n) <= WeightOf(n+1) {
			t.Fatalf("weights not monotone at nice %d", n)
		}
	}
}
