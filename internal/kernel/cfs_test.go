package kernel

import (
	"testing"
	"time"

	"enoki/internal/sim"
)

// Direct CFS-policy tests, complementing the behavioural tests in
// kernel_test.go.

func cfsRig() (*Kernel, *CFS) {
	eng := sim.New()
	k := New(eng, Machine8(), DefaultCosts())
	c := NewCFS(k)
	k.RegisterClass(0, c)
	return k, c
}

func TestCFSVruntimeOrdersPicks(t *testing.T) {
	k, c := cfsRig()
	mk := func() *Task {
		return k.Spawn("t", 0, BehaviorFunc(func(*Kernel, *Task) Action {
			return Action{Run: time.Millisecond, Op: OpContinue}
		}), WithAffinity(SingleCPU(0)))
	}
	a, b := mk(), mk()
	k.RunFor(10 * time.Millisecond)
	// Both runnable on cpu0; their vruntimes should stay within one
	// slice of each other under tick-driven alternation.
	ea, eb := c.ent(a), c.ent(b)
	diff := ea.vruntime - eb.vruntime
	if diff < 0 {
		diff = -diff
	}
	if time.Duration(diff) > 2*cfsTargetLatency {
		t.Fatalf("vruntime divergence %v exceeds fairness bound", time.Duration(diff))
	}
}

func TestCFSSleeperCreditBounded(t *testing.T) {
	k, c := cfsRig()
	runner := k.Spawn("runner", 0, BehaviorFunc(func(*Kernel, *Task) Action {
		return Action{Run: time.Millisecond, Op: OpContinue}
	}), WithAffinity(SingleCPU(0)))
	sleeper := k.Spawn("sleeper", 0, BehaviorFunc(func(*Kernel, *Task) Action {
		return Action{Op: OpBlock}
	}), WithAffinity(SingleCPU(0)))
	k.RunFor(50 * time.Millisecond) // sleeper blocks; runner accrues vruntime
	if sleeper.State() != StateBlocked {
		t.Fatalf("sleeper state = %v", sleeper.State())
	}
	k.Wake(sleeper)
	k.RunFor(time.Millisecond)
	es, er := c.ent(sleeper), c.ent(runner)
	// The woken sleeper is placed at most sleeperCredit behind: its
	// vruntime must not lag the runner by more than the credit (plus a
	// tick of slack).
	lag := er.vruntime - es.vruntime
	if lag > cfsSleeperCreditNS+int64(2*time.Millisecond) {
		t.Fatalf("sleeper credit unbounded: lag %v", time.Duration(lag))
	}
	if lag < 0 {
		t.Fatalf("woken sleeper ahead is fine, but runner should have accrued: lag %v", time.Duration(lag))
	}
}

func TestCFSSliceShrinksWithLoad(t *testing.T) {
	_, c := cfsRig()
	rq := &c.rqs[0]
	e := &cfsEntity{weight: NICE0Load}
	// Single task: full latency target.
	rq.totalWeight = NICE0Load
	soloSlice := c.slice(rq, e)
	if soloSlice != cfsTargetLatency {
		t.Fatalf("solo slice = %v", soloSlice)
	}
	// Crowded queue: per-task slice shrinks but respects min granularity.
	for i := 0; i < 20; i++ {
		e := &cfsEntity{weight: NICE0Load}
		rq.tree.InsertNode(&e.node, int64(i), e)
	}
	rq.totalWeight = 21 * NICE0Load
	crowded := c.slice(rq, e)
	if crowded >= soloSlice {
		t.Fatalf("slice did not shrink: %v", crowded)
	}
	if crowded < cfsMinGranularity {
		t.Fatalf("slice below min granularity: %v", crowded)
	}
}

func TestCFSPeriodScalesPastNrLatency(t *testing.T) {
	_, c := cfsRig()
	if c.period(4) != cfsTargetLatency {
		t.Fatal("small-n period should be the latency target")
	}
	if got := c.period(16); got != 16*cfsMinGranularity {
		t.Fatalf("period(16) = %v", got)
	}
}

func TestCFSSelectPrefersIdlePrev(t *testing.T) {
	k, c := cfsRig()
	busy := k.Spawn("busy", 0, BehaviorFunc(func(*Kernel, *Task) Action {
		return Action{Run: time.Second, Op: OpContinue}
	}), WithAffinity(SingleCPU(2)))
	k.RunFor(time.Millisecond)
	_ = busy
	idleTask := k.Spawn("idle", 0, BehaviorFunc(func(*Kernel, *Task) Action {
		return Action{Op: OpBlock}
	}), WithAffinity(AllCPUs(8)))
	k.RunFor(time.Millisecond)
	// Waking with prev=5 (idle): stays.
	if got := c.SelectRQ(idleTask, 5, true); got != 5 {
		t.Fatalf("idle prev not kept: %d", got)
	}
	// Waking with prev=2 (busy): an idle sibling is chosen.
	if got := c.SelectRQ(idleTask, 2, true); got == 2 {
		t.Fatal("stayed on busy cpu despite idle siblings")
	}
}

func TestCFSNewidleBalancePullsOnlyWhenQueued(t *testing.T) {
	k, c := cfsRig()
	// Two runnable tasks stacked on cpu0 (one runs, one queues).
	for i := 0; i < 2; i++ {
		k.Spawn("s", 0, BehaviorFunc(func(*Kernel, *Task) Action {
			return Action{Run: 100 * time.Millisecond, Op: OpContinue}
		}), WithAffinity(SingleCPU(0)))
	}
	k.RunFor(time.Millisecond)
	for pid := 1; pid <= 2; pid++ {
		k.SetAffinity(k.TaskByPID(pid), AllCPUs(8))
	}
	before := c.NRunnable(0)
	if before != 1 {
		t.Fatalf("queued on cpu0 = %d, want 1", before)
	}
	c.Balance(3) // newidle pull toward cpu3
	if c.NRunnable(0) != 0 {
		t.Fatal("newidle balance did not pull the waiter")
	}
	// Nothing left to pull: balancing again must be a no-op.
	c.Balance(4)
	if c.NRunnable(3) != 1 && k.CurrentOn(3) == nil {
		t.Fatal("pulled task vanished")
	}
}

func TestKernelRecheckCancelsBlock(t *testing.T) {
	// Futex semantics: a block whose Recheck returns true never parks.
	k, _ := cfsRig()
	passes := 0
	flag := true
	task := k.Spawn("f", 0, BehaviorFunc(func(kk *Kernel, tk *Task) Action {
		passes++
		if passes >= 3 {
			return Action{Op: OpExit}
		}
		return Action{Run: time.Microsecond, Op: OpBlock,
			Recheck: func() bool { return flag }}
	}))
	k.RunFor(time.Millisecond)
	if task.State() != StateDead || passes != 3 {
		t.Fatalf("recheck did not cancel blocks: passes=%d state=%v", passes, task.State())
	}
	// And with the flag false, the block really parks.
	flag = false
	parked := k.Spawn("p", 0, BehaviorFunc(func(kk *Kernel, tk *Task) Action {
		return Action{Run: time.Microsecond, Op: OpBlock,
			Recheck: func() bool { return flag }}
	}))
	k.RunFor(time.Millisecond)
	if parked.State() != StateBlocked {
		t.Fatalf("parked state = %v", parked.State())
	}
}

func TestCFSCrossNodeBalanceThreshold(t *testing.T) {
	// On the two-socket machine, a single queued task on the remote node
	// must not be pulled; a big pile must.
	eng := sim.New()
	k := New(eng, Machine80(), CostsFor(Machine80()))
	c := NewCFS(k)
	k.RegisterClass(0, c)
	// Pile 5 runnable tasks on cpu0 (node 0).
	for i := 0; i < 5; i++ {
		k.Spawn("p", 0, BehaviorFunc(func(*Kernel, *Task) Action {
			return Action{Run: 100 * time.Millisecond, Op: OpContinue}
		}), WithAffinity(SingleCPU(0)))
	}
	k.RunFor(time.Millisecond)
	for pid := 1; pid <= 5; pid++ {
		k.SetAffinity(k.TaskByPID(pid), AllCPUs(80))
	}
	// cpu79 is on node 1: the pile of 4 queued exceeds the NUMA
	// threshold, so a cross-node pull is allowed.
	c.Balance(79)
	if c.NRunnable(0) >= 4 {
		t.Fatal("cross-node balance refused a large imbalance")
	}
}

func TestCFSCrossNodeBalanceRefusesSmallImbalance(t *testing.T) {
	// The sharded balancer's whole point: one waiter on a remote socket is
	// below the NUMA threshold, so a newidle CPU on the other socket leaves
	// it alone — but a CPU in the same LLC domain takes it immediately.
	eng := sim.New()
	k := New(eng, Machine80(), CostsFor(Machine80()))
	c := NewCFS(k)
	k.RegisterClass(0, c)
	for i := 0; i < 2; i++ {
		k.Spawn("s", 0, BehaviorFunc(func(*Kernel, *Task) Action {
			return Action{Run: 100 * time.Millisecond, Op: OpContinue}
		}), WithAffinity(SingleCPU(0)))
	}
	k.RunFor(time.Millisecond)
	for pid := 1; pid <= 2; pid++ {
		k.SetAffinity(k.TaskByPID(pid), AllCPUs(80))
	}
	if got := c.NRunnable(0); got != 1 {
		t.Fatalf("queued on cpu0 = %d, want 1", got)
	}
	c.Balance(79) // remote socket: must refuse
	if c.NRunnable(0) != 1 {
		t.Fatal("cross-node balance stole a single waiter below the NUMA threshold")
	}
	c.Balance(5) // same LLC domain as cpu0: must pull
	if c.NRunnable(0) != 0 {
		t.Fatal("intra-LLC newidle balance left the waiter queued")
	}
}
