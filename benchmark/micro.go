package main

import (
	"time"

	"enoki"
	"enoki/internal/core"
	"enoki/internal/overload"
	"enoki/internal/sim"
)

// The isolated micro-timings [µ]: one layer's public functions timed alone,
// so a layer's cost has a figure even where no decorator can reach it. They
// are the only place the benchmark imports a layer's package directly.

const microBatches = 5

// timeBatches times fn(n) microBatches times and returns the median
// nanoseconds per iteration.
func timeBatches(n int, fn func(n int)) float64 {
	per := make([]float64, microBatches)
	for b := range per {
		t0 := time.Now()
		fn(n)
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// microWheel is sim.wheel_ns_per_event: arm and fire on an Engine that holds
// 160 pending re-arming timers (an 80-CPU machine's ticks and slice timers),
// half by Post/Step and half by RescheduleAfter/Step.
func microWheel(n int) float64 {
	eng := sim.New()
	for i := 0; i < 160; i++ {
		var ev *sim.Event
		ev = eng.NewEvent(func() { eng.RescheduleAfter(ev, time.Millisecond) })
		eng.RescheduleAfter(ev, time.Duration(i+1)*6*time.Microsecond)
	}
	nop := func() {}
	own := eng.NewEvent(nop)
	return timeBatches(n, func(n int) {
		for i := 0; i < n/2; i++ {
			eng.Post(100*time.Nanosecond, nop)
			eng.Step()
		}
		for i := 0; i < n/2; i++ {
			eng.RescheduleAfter(own, 100*time.Nanosecond)
			eng.Step()
		}
	})
}

// microSpawnExit is kernel.spawn_exit_ns: Spawn, run 1 µs, exit, on an
// otherwise idle Machine8 under CFS.
func microSpawnExit(n int) float64 {
	sys := enoki.NewSystem()
	sys.RegisterCFS(policyCFS)
	k := sys.Kernel()
	once := enoki.BehaviorFunc(func(*enoki.Kernel, *enoki.Task) enoki.Action {
		return enoki.Action{Run: time.Microsecond, Op: enoki.OpExit}
	})
	return timeBatches(n, func(n int) {
		for i := 0; i < n; i++ {
			k.Spawn("t", policyCFS, once)
			sys.RunUntilIdle()
		}
	})
}

// nopSched answers every trait call with nothing, so microDispatch times
// core.Dispatch alone.
type nopSched struct{ core.BaseScheduler }

func (nopSched) GetPolicy() int { return policyTest }
func (nopSched) PickNextTask(int, *core.Schedulable, time.Duration) *core.Schedulable {
	return nil
}
func (nopSched) TaskWakeup(int, time.Duration, bool, int, int, *core.Schedulable) {}
func (nopSched) TaskNew(int, time.Duration, bool, []int, *core.Schedulable)       {}
func (nopSched) TaskPreempt(int, time.Duration, int, bool, *core.Schedulable)     {}
func (nopSched) TaskYield(int, time.Duration, int, *core.Schedulable)             {}
func (nopSched) TaskDeparted(int, int) *core.Schedulable                          { return nil }
func (nopSched) SelectTaskRQ(_, prevCPU int, _ bool) int                          { return prevCPU }
func (nopSched) MigrateTaskRQ(int, int, *core.Schedulable) *core.Schedulable      { return nil }

// microDispatch is core.dispatch_ns_per_msg: core.Dispatch over one message
// of every dispatchable kind.
func microDispatch(n int) float64 {
	ref := &core.SchedulableRef{PID: 7, CPU: 2, Gen: 9}
	allowed := []int{0, 1, 2}
	msgs := []*core.Message{
		{Kind: core.MsgPickNextTask, CPU: 3},
		{Kind: core.MsgPntErr, CPU: 3, PID: 7, ErrCode: int(core.PickStale), Sched: ref},
		{Kind: core.MsgTaskDead, PID: 7},
		{Kind: core.MsgTaskBlocked, PID: 7, CPU: 3},
		{Kind: core.MsgTaskWakeup, PID: 7, LastCPU: 1, WakeCPU: 2, Sched: ref},
		{Kind: core.MsgTaskNew, PID: 7, Runnable: true, Allowed: allowed, Sched: ref},
		{Kind: core.MsgTaskPreempt, PID: 7, CPU: 3, Sched: ref},
		{Kind: core.MsgTaskYield, PID: 7, CPU: 3, Sched: ref},
		{Kind: core.MsgTaskDeparted, PID: 7, CPU: 3},
		{Kind: core.MsgTaskAffinityChanged, PID: 7, Allowed: allowed},
		{Kind: core.MsgTaskPrioChanged, PID: 7, Prio: 4},
		{Kind: core.MsgTaskTick, CPU: 3, Queued: true, PID: 7},
		{Kind: core.MsgSelectTaskRQ, PID: 7, PrevCPU: 1, Wakeup: true},
		{Kind: core.MsgMigrateTaskRQ, PID: 7, NewCPU: 4, Sched: ref},
		{Kind: core.MsgBalance, CPU: 3},
		{Kind: core.MsgBalanceErr, CPU: 3, BalancePID: 7, Sched: ref},
		{Kind: core.MsgEnterQueue, QueueID: 1, Count: 2},
		{Kind: core.MsgParseHint},
	}
	var s nopSched
	return timeBatches(n, func(n int) {
		for i := 0; i < n; i++ {
			core.Dispatch(s, msgs[i%len(msgs)])
		}
	})
}

// microAdmitDone is overload.admit_done_ns: one Admit and its Done on a class
// with room.
func microAdmitDone(n int) float64 {
	c := overload.New(overload.Config{Classes: []overload.ClassConfig{{Name: "c", MaxInflight: 64, MaxRetries: 1}}})
	return timeBatches(n, func(n int) {
		for i := 0; i < n; i++ {
			if c.Admit(0, 0) == overload.Admitted {
				c.Done(0)
			}
		}
	})
}

// microVerifyLoad is vpol.verify_load_us: verifying and attaching the FIFO
// and the dual-queue programs, in microseconds for the pair. Building the
// System they attach to is not timed.
func microVerifyLoad(n int) float64 {
	progs := []*enoki.VProgram{enoki.VFIFOProgram(), enoki.VDualQueueProgram()}
	systems := make([]*enoki.System, n*len(progs))
	fresh := func() {
		for i := range systems {
			systems[i] = enoki.NewSystem()
		}
	}
	per := make([]float64, microBatches)
	for b := range per {
		fresh()
		t0 := time.Now()
		for i, sys := range systems {
			p := progs[i%len(progs)]
			if err := enoki.VerifyProgram(p); err != nil {
				panic(err) // the shipped example programs verify; anything else is a bug
			}
			sys.MustAttach(policyTest, enoki.VerifiedProgram(p))
		}
		per[b] = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(n)
	}
	return median(per)
}

// ladderRow is one rung of the tier ladder: the same small ping-pong under
// one scheduling tier.
type ladderRow struct {
	Rung          string  `json:"rung"`
	NsPerMsg      float64 `json:"ns_per_msg"`
	AllocsPerMsg  float64 `json:"allocs_per_msg"`
	VirtUsPerWake float64 `json:"virt_us_per_wakeup"`
	CtxPerMsg     float64 `json:"ctx_per_msg"`
	// Crossings is framework messages per ping-pong message, SchedSelfNs the
	// policy's own host time per ping-pong message from one traced rep; both
	// are 0 below the module tier.
	Crossings   float64 `json:"crossings_per_msg"`
	SchedSelfNs float64 `json:"sched_self_ns_per_msg"`
}

// runLadder runs every rung on one generated input: a discarded warm-up round,
// then sz.LadderRounds timed rounds, each visiting the rungs in turn so a noisy
// stretch of the host falls on all of them alike; a rung reports its median.
// The module rungs get one traced rep more, for the policy's self time.
func runLadder(seed uint64, sz size, tr *tracer) []ladderRow {
	tr.begin("ladder")
	defer tr.end()
	in := genPipe(seed, sz.LadderMsgs)
	builds := make([]func(*tracer) rig, len(ladderRungs))
	for i, r := range ladderRungs {
		builds[i] = func(t *tracer) rig { return buildPipe(in, r, t) }
		runRep(builds[i], nil)
	}
	ns := make([][]float64, len(ladderRungs))
	allocs := make([][]float64, len(ladderRungs))
	last := make([]repStats, len(ladderRungs))
	for round := 0; round < sz.LadderRounds; round++ {
		for i, build := range builds {
			last[i] = runRep(build, nil)
			ops := float64(last[i].out.Ops)
			ns[i] = append(ns[i], last[i].WallS*1e9/ops)
			allocs[i] = append(allocs[i], float64(last[i].Mallocs)/ops)
		}
	}
	rows := make([]ladderRow, len(ladderRungs))
	for i, r := range ladderRungs {
		out := last[i].out
		ops := float64(out.Ops)
		rows[i] = ladderRow{Rung: r.Name, NsPerMsg: median(ns[i]), AllocsPerMsg: median(allocs[i]),
			VirtUsPerWake: out.Counters["virt.mean_wakeup_ns"] / 1e3,
			CtxPerMsg:     float64(out.Ctx) / ops,
			Crossings:     out.Counters["enokic.msgs"] / ops}
		if rows[i].Crossings > 0 {
			// A tracer of its own: the policy's hooks must not fold into
			// the workload's sched.* spans.
			own := newTracer()
			own.settle(runRep(builds[i], own).HostSpeed)
			rows[i].SchedSelfNs = own.netSelfNs(own.layer("sched")) / ops
		}
	}
	return rows
}

func ladderRung(rows []ladderRow, name string) ladderRow {
	for _, r := range rows {
		if r.Rung == name {
			return r
		}
	}
	return ladderRow{}
}
